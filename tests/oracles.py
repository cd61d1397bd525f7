"""Test-only oracles: slow reference paths and brute-force checks that the
library's fast paths and validators are compared against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from teelab.audit import (
    _CHAIN_NAMES,
    MARGIN_TOL,
    AuditReport,
    AuditTrace,
    TaylorSweepReport,
    check_average_level_bound,
    check_mixture_entropy_bound,
    check_monotonicity,
    check_perturbed_step_bound,
)
from teelab.errors import (
    ConditionOneViolated,
    DegenerateDistribution,
    EpsilonOutOfRange,
    MalformedInput,
    PremiseViolated,
)
from teelab.fusion import (
    STRUCT_TOL,
    AnyonDistribution,
    FusionProbabilities,
    _label_index,
    _power_iterate,
    bound_constant,
)
from teelab.gfp import rank_mod_p
from teelab.stabilizer import (
    AnnulusPartition,
    AssumptionsReport,
    FusionStringRule,
    Lattice,
    PropertyResult,
    SectorLabel,
    SparseGenerators,
    StabilizerState,
    _column_graph,
    _embed,
    _pairing,
    _region_columns,
    _roots,
    _shared_gens,
    conjugate_by_string,
    pauli_repr,
    restricted_canonical,
)

from dense_oracles import dense_generators


def taylor_bound_sweep_loop(
    p_star: AnyonDistribution,
    fp: FusionProbabilities,
    trials: int = 0,
    eps_points: int = 41,
    seed: int = 0,
) -> TaylorSweepReport:
    """Oracle for `audit.taylor_bound_sweep`: the same sweep as a Python loop,
    one entropy evaluation per (b, c, eps) point.

    For p = p* + eps(delta_b - delta_c) with |eps| <= pmin/2, checks

      Taylor:     H(p) >= H(p*) + eps log(p*_c/p*_b) - 2 eps^2 / pmin
      concavity:  sum_s p*_s H(p_{.,s}) <= H(p*)
      combined:   H(p) - sum_s p*_s H(p_{.,s}) >= eps log(p*_c/p*_b) - 2 eps^2 / pmin

    where p_{a,s} = sum_b p_b fp[s,b,a].  `trials` adds seeded random eps
    values per pair on top of the uniform grid.
    """
    if tuple(p_star.labels) != tuple(fp.labels):
        raise MalformedInput("labels do not match")
    probs = p_star.probs
    if float(probs.min()) <= 0.0:
        raise DegenerateDistribution("sweep needs a strictly positive fixed point")
    pmin = float(probs.min())
    h_star = p_star.entropy()
    grid = list(np.linspace(-pmin / 2, pmin / 2, eps_points))
    if trials:
        rng = np.random.default_rng(seed)
        grid += list(rng.uniform(-pmin / 2, pmin / 2, size=trials))

    def shannon(v: np.ndarray) -> float:
        w = v[v > 0]
        return float(-(w * np.log(w)).sum())

    worst_taylor = worst_conc = worst_comb = math.inf
    worst_case = ("", "", 0.0)
    count = 0
    labels = fp.labels
    for bi, lb in enumerate(labels):
        for ci, lc in enumerate(labels):
            base_log = math.log(probs[ci] / probs[bi])
            for eps in grid:
                p = probs.copy()
                p[bi] += eps
                p[ci] -= eps
                h_p = shannon(p)
                # p_{a,s} for every s at once: mixed[s, a] = sum_b p_b fp[s, b, a]
                mixed = np.einsum("b,sba->sa", p, fp.p)
                h_mixed = float(sum(probs[s] * shannon(mixed[s]) for s in range(len(labels))))
                # eps * eps, the correctly rounded square, as numpy squares an
                # array: a scalar eps**2 goes through libm's pow, which can be
                # an ulp off (at eps = 0.0266206703050684 it read 1 ulp above)
                quad = 2.0 * (eps * eps) / pmin
                taylor = h_p - (h_star + eps * base_log - quad)
                conc = h_star - h_mixed
                comb = (h_p - h_mixed) - (eps * base_log - quad)
                count += 1
                if min(taylor, conc, comb) < min(worst_taylor, worst_conc, worst_comb):
                    worst_case = (lb, lc, float(eps))
                worst_taylor = min(worst_taylor, taylor)
                worst_conc = min(worst_conc, conc)
                worst_comb = min(worst_comb, comb)
    passed = min(worst_taylor, worst_conc, worst_comb) >= -MARGIN_TOL
    return TaylorSweepReport(
        worst_taylor=worst_taylor,
        worst_concavity=worst_conc,
        worst_combined=worst_comb,
        evaluations=count,
        passed=passed,
        worst_case=worst_case,
    )


def _delta(trace: AuditTrace, level: int, b: str) -> float:
    """delta_i^(b) = sum_a p*_a [I_i^(a) - I_i^(b) + log(p*_a/p*_b)]."""
    bi = _label_index(trace.labels, b)
    ps = trace.p_star.probs
    return float(
        ps @ (trace.level(level) - trace.table[bi, level] + np.log(ps) - math.log(ps[bi]))
    )


def assemble_bound_loop(
    trace: AuditTrace,
    b: str | None = None,
    eps: float | None = None,
    alpha: float | None = None,
) -> AuditReport:
    """Oracle for `audit.assemble_bound`: the chain replay with one scalar
    `check_*` call per premise point, kept as it was before the premises
    became array programs.

    Replay the whole derivation on a trace and report every margin.

    Premise lemmas (monotonicity, the per-level mixture-entropy bound at the
    fixed point, the averaged level bound, and the perturbed step bound on
    the full label grid) are checked first; the first failure raises
    PremiseViolated carrying the partial report.  The chain is then summed
    into the final inequality I_{n+1}^(b) >= log(1/p*_b) - K/sqrt(n).

    eps defaults to pmin/(2 sqrt(n)) and alpha to 1/(n pmin eps + 1); both
    can be overridden to explore tightness.
    """
    n = trace.n
    if n < 1:
        raise MalformedInput("trace needs n >= 1 intermediate levels")
    b = trace.a0 if b is None else b
    if b not in trace.labels:
        raise MalformedInput(f"label {b!r} not in trace")
    pmin = trace.p_min
    if eps is None:
        eps = pmin / (2.0 * math.sqrt(n))
    if abs(eps) > pmin / 2 + 1e-15:
        raise EpsilonOutOfRange(f"|eps| = {abs(eps):g} exceeds pmin/2 = {pmin / 2:g}")
    if alpha is None:
        alpha = 1.0 / (n * pmin * eps + 1.0)
    K = bound_constant(trace.p_star)
    report = AuditReport(
        provenance=trace.provenance,
        labels=trace.labels,
        n=n,
        b=b,
        eps=eps,
        alpha=alpha,
        K=K,
        p_min=pmin,
    )

    def premise(name: str, margin: float, extra=None):
        if not report.record(name, margin, extra):
            report.not_evaluated = [k for k in _CHAIN_NAMES if k not in report.checks]
            raise PremiseViolated(f"premise {name} fails with margin {margin:g}", report=report)

    premise("monotonicity", check_monotonicity(trace))

    mixture_margins = [check_mixture_entropy_bound(trace, i, trace.p_star) for i in range(trace.n_levels)]
    premise("mixture_entropy_bound", min(mixture_margins), {"per_level": mixture_margins})

    avg_margins = {
        f"{i}->{i + 1}:{lab}": check_average_level_bound(trace, i, lab)
        for i in range(trace.n_levels - 1)
        for lab in trace.labels
    }
    premise("average_level_bound", min(avg_margins.values()), {"worst_case": min(avg_margins, key=avg_margins.get)})

    perturbed = {
        f"{i}:{lb}->{lc}": check_perturbed_step_bound(trace, i, lb, lc, eps)
        for i in range(n)
        for lb in trace.labels
        for lc in trace.labels
    }
    premise("perturbed_step_bound", min(perturbed.values()), {"worst_case": min(perturbed, key=perturbed.get)})

    # chain arithmetic
    ps = trace.p_star.probs
    bi = _label_index(trace.labels, b)
    deltas = [_delta(trace, i, b) for i in range(n)]

    # averaged steps: sum_a p*_a (I_{i+1} - I_i) >= eps pmin delta_i - 2 eps^2
    step_margins = [
        float(ps @ (trace.level(i + 1) - trace.level(i))) - (eps * pmin * deltas[i] - 2.0 * eps**2)
        for i in range(n)
    ]
    report.record("average_step_bounds", min(step_margins), {"per_level": step_margins})

    # summed chain: sum_a p*_a I_n^(a) >= sum_i (eps pmin delta_i - 2 eps^2)
    chain_rhs = sum(eps * pmin * d - 2.0 * eps**2 for d in deltas)
    chain_margin = float(ps @ trace.level(n)) - chain_rhs
    report.record("chain_sum", chain_margin, {"rhs": chain_rhs})

    # substitute into the averaged level bound at i = n:
    # I_{n+1}^(b) >= chain_rhs - log n_labels
    sub_margin = float(trace.table[bi, n + 1]) - (chain_rhs - math.log(len(trace.labels)))
    report.record("chain_into_average_bound", sub_margin)

    # per-level floors: I_{n+1}^(b) >= log(1/p*_b) - delta_i
    floor_margins = [
        float(trace.table[bi, n + 1]) - (math.log(1.0 / ps[bi]) - deltas[i]) for i in range(n)
    ]
    report.record("level_floor_bounds", min(floor_margins), {"per_level": floor_margins})

    # alpha combination: I_{n+1}^(b) >= log(1/p*_b) - alpha [2 n eps^2 + log(n_labels/p*_b)]
    combo_rhs = math.log(1.0 / ps[bi]) - alpha * (2.0 * n * eps**2 + math.log(len(trace.labels) / ps[bi]))
    report.record("alpha_combination", float(trace.table[bi, n + 1]) - combo_rhs, {"rhs": combo_rhs})

    # final: I_{n+1}^(b) >= log(1/p*_b) - K/sqrt(n)
    final_rhs = math.log(1.0 / ps[bi]) - K / math.sqrt(n)
    report.record("final_bound", float(trace.table[bi, n + 1]) - final_rhs, {"rhs": final_rhs})

    report.passed = all(entry["passed"] for entry in report.checks.values())
    return report


def brute_force_associative(N: np.ndarray) -> bool:
    """Independent associativity oracle: direct enumeration over all quadruples."""
    n = N.shape[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = sum(N[a, b, e] * N[e, c, d] for e in range(n))
                    rhs = sum(N[b, c, f] * N[a, f, d] for f in range(n))
                    if lhs != rhs:
                        return False
    return True


def associativity_failure_einsum(N: np.ndarray) -> tuple[int, int, int, int, int, int] | None:
    """Slow path of `fusion._associativity_failure`: both sides of
    associativity as int64 einsums, the first differing (a, b, c, d) in
    row-major order with the two sums, or None."""
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bcf,afd->abcd", N, N)
    if np.array_equal(lhs, rhs):
        return None
    a, b, c, d = (int(i) for i in np.argwhere(lhs != rhs)[0])
    return a, b, c, d, int(lhs[a, b, c, d]), int(rhs[a, b, c, d])


def is_fusion_ring(N: np.ndarray, labels=None, dual=None) -> bool:
    """Brute-force check that N is a fusion (based) ring: a unit u with
    N[u,a,b] = N[a,u,b] = delta_ab; for each a exactly one a* with
    N[a,a*,u] = 1 and no other unit channel; * an involution fixing u and
    an anti-automorphism, N[a,b,c] = N[b*,a*,c*]; and associativity.  A
    declared `dual` map (label -> label) must equal *."""
    n = N.shape[0]
    units = [
        u for u in range(n)
        if all(N[u, a, b] == (a == b) and N[a, u, b] == (a == b) for a in range(n) for b in range(n))
    ]
    if not units:
        return False
    u = units[0]
    star = []
    for a in range(n):
        channel = [int(N[a, b, u]) for b in range(n)]
        if sorted(channel) != [0] * (n - 1) + [1]:
            return False
        star.append(channel.index(1))
    if star[u] != u or any(star[star[a]] != a for a in range(n)):
        return False
    if dual is not None and any(dual[labels[a]] != labels[star[a]] for a in range(n)):
        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if N[a, b, c] != N[star[b], star[a], star[c]]:
                    return False
    return brute_force_associative(N)


@dataclass
class DefectFusionSystem:
    """Fusion data for a point defect: strings labeled by S act on sectors labeled by A.

    p[s, b, a] = probability that string s applied to sector b yields sector a;
    rows over a are normalized.  q_star lives on S, p_star on A, and the two
    are tied by sum_s p[s, b, a] q*_s = p*_a for every b.
    """

    string_labels: tuple[str, ...]
    sector_labels: tuple[str, ...]
    p: np.ndarray  # shape (|S|, |A|, |A|), indexed (s, b, a)
    q_star: np.ndarray | None = None
    p_star: np.ndarray | None = None
    residual: float | None = None
    iterations: int = 0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        expect = (len(self.string_labels), len(self.sector_labels), len(self.sector_labels))
        if self.p.shape != expect:
            raise MalformedInput(f"defect table shape {self.p.shape}, expected {expect}")
        rows = self.p.sum(axis=2)
        if np.abs(rows - 1.0).max() > STRUCT_TOL:
            raise MalformedInput("defect fusion rows are not normalized over sectors")


def defect_fixed_point(sys: DefectFusionSystem) -> DefectFusionSystem:
    """Fill in the sector fixed point of a defect fusion system.

    With q* on the string labels (given, or uniform), the induced sector map
    M[b, a] = sum_s p[s, b, a] q*_s is row stochastic; p* is its unique
    stationary distribution, found by power iteration.  The recorded residual
    is max_{b,a} |M[b,a] - p*_a|, i.e. the defect of the identity
    sum_s p[s,b,a] q*_s = p*_a.
    """
    nS = len(sys.string_labels)
    q = np.asarray(sys.q_star, dtype=float) if sys.q_star is not None else np.full(nS, 1.0 / nS)
    if q.shape != (nS,) or abs(q.sum() - 1.0) > STRUCT_TOL or q.min() < -STRUCT_TOL:
        raise MalformedInput("q_star is not a distribution on the string labels")
    M = np.einsum("sba,s->ba", sys.p, q)
    zeros = np.argwhere(M <= 0.0)
    if len(zeros):
        b, a = zeros[0]
        raise ConditionOneViolated(
            f"induced sector matrix entry M[{sys.sector_labels[b]},{sys.sector_labels[a]}] = 0"
        )
    pi, it = _power_iterate(M, "defect fixed point")
    residual = float(np.abs(M - pi[None, :]).max())
    return DefectFusionSystem(
        string_labels=sys.string_labels,
        sector_labels=sys.sector_labels,
        p=sys.p,
        q_star=q,
        p_star=pi,
        residual=residual,
        iterations=it,
    )


def _phase_test(basis, state1: StabilizerState, state2: StabilizerState) -> tuple[str, str | None]:
    """'orthogonal' with the first basis element whose phases differ, else 'equal'.

    The element v carries the phase v_x . t_z - v_z . t_x under the frame t,
    so two states on one generator matrix disagree on it iff v pairs to a
    nonzero value with the frame difference on R's columns.
    """
    edges, vecs = basis
    cols = _region_columns(state1, edges)
    diff = state1.frame[cols] - state2.frame[cols]
    hit = np.flatnonzero(_pairing(vecs, diff) % state1.lattice.prime)
    if hit.size == 0:
        return "equal", None
    return "orthogonal", pauli_repr(state1, _embed(state1, edges, vecs[hit[0]]))


def verify_assumptions_loop(
    states: dict[SectorLabel, StabilizerState],
    part: AnnulusPartition,
    rule: FusionStringRule | None = None,
) -> AssumptionsReport:
    """Oracle for `stabilizer.verify_assumptions`: one phase test per pair, with
    a full-width fusion string and a conjugated state per property-3 pair.

    1. Global distinguishability: reductions on ABC are pairwise orthogonal.
    2. Local indistinguishability: reductions on AB and on BC are pairwise equal.
    3. Fusion: conjugating sector a by the string for s and reducing to A'BC
       (one thinning step) equals the reduction of sector s x a.
    """
    p = next(iter(states.values())).lattice.prime
    expected = {(c, f) for c in range(p) for f in range(p)}
    if set(states) != expected:
        raise MalformedInput(f"need all {p * p} sectors, got {len(states)}")
    base = _shared_gens(states.values())
    rule = rule or FusionStringRule()
    order = sorted(states)

    basis = restricted_canonical(base, part.region_edges("ABC"))
    viol1 = []
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            relation, witness = _phase_test(basis, states[a], states[b])
            if relation != "orthogonal":
                viol1.append((a, b, relation, witness))
    prop1 = PropertyResult("global_distinguishability", not viol1, tuple(viol1))

    viol2 = []
    for name in ("AB", "BC"):
        basis = restricted_canonical(base, part.region_edges(name))
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                relation, witness = _phase_test(basis, states[a], states[b])
                if relation != "equal":
                    viol2.append((name, a, b, relation, witness))
    prop2 = PropertyResult("local_indistinguishability", not viol2, tuple(viol2))

    basis = restricted_canonical(base, part.thin(1).region_edges("ABC"))
    viol3 = []
    for s in order:
        if s == (0, 0):
            continue
        for a in order:
            target = ((s[0] + a[0]) % p, (s[1] + a[1]) % p)
            t = fusion_string_loop(states[a], part, s, rule)
            conjugated = conjugate_by_string(states[a], t)
            relation, witness = _phase_test(basis, conjugated, states[target])
            if relation != "equal":
                viol3.append((s, a, relation, witness))
    prop3 = PropertyResult("fusion", not viol3, tuple(viol3))

    return AssumptionsReport(prop1, prop2, prop3)


def edge_midpoints_loop(lat: Lattice) -> np.ndarray:
    """Oracle for `Lattice.edge_midpoints`: one edge at a time, by edge index."""
    mids = np.empty((lat.n_edges, 2), dtype=np.int64)
    for y in range(lat.height + 1):
        for x in range(lat.width):
            mids[lat.h_edge(x, y)] = (2 * x + 1, 2 * y)
    for y in range(lat.height):
        for x in range(lat.width + 1):
            mids[lat.v_edge(x, y)] = (2 * x, 2 * y + 1)
    return mids


def edges_in_box_scan(lat: Lattice, box: tuple[int, int, int, int]) -> np.ndarray:
    """Oracle for `Lattice.edges_in_box`: a scan of every edge midpoint."""
    x0, y0, x1, y1 = box
    m = lat.edge_midpoints
    return np.flatnonzero((m[:, 0] >= x0) & (m[:, 0] < x1) & (m[:, 1] >= y0) & (m[:, 1] < y1))


# A string path is a tuple of (edge index, sign) pairs.


def _string_vector(lat: Lattice, path, coeff: int, kind: str) -> np.ndarray:
    """Symplectic vector of Z^coeff (kind 'z') or X^coeff (kind 'x') along a path."""
    p = lat.prime
    E = lat.n_edges
    t = np.zeros(2 * E, dtype=np.int64)
    off = E if kind == "z" else 0
    for e, sign in path:
        t[off + e] = (t[off + e] + sign * coeff) % p
    return t


def charge_path_east(lat: Lattice, vx: int, vy: int):
    """Lattice path from vertex (vx, vy) east to the boundary."""
    return tuple((lat.h_edge(x, vy), +1) for x in range(vx, lat.width))


def flux_path_east(lat: Lattice, px: int, py: int):
    """Dual path from plaquette (px, py) east out of the lattice, as the
    primal edges it crosses."""
    return tuple((lat.v_edge(x, py), +1) for x in range(px + 1, lat.width + 1))


def create_sector_loop(
    state: StabilizerState, sector: SectorLabel, origin: tuple[int, int] | None = None
) -> StabilizerState:
    """Oracle for `stabilizer.create_sector`: the frame summed path by path,
    one edge at a time."""
    lat = state.lattice
    p = lat.prime
    c, f = sector
    if origin is None:
        origin = (lat.width // 2, lat.height // 2)
    ox, oy = origin
    t = np.zeros(2 * state.n, dtype=np.int64)
    if c:
        t = (t + _string_vector(lat, charge_path_east(lat, ox, oy), c, "z")) % p
    if f:
        t = (t + _string_vector(lat, flux_path_east(lat, ox, oy), f, "x")) % p
    return conjugate_by_string(state, t)


def fusion_string_loop(
    state: StabilizerState, part: AnnulusPartition, s: SectorLabel, rule: FusionStringRule
) -> np.ndarray:
    """Oracle for `stabilizer.fusion_string`: the two paths across A built
    edge by edge, from A's west boundary vertex column hx0 - a_width."""
    lat = state.lattice
    p = lat.prime
    hx0, hy0, hx1, hy1 = part.hole
    x_w = hx0 - part.a_width
    y = (hy0 + hy1) // 2
    c, f = s
    t = np.zeros(2 * state.n, dtype=np.int64)
    x_end = hx0 if rule.endpoint == "strips" else x_w + 1
    if c:
        path = tuple((lat.h_edge(x, y), +1) for x in range(x_w, x_end))
        t = (t + _string_vector(lat, path, (-c) % p, "z")) % p
    if f:
        path = tuple((lat.v_edge(x, y), +1) for x in range(x_w, x_end + 1))
        t = (t + _string_vector(lat, path, (-f) % p, "x")) % p
    return t


def row_labels(lat: Lattice) -> tuple[tuple[str, int, int], ...]:
    """Oracle for the generator row order: one (kind, x, y) label per row,
    all plaquettes, then all vertices but the redundant (0, 0), both in
    raster order."""
    labels = [("plaquette", x, y) for y in range(lat.height) for x in range(lat.width)]
    labels += [
        ("vertex", x, y)
        for y in range(lat.height + 1)
        for x in range(lat.width + 1)
        if (x, y) != (0, 0)  # the one redundant vertex generator
    ]
    return tuple(labels)


def combine_label_rows(state: StabilizerState, wanted: set) -> tuple[np.ndarray, int]:
    """Oracle for `stabilizer._combine_rows`: the rows found by a scan of the
    label list, their product in row order formed on their own edges."""
    labels = row_labels(state.lattice)
    idx = np.array([i for i, lab in enumerate(labels) if lab in wanted], dtype=np.int64)
    if len(idx) != len(wanted):
        missing = wanted - {labels[i] for i in idx}
        raise MalformedInput(f"rows not present: {sorted(missing)[:3]}")
    gens = state.gens
    p = state.lattice.prime
    edges = np.unique(gens.cols[idx][gens.vals[idx] != 0] % state.n)
    cols = _region_columns(state, edges)
    local = dense_generators(gens)[np.ix_(idx, cols)].sum(axis=0) % p
    phase = int(_pairing(local, state.frame[cols]) % p)
    return _embed(state, edges, local), phase


def charge_detector_loop(state: StabilizerState, part: AnnulusPartition) -> tuple[np.ndarray, int]:
    """Oracle for `stabilizer.charge_detector`: the vertex rows over the closed
    hole, found by label."""
    hx0, hy0, hx1, hy1 = part.hole
    wanted = {("vertex", x, y) for x in range(hx0, hx1 + 1) for y in range(hy0, hy1 + 1)}
    return combine_label_rows(state, wanted)


def flux_detector_loop(state: StabilizerState, part: AnnulusPartition) -> tuple[np.ndarray, int]:
    """Oracle for `stabilizer.flux_detector`: the plaquette rows over the hole
    and one ring to the south-west, found by label."""
    hx0, hy0, hx1, hy1 = part.hole
    wanted = {("plaquette", x, y) for x in range(hx0 - 1, hx1) for y in range(hy0 - 1, hy1)}
    return combine_label_rows(state, wanted)


def sector_witness_phases_loop(state: StabilizerState, part: AnnulusPartition) -> dict[str, int]:
    """Oracle for `stabilizer.sector_witness_phases` on the label-scan detectors."""
    return {"charge": charge_detector_loop(state, part)[1], "flux": flux_detector_loop(state, part)[1]}


def rows_on_scan(gens: SparseGenerators, edges: np.ndarray) -> np.ndarray:
    """Oracle for the rows of `SparseGenerators.region_block`: the rows of the
    dense matrix with a nonzero entry in the edges' X or Z columns."""
    edges = np.asarray(edges, dtype=np.int64)
    return np.flatnonzero(dense_generators(gens)[:, np.concatenate([edges, edges + gens.n_edges])].any(axis=1))


def region_rank_elimination(state: StabilizerState, region) -> int:
    """Oracle for `stabilizer.region_rank`: g_R = 2|R| - rank(G|_R) by one
    elimination over F_p on the region's columns, with the rows that touch R
    found by a scan of the dense matrix."""
    edges = np.unique(np.asarray(region, dtype=np.int64))
    cols = np.concatenate([edges, edges + state.n])
    block = dense_generators(state.gens)[np.ix_(rows_on_scan(state.gens, edges), cols)]
    return 2 * len(edges) - rank_mod_p(block, state.lattice.prime)


def nested_levels_loop(state: StabilizerState, part: AnnulusPartition, n: int) -> list[float]:
    """Oracle for the levels of `stabilizer.nested_annulus_table`: level i is
    the CMI of the partition thinned n+1-i times, with every region's rank
    from the elimination oracle."""

    def cmi(q: AnnulusPartition) -> float:
        g = {name: region_rank_elimination(state, q.region_edges(name)) for name in ("AB", "BC", "B", "ABC")}
        return (g["B"] + g["ABC"] - g["AB"] - g["BC"]) * math.log(state.lattice.prime)

    return [cmi(part.thin(n + 1 - i)) for i in range(n + 2)]


def _union_find(a: np.ndarray, b: np.ndarray, n_nodes: int) -> tuple[np.ndarray, list[int]]:
    """Kruskal's test on the graph edges (a[k], b[k]) in order, over nodes
    0 .. n_nodes - 1: whether each edge joins two trees of the forest grown
    from the edges before it, and the final parent links.

    Union-find by size with path halving: O(k alpha(k)).  Every parent chain
    ends at its tree's root, so pointer jumping (`_roots`) labels the trees.
    A memoryview hands out the ids as Python ints one at a time, with no list
    of them all.
    """
    parent, size = list(range(n_nodes)), [1] * n_nodes
    joined = bytearray(len(a))
    ids = (memoryview(np.ascontiguousarray(ends, dtype=np.int64)) for ends in (a, b))
    for i, (x, y) in enumerate(zip(*ids)):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            if size[x] > size[y]:
                x, y = y, x
            parent[x] = y
            size[y] += size[x]
            joined[i] = 1
    return np.frombuffer(joined, dtype=bool), parent


def forest_joins_union_find(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Oracle for `stabilizer._forest_joins`: Kruskal's join mask, by
    `_union_find` over the nodes the edges touch."""
    k = len(u)
    _, ids = np.unique(np.concatenate([u, v]), return_inverse=True)
    joined, _ = _union_find(ids[:k], ids[k:], int(ids.max()) + 1 if k else 0)
    return joined


def cluster_roots_union_find(
    gens: SparseGenerators, columns: np.ndarray, p: int, root: np.ndarray | None = None
) -> np.ndarray:
    """Oracle for `stabilizer._cluster_roots`: the roots of the `_union_find`
    forest of the columns as graph edges, grown further from the trees of
    `root` contracted to their roots."""
    u, v, _ = _column_graph(gens, columns, p)
    if root is None:
        root = np.arange(gens.n_rows + 1)
    _, parent = _union_find(root[u], root[v], gens.n_rows + 1)
    return _roots(np.asarray(parent))[root]
