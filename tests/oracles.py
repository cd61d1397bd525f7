"""Test-only oracles: slow reference paths and brute-force checks that the
library's fast paths and validators are compared against, and the scalar
lemma checks, lattice operators, sector families and entropy shorthands that
only the tests call."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pytest

from teelab import stabilizer
from teelab.audit import (
    _CHAIN_NAMES,
    MARGIN_TOL,
    SWEEP_BYTES_CAP,
    AuditReport,
    AuditTrace,
    TaylorSweepReport,
    _fusion_classes,
    _x_log_x,
    check_monotonicity,
)
from teelab.errors import (
    ConditionOneViolated,
    DegenerateDistribution,
    DimensionCap,
    EpsilonOutOfRange,
    InvalidGeometry,
    MalformedInput,
    PremiseViolated,
    RankDeficiency,
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
from teelab.ring import RingSpec, exact_cmi
from teelab.stabilizer import (
    AnnulusPartition,
    AssumptionsReport,
    ColumnGraph,
    Lattice,
    PropertyResult,
    SectorLabel,
    StabilizerState,
    _clusters,
    _compact,
    _components,
    _edges,
    _embed,
    _forest_size,
    _pairing,
    _region_columns,
    _roots,
    _row_phases,
    _row_strings,
    _sector_strings,
    _shared_gens,
    annulus_cmi_certificate,
    conjugate_by_string,
    fusion_string,
    pauli_repr,
    reduction_relation,
    region_rank,
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


def taylor_bound_sweep_pairs(
    p_star: AnyonDistribution,
    fp: FusionProbabilities,
    trials: int = 0,
    eps_points: int = 41,
    seed: int = 0,
) -> TaylorSweepReport:
    """Oracle for `audit.taylor_bound_sweep`: the same sweep as one array
    program per label pair (b, c), over the whole grid at once.  It is the
    library's sweep before the rows of cells were shared across pairs, and
    the bit-for-bit reference for every L.

    The L + L^2 columns, p and every p_{.,s}, are grouped into C classes of
    equal bits (`_fusion_classes`).  One column-major (G, C) buffer V, reused
    by every pair, holds them: V's first L columns are set to P, the fused
    classes (from L on) are filled by `_fuse` and their x log x is taken,
    the first L columns are then copied from the x log x tables of p*_a,
    p*_b + eps, p*_c - eps and (p*_b + eps) - eps, and the classes are
    gathered back to the (G, L + 1, L) cells.  That gather is a view whose
    cell axis is strided, so numpy sums each row of cells in order, for
    every L; the per-point loop's contiguous sums are pairwise from 8 cells
    on.  `worst_case` is the first (b, c, eps) in (b, c, grid) order at
    which min(taylor, concavity, combined) reaches its minimum.
    """
    if eps_points < 2:
        raise MalformedInput(f"the eps grid needs at least 2 points, got {eps_points}")
    if trials < 0:
        raise MalformedInput(f"trials must be non-negative, got {trials}")
    if seed < 0:
        raise MalformedInput(f"seed must be non-negative, got {seed}")
    if tuple(p_star.labels) != tuple(fp.labels):
        raise MalformedInput("labels do not match")
    n, G = len(fp.labels), eps_points + trials
    if 64 * n * n * G > SWEEP_BYTES_CAP:
        raise DimensionCap(f"a sweep of {G} eps points over {n} labels is over the {SWEEP_BYTES_CAP}-byte cap")
    probs = p_star.probs
    if float(probs.min()) <= 0.0:
        raise DegenerateDistribution("sweep needs a strictly positive fixed point")
    pmin = float(probs.min())
    grid = np.linspace(-pmin / 2, pmin / 2, eps_points)
    if trials:
        rng = np.random.default_rng(seed)
        grid = np.concatenate([grid, rng.uniform(-pmin / 2, pmin / 2, size=trials)])
    quad = 2.0 * grid**2 / pmin
    taylor, conc, comb = np.empty((3, n, n, G))
    cls, n_classes, terms = _fusion_classes(fp)
    # x log x of the four values a column of P takes: p*_a, p*_b + eps,
    # p*_c - eps and, when b = c, (p*_b + eps) - eps
    star = _x_log_x(probs)
    column = probs[:, None]
    plus, minus, same = _x_log_x(np.stack([column + grid, column - grid, column + grid - grid]))
    h_star = -float(star.sum())  # p_star.entropy(), bit for bit
    # V[g, k] = class k at grid point g: P, then the fused classes, then their
    # x log x; column-major, so a class's column is contiguous
    V = np.zeros((G, n_classes), order="F")
    for bi in range(n):
        for ci in range(n):
            if n_classes > n:
                V[:, :n] = probs  # P[g] = p* + eps_g (delta_b - delta_c)
                V[:, bi] += grid
                V[:, ci] -= grid
                V[:, n:] = _x_log_x(_fuse(V, terms)[:, n:])
            V[:, :n] = star
            if bi == ci:
                V[:, bi] = same[bi]
            else:
                V[:, bi] = plus[bi]
                V[:, ci] = minus[ci]
            # row 0 of H is H(p) and row 1 + s is H(p_{.,s})
            H = -V[:, cls].reshape(G, n + 1, n).sum(axis=-1)
            h_p, h_s = H[:, 0], H[:, 1:]
            h_mixed = 0.0
            for s in range(n):
                h_mixed = h_mixed + probs[s] * h_s[:, s]
            linear = math.log(probs[ci] / probs[bi]) * grid
            taylor[bi, ci] = h_p - (h_star + linear - quad)
            conc[bi, ci] = h_star - h_mixed
            comb[bi, ci] = (h_p - h_mixed) - (linear - quad)
    worst_taylor, worst_conc, worst_comb = (float(m.min()) for m in (taylor, conc, comb))
    b, c, g = np.unravel_index(int(np.minimum(np.minimum(taylor, conc), comb).argmin()), (n, n, G))
    return TaylorSweepReport(
        worst_taylor=worst_taylor,
        worst_concavity=worst_conc,
        worst_combined=worst_comb,
        evaluations=n * n * G,
        passed=min(worst_taylor, worst_conc, worst_comb) >= -MARGIN_TOL,
        worst_case=(fp.labels[b], fp.labels[c], float(grid[g])),
    )


def _fuse(V: np.ndarray, terms: list) -> np.ndarray:
    """The fusion step of `taylor_bound_sweep_pairs`, on a column-major V:
    fill V[:, k] = sum_b V[:, b] fp[s, b, a] in place for every class k >= L
    of `_fusion_classes`, in ascending b, from P = V[:, :L]; a class with no
    terms keeps its value in V."""
    for rank, (classes, b, w) in enumerate(terms):
        if rank:
            V[:, classes] += V[:, b] * w
        else:
            V[:, classes] = V[:, b] * w
    return V


def level(trace: AuditTrace, i: int) -> np.ndarray:
    """Column i of the trace's table, I_i^(a) over the labels a."""
    if not 0 <= i < trace.n_levels:
        raise MalformedInput(f"level {i} outside 0..{trace.n_levels - 1}")
    return trace.table[:, i]


def check_mixture_entropy_bound(trace: AuditTrace, i: int, p: AnyonDistribution) -> float:
    """Margin of  sum_a p_a I_i^(a) >= H(p)  at one level."""
    if tuple(p.labels) != trace.labels:
        raise MalformedInput("distribution labels do not match the trace")
    return float(p.probs @ level(trace, i) - p.entropy())


def mixed_step_distribution(trace: AuditTrace, p: AnyonDistribution, s: str) -> AnyonDistribution:
    """p_{a,s} = sum_b p_b fp[s,b,a]: distribution after fusing a p-sample with s."""
    si = label_index(trace.fp, s)
    out = np.einsum("b,ba->a", p.probs, trace.fp.p[si])
    return AnyonDistribution(trace.labels, out / out.sum())


def check_fusion_step(trace: AuditTrace, i: int, p: AnyonDistribution, s: str) -> float:
    """Margin of the step inequality between levels i and i+1:

    sum_a p_a I_{i+1}^(a) - H(p)  >=  sum_a p_{a,s} I_i^(a) - H(p_{a,s}).
    """
    if i + 1 >= trace.n_levels:
        raise MalformedInput(f"no level pair {i} -> {i + 1}")
    p_as = mixed_step_distribution(trace, p, s)
    lhs = float(p.probs @ level(trace, i + 1) - p.entropy())
    rhs = float(p_as.probs @ level(trace, i) - p_as.entropy())
    return lhs - rhs


def check_average_level_bound(trace: AuditTrace, i: int, b: str) -> float:
    """Margin of  I_{i+1}^(b) >= sum_a p*_a I_i^(a) - log n_labels."""
    if i + 1 >= trace.n_levels:
        raise MalformedInput(f"no level pair {i} -> {i + 1}")
    bi = _label_index(trace.labels, b)
    rhs = float(trace.p_star.probs @ level(trace, i)) - math.log(len(trace.labels))
    return float(trace.table[bi, i + 1]) - rhs


def check_perturbed_step_bound(trace: AuditTrace, i: int, b: str, c: str, eps: float) -> float:
    """Margin of the two-label perturbation bound at one level:

    sum_a p*_a (I_{i+1}^(a) - I_i^(a))
        >=  eps pmin [I_i^(c) - I_i^(b) + log(p*_c/p*_b)] - 2 eps^2,

    valid for |eps| <= pmin/2.
    """
    pmin = trace.p_min
    if abs(eps) > pmin / 2 + 1e-15:
        raise EpsilonOutOfRange(f"|eps| = {abs(eps):g} exceeds pmin/2 = {pmin / 2:g}")
    if i + 1 >= trace.n_levels:
        raise MalformedInput(f"no level pair {i} -> {i + 1}")
    bi, ci = _label_index(trace.labels, b), _label_index(trace.labels, c)
    lhs = float(trace.p_star.probs @ (level(trace, i + 1) - level(trace, i)))
    bracket = (
        float(trace.table[ci, i] - trace.table[bi, i])
        + math.log(trace.p_star.probs[ci] / trace.p_star.probs[bi])
    )
    rhs = eps * pmin * bracket - 2.0 * eps**2
    return lhs - rhs


def _delta(trace: AuditTrace, i: int, b: str) -> float:
    """delta_i^(b) = sum_a p*_a [I_i^(a) - I_i^(b) + log(p*_a/p*_b)]."""
    bi = _label_index(trace.labels, b)
    ps = trace.p_star.probs
    return float(
        ps @ (level(trace, i) - trace.table[bi, i] + np.log(ps) - math.log(ps[bi]))
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
        float(ps @ (level(trace, i + 1) - level(trace, i))) - (eps * pmin * deltas[i] - 2.0 * eps**2)
        for i in range(n)
    ]
    report.record("average_step_bounds", min(step_margins), {"per_level": step_margins})

    # summed chain: sum_a p*_a I_n^(a) >= sum_i (eps pmin delta_i - 2 eps^2)
    chain_rhs = sum(eps * pmin * d - 2.0 * eps**2 for d in deltas)
    chain_margin = float(ps @ level(trace, n)) - chain_rhs
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


def associativity_residual_einsum(p: np.ndarray) -> float:
    """Slow path of `fusion._fusion_probabilities`' associativity residual:
    max |sum_u p[s,t,u] p[u,a,c] - sum_b p[t,a,b] p[s,b,c]| as two
    (n, n, n, n) float einsums."""
    lhs = np.einsum("stu,uac->stac", p, p)
    rhs = np.einsum("tab,sbc->stac", p, p)
    return float(np.abs(lhs - rhs).max())


def label_index(table, label: str) -> int:
    """The position of a label in a fusion category's or fusion probability
    table's labels; MalformedInput for an unknown label."""
    return _label_index(table.labels, label)


def prob(fp: FusionProbabilities, s: str, a: str, b: str) -> float:
    """fp[s, a, b] by label."""
    return float(fp.p[label_index(fp, s), label_index(fp, a), label_index(fp, b)])


def point_mass(labels, a: str) -> AnyonDistribution:
    """The distribution with all its weight on label a."""
    probs = np.zeros(len(labels))
    probs[list(labels).index(a)] = 1.0
    return AnyonDistribution(tuple(labels), probs)


def star(p: AnyonDistribution, q: AnyonDistribution, fp: FusionProbabilities) -> AnyonDistribution:
    """Fusion convolution: (p * q)_b = sum_{s,a} fp[s,a,b] p_s q_a."""
    if p.labels != fp.labels or q.labels != fp.labels:
        raise MalformedInput("distribution labels do not match fusion probabilities")
    out = np.einsum("sab,s,a->b", fp.p, p.probs, q.probs)
    return AnyonDistribution(fp.labels, out)


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
    states: dict[SectorLabel, StabilizerState], part: AnnulusPartition, endpoint: str = "strips"
) -> AssumptionsReport:
    """Oracle for `stabilizer.verify_assumptions`: one phase test per pair, with
    a full-width fusion string (`fusion_string_loop`, ending at `endpoint`)
    and a conjugated state per property-3 pair.

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
            t = fusion_string_loop(states[a], part, s, endpoint)
            conjugated = conjugate_by_string(states[a], t)
            relation, witness = _phase_test(basis, conjugated, states[target])
            if relation != "equal":
                viol3.append((s, a, relation, witness))
    prop3 = PropertyResult("fusion", not viol3, tuple(viol3))

    return AssumptionsReport(prop1, prop2, prop3)


def witnessed(
    report: AssumptionsReport, states: dict[SectorLabel, StabilizerState], part: AnnulusPartition
) -> AssumptionsReport:
    """The report with every violating pair written out as
    `verify_assumptions_loop` writes it: its labels, then the relation and
    witness that `stabilizer.reduction_relation` gives the pair.  Property
    3's pair is sector a conjugated by `stabilizer.fusion_string` for s
    against sector s x a on A'BC, so a report taken under
    `fusion_strings_ending` is witnessed under it too."""
    base = _shared_gens(states.values())
    p = base.lattice.prime
    abc, thinned = part.region_edges("ABC"), part.thin(1).region_edges("ABC")
    dist, indist, fusion = report.distinguishability, report.indistinguishability, report.fusion
    viol1 = [(a, b, *reduction_relation(states[a], states[b], abc)) for a, b in dist.violations]
    viol2 = [
        (name, a, b, *reduction_relation(states[a], states[b], part.region_edges(name)))
        for name, a, b in indist.violations
    ]
    viol3 = []
    for s, a in fusion.violations:
        target = ((s[0] + a[0]) % p, (s[1] + a[1]) % p)
        conjugated = conjugate_by_string(states[a], fusion_string(base, part, s))
        viol3.append((s, a, *reduction_relation(conjugated, states[target], thinned)))
    return AssumptionsReport(*(
        replace(result, violations=tuple(viol)) for result, viol in ((dist, viol1), (indist, viol2), (fusion, viol3))
    ))


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


def ground_supports_per_slot(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for `stabilizer.build_ground_state`'s supports: each kind's rows
    from its (x, y), each vertex slot written where its edge exists, every edge
    id through the bounds-checked `Lattice.h_edge`/`v_edge`."""
    p, E, W, H = lat.prime, lat.n_edges, lat.width, lat.height
    cols = np.zeros((E, stabilizer.MAX_SUPPORT), dtype=np.int64)
    vals = np.zeros((E, stabilizer.MAX_SUPPORT), dtype=np.int64)
    y, x = np.divmod(np.arange(W * H), W)
    rows = y * W + x
    cols[rows] = E + np.stack(
        [lat.h_edge(x, y), lat.v_edge(x + 1, y), lat.h_edge(x, y + 1), lat.v_edge(x, y)], axis=1
    )
    vals[rows] = np.array([1, 1, -1, -1]) % p
    y, x = np.divmod(np.arange(1, (W + 1) * (H + 1)), W + 1)
    rows = W * H + y * (W + 1) + x - 1
    for k, (has, edge, dx, dy, sign) in enumerate(
        ((x < W, lat.h_edge, 0, 0, 1), (x > 0, lat.h_edge, -1, 0, -1),
         (y < H, lat.v_edge, 0, 0, 1), (y > 0, lat.v_edge, 0, -1, -1))
    ):
        cols[rows[has], k] = edge(x[has] + dx, y[has] + dy)
        vals[rows[has], k] = sign % p
    return cols, vals


@dataclass(frozen=True, eq=False)
class SparseGenerators:
    """Generator rows over F_p stored as local supports, in symplectic layout:
    the toric-code supports of `ground_supports_per_slot`, or a hand-built
    matrix of any shape.

    Row i is sum_k vals[i, k] * e_{cols[i, k]} over 2 * n_edges columns:
    column e is X on edge e and column n_edges + e is Z on edge e.  A row
    has its entries on distinct columns; unused slots hold the padding
    (column 0, value 0).  A state may hold these in place of its column
    graph for `stabilizer.restricted_canonical`, which reads only
    `region_block`.
    """

    cols: np.ndarray  # (rows, slots) int64
    vals: np.ndarray  # (rows, slots) int64 mod p, 0 = padding
    n_edges: int

    @property
    def n_rows(self) -> int:
        return len(self.vals)

    @cached_property
    def by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries grouped by column, as (start, rows, vals): column
        c holds rows[start[c]:start[c + 1]], with values vals[...], in row
        order.  Built once, by one stable sort of the nonzero slots."""
        slot = np.flatnonzero(self.vals)  # in row-major order
        cols = self.cols.ravel()[slot]
        start = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=2 * self.n_edges))])
        slot = slot[np.argsort(cols, kind="stable")]
        return start, slot // self.vals.shape[1], self.vals.ravel()[slot]

    def region_block(self, edges: np.ndarray, p: int) -> np.ndarray:
        """Oracle for `stabilizer.ColumnGraph.region_block`: the rows with a
        nonzero entry on the sorted, unique edges, in row order, on those
        edges' X then Z columns, read from the column index.  The values are
        residues mod p already."""
        columns = np.concatenate([edges, edges + self.n_edges])
        start, rows, vals = self.by_column
        col, index = _ranges(start[columns], start[columns + 1])
        touching, row = np.unique(rows[index], return_inverse=True)
        stabilizer.check_dense_cap(len(touching), len(columns))
        out = np.zeros((len(touching), len(columns)), dtype=np.int64)
        out[row, col] = vals[index]
        return out


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner i, index j) for every j in every half-open range [lo[i], hi[i])."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    index = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts) + lo[owner]
    return owner, index


def state_supports(state: StabilizerState) -> SparseGenerators:
    """The toric-code supports of the state's lattice, filled slot by slot
    (`ground_supports_per_slot`), not read from its column graph."""
    cols, vals = ground_supports_per_slot(state.lattice)
    return SparseGenerators(cols=cols, vals=vals, n_edges=state.n)


def graph_supports(gens: ColumnGraph, p: int) -> SparseGenerators:
    """The supports that a column graph encodes: +1 on row u[c] and -1 on
    row v[c] of every column c, the sentinel's ends left out, each row's
    entries in column order."""
    n_cols = 2 * gens.n_edges
    row = np.concatenate([gens.u, gens.v]).astype(np.int64)
    col = np.tile(np.arange(n_cols), 2)
    val = np.repeat([1, p - 1], n_cols)
    keep = np.flatnonzero(row != gens.n_rows)
    order = keep[np.lexsort((col[keep], row[keep]))]
    row, col, val = row[order], col[order], val[order]
    slot = np.arange(len(row)) - np.searchsorted(row, row)
    width = int(np.bincount(row, minlength=gens.n_rows).max(initial=0))
    cols = np.zeros((gens.n_rows, width), dtype=np.int64)
    vals = np.zeros((gens.n_rows, width), dtype=np.int64)
    cols[row, slot], vals[row, slot] = col, val
    return SparseGenerators(cols=cols, vals=vals, n_edges=gens.n_edges)


def _column_graph(gens: SparseGenerators, p: int) -> ColumnGraph:
    """Oracle for the column graph that `stabilizer.build_ground_state`
    writes in closed form: every column read and checked from the column
    index (`column_graph_per_region`), then oriented by its signs, so that u
    holds +1 and v holds -1.  At p = 2, where +1 = -1, the orientation is the
    row order.  An empty column is a loop on the sentinel n_rows.  A column
    with more than two entries, or with two that do not cancel mod p, raises
    MalformedInput."""
    n_cols = 2 * gens.n_edges
    first, second, keep = column_graph_per_region(gens, np.arange(n_cols), p)
    start, _, vals = gens.by_column
    flip = (vals[start[keep]] == p - 1) & (p > 2)  # the first entry is -1
    u = np.full(n_cols, gens.n_rows, dtype=np.int32)
    v = u.copy()
    u[keep], v[keep] = np.where(flip, second, first), np.where(flip, first, second)
    return ColumnGraph(u=u, v=v, n_rows=gens.n_rows)


def _check_commutation(gens: SparseGenerators, p: int) -> None:
    """Oracle for `stabilizer._check_graph_commutation`: raise RankDeficiency
    unless every pair of rows has symplectic form 0 mod p.

    omega(a, b) = sum_e x_a[e] z_b[e] - z_a[e] x_b[e] is summed over the pairs
    (X entry of column e, Z entry of column E + e) of the column index, keyed
    by min(a, b) n_rows + max(a, b), after one sort.  The smallest bad key
    names the rows.
    """
    E, n = gens.n_edges, gens.n_rows
    start, rows, vals = gens.by_column
    edge = np.repeat(np.arange(E), np.diff(start[:E + 1]))  # the edge of each X entry
    xi, zi = _ranges(start[E + edge], start[E + edge + 1])
    a, b = rows[xi], rows[zi]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(key)
    head = np.flatnonzero(np.diff(key[order], prepend=-1))
    # a pair adds +v to omega(a, b) and -v to omega(b, a): 0 when a == b
    form = np.add.reduceat((np.sign(b - a) * vals[xi] * vals[zi])[order], head)
    bad = np.flatnonzero(form % p)
    if bad.size:
        i, j = divmod(int(key[order[head[bad[0]]]]), n)
        raise RankDeficiency(f"generators do not commute: rows {i} and {j}")


def _check_independent(gens: SparseGenerators, p: int) -> None:
    """Oracle for `stabilizer._check_graph_rank`: raise RankDeficiency unless
    the rows are independent over F_p, as nodes minus components of the
    column graph read from the column index (`_column_graph`)."""
    graph = _column_graph(gens, p)
    rank = _forest_size(graph.u, graph.v, gens.n_rows + 1)
    if rank < gens.n_rows:
        raise RankDeficiency(f"generator matrix is not full rank: rank {rank} of {gens.n_rows} rows")


def vertex_star(lat: Lattice, x: int, y: int) -> list[tuple[int, int]]:
    """(edge, orientation sign) pairs of the vertex operator at (x, y)."""
    out = []
    if x < lat.width:
        out.append((lat.h_edge(x, y), +1))
    if x > 0:
        out.append((lat.h_edge(x - 1, y), -1))
    if y < lat.height:
        out.append((lat.v_edge(x, y), +1))
    if y > 0:
        out.append((lat.v_edge(x, y - 1), -1))
    return out


def plaquette_boundary(lat: Lattice, x: int, y: int) -> list[tuple[int, int]]:
    """(edge, sign) pairs of the plaquette operator at (x, y), counterclockwise."""
    if not (0 <= x < lat.width and 0 <= y < lat.height):
        raise MalformedInput(f"no plaquette at ({x},{y})")
    return [
        (lat.h_edge(x, y), +1),
        (lat.v_edge(x + 1, y), +1),
        (lat.h_edge(x, y + 1), -1),
        (lat.v_edge(x, y), -1),
    ]


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


def ring_table_loop(spec: RingSpec, n: int) -> np.ndarray:
    """Oracle for the table of `ring.nested_annulus_table`: level i as the
    spec with n + 1 - i fewer A sites, one `exact_cmi` per level."""
    table = np.empty((spec.q, n + 2))
    for i in range(n + 2):
        table[:, i] = exact_cmi(replace(spec, sites_a=spec.sites_a - (n + 1 - i)))
    return table


def sector_family(state: StabilizerState, part: AnnulusPartition) -> dict[SectorLabel, StabilizerState]:
    """All p^2 sector states, anchored at the partition's origin: the two
    strings are built once and every frame is c t_e + f t_m by linearity."""
    p = state.lattice.prime
    t_e, t_m = _sector_strings(state.lattice, part.origin)
    return {(c, f): conjugate_by_string(state, c * t_e + f * t_m) for c in range(p) for f in range(p)}


def _fusion_string_ends(part: AnnulusPartition, endpoint: str) -> tuple[int, int, int]:
    """(x_w, x_end, y) of property 3's strings: from A's west boundary vertex
    column x_w = hx0 - a_width east to x_end along row y, the hole's middle
    row.  x_end is the hole's west boundary for "strips", so both endpoints
    sit in the removed strips, and x_w + 1, a vertex and plaquette column
    inside the retained A', for "inside_a_prime"."""
    if endpoint not in ("strips", "inside_a_prime"):
        raise MalformedInput("endpoint must be 'strips' or 'inside_a_prime'")
    hx0, hy0, hx1, hy1 = part.hole
    x_w = hx0 - part.a_width
    return x_w, hx0 if endpoint == "strips" else x_w + 1, (hy0 + hy1) // 2


@contextmanager
def fusion_strings_ending(endpoint: str):
    """Within the block, the library's property-3 strings end at `endpoint`:
    "strips" leaves them as they are, and "inside_a_prime" patches
    `stabilizer._fusion_strings`, which `fusion_string`, `verify_assumptions`
    and `verify_sector_assumptions` read.  `pytest.MonkeyPatch.context()`
    undoes the patch on exit, so it also serves inside a Hypothesis test."""

    def ending(lat: Lattice, part: AnnulusPartition) -> tuple[np.ndarray, np.ndarray]:
        x_w, x_end, y = _fusion_string_ends(part, endpoint)
        return _row_strings(lat, y, (x_w, x_end), (x_w - 1, x_end))

    with pytest.MonkeyPatch.context() as patch:
        if endpoint != "strips":
            patch.setattr(stabilizer, "_fusion_strings", ending)
        yield


def fusion_string_loop(
    state: StabilizerState, part: AnnulusPartition, s: SectorLabel, endpoint: str = "strips"
) -> np.ndarray:
    """Oracle for `stabilizer.fusion_string`: the two paths across A built
    edge by edge, from A's west boundary vertex column hx0 - a_width to the
    column that `endpoint` names (`_fusion_string_ends`)."""
    lat = state.lattice
    p = lat.prime
    x_w, x_end, y = _fusion_string_ends(part, endpoint)
    c, f = s
    t = np.zeros(2 * state.n, dtype=np.int64)
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
    """The product of the generator rows with the wanted labels, found by a
    scan of the label list, and its phase: formed in row order on the rows'
    own edges and returned at the full 2 n_edges width."""
    labels = row_labels(state.lattice)
    idx = np.array([i for i, lab in enumerate(labels) if lab in wanted], dtype=np.int64)
    if len(idx) != len(wanted):
        missing = wanted - {labels[i] for i in idx}
        raise MalformedInput(f"rows not present: {sorted(missing)[:3]}")
    gens = state_supports(state)
    p = state.lattice.prime
    edges = np.unique(gens.cols[idx][gens.vals[idx] != 0] % state.n)
    cols = _region_columns(state, edges)
    local = dense_generators(gens)[np.ix_(idx, cols)].sum(axis=0) % p
    phase = int(_pairing(local, state.frame[cols]) % p)
    return _embed(state, edges, local), phase


def charge_detector_loop(state: StabilizerState, part: AnnulusPartition) -> tuple[np.ndarray, int]:
    """The product of the vertex operators over the closed hole, which the
    clearance rule keeps off the dropped vertex (0, 0): the X-type loop whose
    phase reads out the enclosed charge."""
    hx0, hy0, hx1, hy1 = part.hole
    wanted = {("vertex", x, y) for x in range(hx0, hx1 + 1) for y in range(hy0, hy1 + 1)}
    return combine_label_rows(state, wanted)


def flux_detector_loop(state: StabilizerState, part: AnnulusPartition) -> tuple[np.ndarray, int]:
    """The product of the plaquette operators over the hole plus one ring to
    the south-west: the Z-type loop whose phase reads out the enclosed flux.

    The extra ring keeps the loop's support inside the annulus edge set:
    under the half-open box convention the hole owns its own south and west
    perimeter edges.
    """
    hx0, hy0, hx1, hy1 = part.hole
    wanted = {("plaquette", x, y) for x in range(hx0 - 1, hx1) for y in range(hy0 - 1, hy1)}
    return combine_label_rows(state, wanted)


def sector_witness_phases_loop(state: StabilizerState, part: AnnulusPartition) -> dict[str, int]:
    """Phase exponents of the two enclosing loop operators in this state;
    InvalidGeometry when a loop's support leaves ABC."""
    abc = set(part.region_edges("ABC").tolist())
    out = {}
    for name, detector in (("charge", charge_detector_loop), ("flux", flux_detector_loop)):
        vec, phase = detector(state, part)
        support = set(np.flatnonzero(vec[:state.n] | vec[state.n:]).tolist())
        if not support <= abc:
            raise InvalidGeometry(f"{name} detector leaks outside the annulus")
        out[name] = phase
    return out


def rows_on_scan(state: StabilizerState, edges: np.ndarray) -> np.ndarray:
    """Oracle for the rows of `ColumnGraph.region_block`: the rows of the
    dense matrix with a nonzero entry in the edges' X or Z columns."""
    edges = np.asarray(edges, dtype=np.int64)
    return np.flatnonzero(dense_generators(state)[:, np.concatenate([edges, edges + state.n])].any(axis=1))


def region_rank_elimination(state: StabilizerState, region) -> int:
    """Oracle for `stabilizer.region_rank`: g_R = 2|R| - rank(G|_R) by one
    elimination over F_p on the region's columns, with the rows that touch R
    found by a scan of the dense matrix."""
    edges = np.unique(np.asarray(region, dtype=np.int64))
    cols = np.concatenate([edges, edges + state.n])
    block = dense_generators(state)[np.ix_(rows_on_scan(state, edges), cols)]
    return 2 * len(edges) - rank_mod_p(block, state.lattice.prime)


def region_entropy(state: StabilizerState, region) -> float:
    """S(rho_R) = (|R| - g_R) log p, exactly."""
    edges = _edges(state, region)
    return (len(edges) - region_rank(state, edges)) * math.log(state.lattice.prime)


def annulus_cmi(state: StabilizerState, part: AnnulusPartition) -> float:
    """I(A:C|B) on the annulus, an exact integer multiple of log p."""
    value, _ = annulus_cmi_certificate(state, part)
    return value


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


def column_graph_per_region(
    gens: SparseGenerators, columns: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for the column graph's region reads: the given nonzero columns
    as graph edges (u, v, position in `columns`), read and checked region by
    region from the column index.  A column with two entries joins their two
    rows; a column with one entry joins its row to the sentinel node n_rows.
    A column with more than two entries, or with two that do not cancel mod
    p, raises MalformedInput."""
    start, rows, vals = gens.by_column
    lo, count = start[columns], start[columns + 1] - start[columns]
    if (count > 2).any():
        k = int(np.argmax(count > 2))
        raise MalformedInput(f"column {columns[k]} has {count[k]} entries; a graph rank needs at most two")
    two = np.flatnonzero(count == 2)
    odd = (vals[lo[two]] + vals[lo[two] + 1]) % p != 0
    if odd.any():
        raise MalformedInput(f"the two entries of column {columns[two[odd][0]]} do not cancel mod {p}")
    keep = np.flatnonzero(count)
    second = rows[np.minimum(lo[keep] + 1, len(rows) - 1)]
    return rows[lo[keep]], np.where(count[keep] == 2, second, gens.n_rows), keep


def region_rank_per_region(state: StabilizerState, region) -> int:
    """Oracle for `stabilizer.region_rank`: the region's own column graph
    (`column_graph_per_region`) and its spanning-forest size over the nodes
    it touches."""
    columns = _region_columns(state, region)
    u, v, _ = column_graph_per_region(state_supports(state), columns, state.lattice.prime)
    nodes, cu, cv = _compact(u, v)
    return len(columns) - _forest_size(cu, cv, len(nodes))


def cluster_roots(
    gens: SparseGenerators, columns: np.ndarray, p: int, root: np.ndarray | None = None
) -> np.ndarray:
    """Oracle for the cluster labels of `stabilizer._region_phases`: the label
    of every row, and of the sentinel (node n_rows), in the graph of the
    given columns (`column_graph_per_region`), over every row.  Given an
    earlier graph's labels, its clusters are contracted to them and only the
    new columns are run."""
    u, v, _ = column_graph_per_region(gens, columns, p)
    if root is None:
        root = np.arange(gens.n_rows + 1)
    return _components(root[u], root[v], gens.n_rows + 1)[root]


def components_union_find(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Oracle for `stabilizer._components`: each node's root in the
    `_union_find` forest, one node per component, not its smallest node."""
    _, parent = _union_find(u, v, n)
    return _roots(np.asarray(parent))


def region_phases_per_region(state: StabilizerState, abc: np.ndarray, vectors, regions) -> list[np.ndarray]:
    """Oracle for `stabilizer._region_phases`: each region's cluster phases,
    the clusters labelled over every row (`cluster_roots`), the forest of the
    columns outside ABC grown once and continued over ABC's columns outside
    the region."""
    gens, E, p = state_supports(state), state.n, state.lattice.prime
    in_abc = np.zeros(2 * E, dtype=bool)
    in_abc[_region_columns(state, abc)] = True
    root_abc = cluster_roots(gens, np.flatnonzero(~in_abc), p)
    out = []
    for edges in regions:
        rest = in_abc.copy()  # ABC's columns outside the region
        rest[_region_columns(state, edges)] = False
        rows, cluster, k = _clusters(cluster_roots(gens, np.flatnonzero(rest), p, root_abc))
        phases = np.zeros((k, len(vectors)), dtype=np.int64)
        np.add.at(phases, cluster, _row_phases(state.lattice, rows, vectors).T)
        out.append(phases % p)
    return out


def _fused(s, a, p: int):
    """The label s x a of Z_p x Z_p, labels numbered c p + f."""
    return (s // p + a // p) % p * p + (s + a) % p


def fusion_step_loop(table: np.ndarray, moved: np.ndarray, p: int) -> np.ndarray:
    """Oracle for `stabilizer._fusion_step`: one (K, p^2) program per label s."""
    n = table.shape[1]
    labels = np.arange(n)
    bad = np.zeros((n, n), dtype=bool)
    for s in labels[1:]:
        bad[s] = ((table + moved[:, [s - 1]] - table[:, _fused(s, labels, p)]) % p).any(axis=0)
    return bad
