"""Replay of the finite-size lower-bound derivation as checkable arithmetic.

An AuditTrace is a table I_i^(a) of conditional mutual informations over
nested annuli (levels i = 0..n+1, labels a), together with the fusion
probabilities and the fixed-point distribution of the underlying anyon
algebra.  Each lemma of the derivation is a separate named check so a
failure localizes the broken premise; assemble_bound replays the whole
chain down to the final inequality

    I_{n+1}^(a0)  >=  log(1/p*_{a0}) - K/sqrt(n),
    K = 1 + (2/pmin^2) log(n_labels/pmin).

Margins below -1e-9 fail; margins in [-1e-9, 0) pass with a
"numerical-floor" annotation.  All arithmetic is in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateDistribution,
    DimensionCap,
    EpsilonOutOfRange,
    MalformedInput,
    PremiseViolated,
)
from .fusion import (
    AnyonDistribution,
    FusionCategory,
    FusionProbabilities,
    _label_index,
    bound_constant,
    closed_form_fixed_point,
    fusion_probabilities,
    quantum_dimensions,
)

MARGIN_TOL = 1e-9

# Byte cap on the Taylor sweep's arrays, charged at 64 L^2 bytes, 8 L^2 rows
# of float64, per grid point.  While `_sweep_entropies` forms the entropies
# it holds the grid (1 row), h_p and h_mixed (2 L^2), one scratch for fusion
# terms, gathered cells and mixture terms (L^2 for L >= 2), the table W of
# cell values (C + 3 U rows, with C <= L + L^2 classes and U <= L distinct
# p* values), the sums D of one group of label pairs (K rows) and masks of
# at most L / 8 rows.  K is held to the rest of the charge,
# 5 L^2 - C - 3 U - 1 - ceil(L / 8), which has room for one pair's L + 1
# rows for every L >= 2.  The margins then take the grid, quad and four
# (L, L, G) arrays: 4 L^2 + 2 rows.  The integer keys (a few arrays of
# L^2 (L + 1) int64, the size of the fusion tensor itself) do not grow with
# the grid and are not charged.  On z7 (C = 7, U = 1, K = 49) the peak is
# 1 + 98 + 49 + 10 + 49 + 1 = 208 rows, 1664 bytes against the 3136 charged.
SWEEP_BYTES_CAP = 2**28

# Bytes of one chunk of `assemble_bound`'s perturbed step margins, (levels,
# L, L) float64: a chunk holds max(1, this // (8 L^2)) levels.
_PERTURBED_CHUNK_BYTES = 2**24

TRACE_SCHEMA = "teelab-trace/v1"


@dataclass(frozen=True)
class AuditTrace:
    """The numeric table consumed by the proof replay."""

    labels: tuple[str, ...]
    table: np.ndarray  # shape (n_labels, n_levels), nats
    fp: FusionProbabilities
    p_star: AnyonDistribution
    a0: str
    provenance: str = "synthetic"

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", table)
        if table.ndim != 2 or table.shape[0] != len(self.labels):
            raise MalformedInput(f"table shape {table.shape} does not match {len(self.labels)} labels")
        if not np.isfinite(table).all():
            raise MalformedInput("conditional mutual information table must be finite")
        if table.shape[1] < 3:
            raise MalformedInput("need at least 3 levels (n >= 1)")
        if float(table.min()) < -MARGIN_TOL:
            raise MalformedInput(f"negative conditional mutual information {table.min():g} in table")
        if tuple(self.fp.labels) != tuple(self.labels) or tuple(self.p_star.labels) != tuple(self.labels):
            raise MalformedInput("fusion probabilities / fixed point labels do not match the trace")
        if self.a0 not in self.labels:
            raise MalformedInput(f"base label {self.a0!r} not in trace labels")
        if float(self.p_star.probs.min()) <= 0.0:
            raise DegenerateDistribution("trace fixed point must be strictly positive")
        table.setflags(write=False)

    @property
    def n_levels(self) -> int:
        return int(self.table.shape[1])

    @property
    def n(self) -> int:
        """Number of intermediate levels: levels = n + 2."""
        return self.n_levels - 2

    @property
    def p_min(self) -> float:
        return float(self.p_star.probs.min())


def nested_trace(cat: FusionCategory, levels, provenance: str) -> AuditTrace:
    """The trace of a family whose every label has the one column `levels`,
    on the group category `cat` with its closed-form fixed point, based at
    the vacuum, its first label."""
    return AuditTrace(
        labels=cat.labels,
        table=np.tile(levels, (len(cat.labels), 1)),
        fp=fusion_probabilities(cat),
        p_star=closed_form_fixed_point(quantum_dimensions(cat)),
        a0=cat.labels[0],
        provenance=provenance,
    )


def _annotate(margin: float) -> tuple[bool, str]:
    if margin >= 0.0:
        return True, "ok"
    if margin >= -MARGIN_TOL:
        return True, "numerical-floor"
    return False, "violated"


# ---------------------------------------------------------------------------
# lemma checks


def check_monotonicity(trace: AuditTrace) -> float:
    """Worst margin of  I_{i+1}^(a) >= I_i^(a)  over all labels and level pairs."""
    diffs = trace.table[:, 1:] - trace.table[:, :-1]
    return float(diffs.min())


def _deltas(trace: AuditTrace, bi: int) -> np.ndarray:
    """delta_i^(b) = sum_a p*_a [I_i^(a) - I_i^(b) + log(p*_a/p*_b)] for i < n,
    one dot per level."""
    table, ps = trace.table, trace.p_star.probs
    log_ps, log_b = np.log(ps), math.log(ps[bi])
    return np.array([ps @ (table[:, i] - table[bi, i] + log_ps - log_b) for i in range(trace.n)])


def _first_min(margins: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The first minimum in row-major order and its index.  The margin is read
    at that index, so of an exact tie (-0.0 and 0.0 included) the first entry
    is the one reported, as Python's min over the same entries would give."""
    index = np.unravel_index(int(margins.argmin()), margins.shape)
    return float(margins[index]), tuple(int(k) for k in index)


# ---------------------------------------------------------------------------
# full chain replay


@dataclass
class AuditReport:
    """Per-lemma margins plus the assembled final inequality."""

    provenance: str
    labels: tuple[str, ...]
    n: int
    b: str
    eps: float
    alpha: float
    K: float
    p_min: float
    checks: dict = field(default_factory=dict)
    not_evaluated: list = field(default_factory=list)
    passed: bool = False

    def record(self, name: str, margin: float, extra: Mapping | None = None) -> bool:
        ok, note = _annotate(margin)
        entry = {"margin": margin, "passed": ok, "note": note}
        if extra:
            entry.update(extra)
        self.checks[name] = entry
        return ok

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "labels": list(self.labels),
            "n": self.n,
            "base_label": self.b,
            "eps": self.eps,
            "alpha": self.alpha,
            "K": self.K,
            "p_min": self.p_min,
            "checks": self.checks,
            "not_evaluated": list(self.not_evaluated),
            "passed": self.passed,
        }


_CHAIN_NAMES = (
    "average_step_bounds",
    "chain_sum",
    "chain_into_average_bound",
    "level_floor_bounds",
    "alpha_combination",
    "final_bound",
)


def assemble_bound(
    trace: AuditTrace,
    b: str | None = None,
    eps: float | None = None,
    alpha: float | None = None,
) -> AuditReport:
    """Replay the whole derivation on a trace and report every margin.

    Premise lemmas (monotonicity, the per-level mixture-entropy bound at the
    fixed point, the averaged level bound, and the perturbed step bound on
    the full label grid) are checked first; the first failure raises
    PremiseViolated carrying the partial report.  The chain is then summed
    into the final inequality I_{n+1}^(b) >= log(1/p*_b) - K/sqrt(n).

    eps defaults to pmin/(2 sqrt(n)) and alpha to 1/(n pmin eps + 1); both
    can be overridden to explore tightness.  alpha weighs a convex
    combination, so an alpha outside [0, 1], given or defaulted, is
    MalformedInput before any premise is checked.

    The premises are array programs over the table: the (n+1, L) averaged
    level margins and the (n, L, L) perturbed step margins [i, b, c] are
    formed elementwise from one dot p* . I_i per level and one dot
    p* . (I_{i+1} - I_i) per step, with the arithmetic of the scalar checks
    in `tests/oracles.py`, which define each point.  The perturbed margins
    are formed a chunk of levels at a time, at most _PERTURBED_CHUNK_BYTES
    each, so their memory does not grow with n.  A premise's worst_case is
    its first minimum in (level, label, label) order.
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
        weight = n * pmin * eps + 1.0
        if weight <= 0.0:
            raise MalformedInput(f"n pmin eps + 1 = {weight:g} leaves no default alpha for eps = {eps:g}")
        alpha = 1.0 / weight
    if not 0.0 <= alpha <= 1.0:
        raise MalformedInput(f"alpha = {alpha:g} outside [0, 1]")
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

    labels, table, ps = trace.labels, trace.table, trace.p_star.probs
    L = len(labels)
    # one 1-D dot per level, on the operands the scalar checks use: a matrix
    # product could sum in another order and change the last bit
    dots = np.array([ps @ table[:, i] for i in range(trace.n_levels)])  # p* . I_i
    mixture_margins = (dots - trace.p_star.entropy()).tolist()
    premise("mixture_entropy_bound", min(mixture_margins), {"per_level": mixture_margins})

    # [i, a]: I_{i+1}^(a) - (p* . I_i - log L)
    margin, (i, a) = _first_min(table[:, 1:].T - (dots[:-1] - math.log(L))[:, None])
    premise("average_level_bound", margin, {"worst_case": f"{i}->{i + 1}:{labels[a]}"})

    levels = np.ascontiguousarray(table.T)  # row i is I_i
    steps = np.array([ps @ row for row in levels[1 : n + 1] - levels[:n]])  # p* . (I_{i+1} - I_i)
    ep, quad = eps * pmin, 2.0 * eps**2
    log_ratio = np.array([[math.log(ps[c] / ps[lb]) for c in range(L)] for lb in range(L)])  # [b, c]
    chunk = max(1, _PERTURBED_CHUNK_BYTES // (8 * L * L))  # levels per (chunk, L, L) array
    margin = worst = None
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        # [i, b, c]: steps_i - (eps pmin [I_i^(c) - I_i^(b) + log(p*_c/p*_b)] - 2 eps^2), in place
        perturbed = np.subtract(levels[i0:i1, None, :], levels[i0:i1, :, None])
        perturbed += log_ratio
        perturbed *= ep
        perturbed -= quad
        np.subtract(steps[i0:i1, None, None], perturbed, out=perturbed)
        low, (i, lb, lc) = _first_min(perturbed)
        if margin is None or low < margin:  # strict: of a tie the earlier chunk's entry stays
            margin, worst = low, f"{i0 + i}:{labels[lb]}->{labels[lc]}"
    premise("perturbed_step_bound", margin, {"worst_case": worst})

    # chain arithmetic
    bi = _label_index(labels, b)
    deltas = _deltas(trace, bi)
    top = float(table[bi, n + 1])

    # averaged steps: sum_a p*_a (I_{i+1} - I_i) >= eps pmin delta_i - 2 eps^2
    step_margins = (steps - (ep * deltas - quad)).tolist()
    report.record("average_step_bounds", min(step_margins), {"per_level": step_margins})

    # summed chain: sum_a p*_a I_n^(a) >= sum_i (eps pmin delta_i - 2 eps^2)
    chain_rhs = sum(ep * d - quad for d in deltas.tolist())
    chain_margin = float(dots[n]) - chain_rhs
    report.record("chain_sum", chain_margin, {"rhs": chain_rhs})

    # substitute into the averaged level bound at i = n:
    # I_{n+1}^(b) >= chain_rhs - log n_labels
    sub_margin = top - (chain_rhs - math.log(L))
    report.record("chain_into_average_bound", sub_margin)

    # per-level floors: I_{n+1}^(b) >= log(1/p*_b) - delta_i
    floor_margins = (top - (math.log(1.0 / ps[bi]) - deltas)).tolist()
    report.record("level_floor_bounds", min(floor_margins), {"per_level": floor_margins})

    # alpha combination: I_{n+1}^(b) >= log(1/p*_b) - alpha [2 n eps^2 + log(n_labels/p*_b)]
    combo_rhs = math.log(1.0 / ps[bi]) - alpha * (2.0 * n * eps**2 + math.log(L / ps[bi]))
    report.record("alpha_combination", top - combo_rhs, {"rhs": combo_rhs})

    # final: I_{n+1}^(b) >= log(1/p*_b) - K/sqrt(n)
    final_rhs = math.log(1.0 / ps[bi]) - K / math.sqrt(n)
    report.record("final_bound", top - final_rhs, {"rhs": final_rhs})

    report.passed = all(entry["passed"] for entry in report.checks.values())
    return report


# ---------------------------------------------------------------------------
# Taylor / concavity sweep


@dataclass(frozen=True)
class TaylorSweepReport:
    """Worst margins of the entropy perturbation bounds over a grid."""

    worst_taylor: float
    worst_concavity: float
    worst_combined: float
    evaluations: int
    passed: bool
    worst_case: tuple[str, str, float]


def taylor_bound_sweep(
    p_star: AnyonDistribution,
    fp: FusionProbabilities,
    trials: int = 0,
    eps_points: int = 41,
    seed: int = 0,
) -> TaylorSweepReport:
    """Sweep the first-order entropy bounds over all label pairs and an eps grid.

    For p = p* + eps(delta_b - delta_c) with |eps| <= pmin/2, checks

      Taylor:     H(p) >= H(p*) + eps log(p*_c/p*_b) - 2 eps^2 / pmin
      concavity:  sum_s p*_s H(p_{.,s}) <= H(p*)
      combined:   H(p) - sum_s p*_s H(p_{.,s}) >= eps log(p*_c/p*_b) - 2 eps^2 / pmin

    where p_{a,s} = sum_b p_b fp[s,b,a].  The grid is `eps_points` uniform
    values on [-pmin/2, pmin/2] followed by `trials` random ones drawn with
    `seed`, so `evaluations = L^2 (eps_points + trials)` for L labels.  An
    empty or negative grid and a negative seed are MalformedInput, and a
    grid whose arrays would pass SWEEP_BYTES_CAP is DimensionCap, all before
    any work.

    The entropies come from `_sweep_entropies`, which sums each distinct
    row of cells once for all label pairs and the whole grid; the margins
    are then formed once over (L, L, G) arrays.  Each margin has the
    arithmetic of a per-point loop: +eps at b before -eps at c, the sum over
    b in ascending order, the sum over s in order from 0, and
    log(p*_c/p*_b) from `math.log`.  The report equals that of the per-pair
    array program in `tests/oracles.py` bit for bit for every L.  It equals
    the per-point loop's for L <= 7, where numpy's sum of a contiguous
    array, which the loop takes, also runs in order.  `worst_case` is the
    first (b, c, eps) in (b, c, grid) order at which
    min(taylor, concavity, combined) reaches its minimum.
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
    h_p, h_mixed, h_star = _sweep_entropies(probs, fp, grid)
    quad = 2.0 * grid**2 / pmin
    log_ratio = np.array([[math.log(probs[c] / probs[b]) for c in range(n)] for b in range(n)])[:, :, None]
    # the margins [b, c, g] in four (L, L, G) arrays, each in the operand
    # order of the per-point formula
    lq = log_ratio * grid
    lq -= quad  # linear - quad
    comb = h_p - h_mixed
    comb -= lq  # (h_p - h_mixed) - (linear - quad)
    np.multiply(log_ratio, grid, out=lq)
    lq += h_star
    lq -= quad  # (h_star + linear) - quad
    taylor = np.subtract(h_p, lq, out=h_p)
    conc = np.subtract(h_star, h_mixed, out=h_mixed)
    worst_taylor, worst_conc, worst_comb = (float(m.min()) for m in (taylor, conc, comb))
    np.minimum(taylor, conc, out=lq)
    b, c, g = np.unravel_index(int(np.minimum(lq, comb, out=lq).argmin()), (n, n, G))
    return TaylorSweepReport(
        worst_taylor=worst_taylor,
        worst_concavity=worst_conc,
        worst_combined=worst_comb,
        evaluations=n * n * G,
        passed=min(worst_taylor, worst_conc, worst_comb) >= -MARGIN_TOL,
        worst_case=(fp.labels[b], fp.labels[c], float(grid[g])),
    )


def _sweep_entropies(probs: np.ndarray, fp: FusionProbabilities, grid: np.ndarray):
    """H(p) and sum_s p*_s H(p_{.,s}) for every label pair and grid point, as
    two (L, L, G) arrays [b, c, g], and H(p*).

    The L + L^2 columns, p and every p_{.,s}, are grouped into C classes of
    equal bits (`_fusion_classes`): a cell p_{a,s} is the in-order sum of
    its term list, the nonzeros (b, fp[s, b, a]) in ascending b, a single
    term (b, 1.0) is p_b itself, and the cells no term reaches are 0.  A
    label class a < L of P[g] = p* + eps_g (delta_b - delta_c) holds one of
    four values, each fixed by one p* entry: p*_a, p*_b + eps, p*_c - eps,
    or (p*_b + eps) - eps when b = c.  Their masked x log x is taken once
    per sweep, for each distinct p* value; H(p*) is minus the sum over the
    labels, which is `p_star.entropy()` bit for bit.  The fused classes
    (from L on; a pointed category has none) depend on the pair: for each
    pair that needs them, P is set, the term of rank k in each class adds
    P_b w to it in pass k (`_fuse`), and their masked x log x is taken.

    A row of cells (p, or one p_{.,s}) at a pair is thus a sequence of these
    values, and `_row_keys` gives every (pair, row) an integer key, equal for
    equal sequences.  Each distinct key is summed once, by the kernel of the
    per-pair program: its L cells are gathered with the grid innermost and
    summed over the cell axis, so numpy adds them one after the other, in
    order, for every L.  H(p) is a row's negated sum, and the mixture adds
    p*_s H(p_{.,s}) to 0.0 over s in order from 0.  A pointed category has a
    uniform p*, so its L^2 (L + 1) rows are L^2 distinct sequences: 49 of
    392 on z7.  When more keys are distinct than SWEEP_BYTES_CAP's count
    leaves room for, the label pairs are taken in groups small enough to
    fit, and each group sums its own distinct keys.

    P > 0 on the whole grid, so the terms a zero of fp would add are zeros,
    and the sparse sums over b equal the dense in-order sums bit for bit.
    """
    L, G = len(probs), len(grid)
    cls, C, terms = _fusion_classes(fp)
    # with return_inverse np.unique sorts; without, numpy 2 takes a hash path
    # whose first call imports numpy.ma, about 15 ms per process
    values, u = np.unique(probs, return_inverse=True)
    U = len(values)
    cells, base, keys = _row_keys(cls, u)
    # W[k] is one column of cells over the grid: rows 0 .. U - 1 hold x log x
    # of the distinct p* values (the L rows from 0 hold P while a pair's
    # classes are fused), rows L .. C - 1 that of the fused classes, and
    # from C on, per distinct value, that of p*_b + eps, p*_c - eps and
    # (p*_b + eps) - eps
    W = np.zeros((C + 3 * U, G))
    column = values[:, None]
    W[C:] = _x_log_x(np.concatenate([column + grid, column - grid, column + grid - grid]))
    star = _x_log_x(values)
    W[:U] = star[:, None]
    h_star = -float(star[u].sum())
    distinct, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    pair, row = np.divmod(first, L + 1)  # the first (pair, row) of each distinct key
    # the keys sort the rows without a fused class first, then the others by pair
    shared = int(np.count_nonzero((cells[row] < L).all(axis=1)))
    cap = 5 * L * L - C - 3 * U - 1 - (L + 7) // 8  # rows of D that fit; see SWEEP_BYTES_CAP
    step = L * L if len(distinct) <= cap else max(1, cap // (L + 1))
    inv = inv.reshape(L * L, L + 1)
    h_p, h_mixed = np.empty((L * L, G)), np.zeros((L * L, G))
    scratch = np.empty(max(L * L, 2 * L) * G)  # fusion terms, gathered cells, mixture terms
    store = np.empty((min(len(distinct), step * (L + 1)), G))  # D: H of a group's distinct rows
    used, slot = np.empty(len(distinct), dtype=bool), np.empty(len(distinct), dtype=np.intp)
    for lo in range(0, L * L, step):
        used[:] = False
        used[inv[lo : lo + step]] = True
        ids = np.flatnonzero(used)  # the group's distinct keys, and its rows' slots among them
        slot[ids] = np.arange(len(ids))
        part = slot[inv[lo : lo + step]]
        # the rows of W each distinct key reads: base, with b's value at b's
        # cell and c's at c's
        b, c = np.divmod(pair[ids], L)
        seen = cells[row[ids]]
        offset = np.where(seen == b[:, None], C + 2 * U * (b == c)[:, None], (C + U) * (seen == c[:, None]))
        columns = base[row[ids]] + offset
        own = int(np.searchsorted(ids, shared))
        pairs = pair[ids[own:]].tolist()
        runs = [0, own, *(own + i for i in range(1, len(pairs)) if pairs[i] != pairs[i - 1]), len(ids)]
        D = store[: len(ids)]
        for i0, i1 in zip(runs, runs[1:]):
            if own <= i0 < i1:
                bi, ci = int(b[i0]), int(c[i0])
                W[:L] = probs[:, None]  # P[g] = p* + eps_g (delta_b - delta_c)
                W[bi] += grid
                W[ci] -= grid
                _fuse(W, terms, scratch)
                for k in range(L, C, L):
                    rows = slice(k, min(k + L, C))
                    W[rows] = _x_log_x(W[rows], out=scratch[: (rows.stop - k) * G].reshape(-1, G))
                W[:U] = star[:, None]
            for i in range(i0, i1, L):
                j = min(i + L, i1)
                _row_entropies(W, columns[i:j], scratch, out=D[i:j])
        terms_s = scratch[: len(part) * G].reshape(len(part), G)
        for s in range(L):
            D.take(part[:, s], axis=0, out=terms_s, mode="clip")
            terms_s *= probs[s]
            h_mixed[lo : lo + step] += terms_s
        D.take(part[:, L], axis=0, out=h_p[lo : lo + step], mode="clip")
    return h_p.reshape(L, L, G), h_mixed.reshape(L, L, G), h_star


def _row_keys(cls: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of cells, their base sequences, and an integer key for every
    (pair, row) that is equal for rows with equal cell values.

    `cls` is `_fusion_classes`' class list and u[a] numbers p*_a among the
    distinct p* values.  Returns (cells, base, keys): cells[s] is the class
    of each cell of p_{.,s} and cells[L] those of p (classes 0 .. L - 1);
    base is cells with each label class a replaced by u[a]; keys[b L + c, r]
    is the key of row r at the pair (b, c).

    A row's values at a pair are fixed by its base sequence, by where b and
    where c sit in it and by whether b = c: a label fills at most one cell
    of a row, as a second (b, 1.0) would make fp[s, b] sum to 2.  A row with
    a fused class is keyed by its pair too.  The key packs these numbers,
    each below L^2 + 1, L + 2 or 2, into one int64; for the L <= 1448 that
    SWEEP_BYTES_CAP admits it stays below 2^54.
    """
    L = len(u)
    cells = np.concatenate((cls[L:], cls[:L])).reshape(L + 1, L)  # p_{.,0} .. p_{.,L-1}, then p
    base = np.concatenate((u, np.arange(L, len(cls))))[cells]
    bases: dict = {}
    beta = np.array([bases.setdefault(seq, len(bases)) for seq in map(tuple, base.tolist())])
    at = np.zeros((L + 1, L + 1), dtype=np.int64)  # at[a, r]: 1 + position of label a in row r, or 0
    r, j = np.nonzero(cells < L)
    at[cells[r, j], r] = j + 1
    at = at[:L]
    keyed = np.arange(1, L * L + 1).reshape(L, L, 1) * (cells >= L).any(axis=1)  # 1 + pair where fused
    keys = ((keyed * len(bases) + beta) * (L + 1) + at[:, None]) * (L + 1) + at[None]
    return cells, base, (keys * 2 + np.eye(L, dtype=np.int64)[:, :, None]).reshape(L * L, L + 1)


def _row_entropies(W: np.ndarray, columns: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """out[i] = minus the sum of W's rows columns[i], in order along the line:
    the rows are gathered into `scratch` as (lines, L, G) and summed over
    the middle axis, so numpy adds them one after the other with the grid
    innermost.  mode="clip" (the rows are in range) lets `take` write
    straight into `scratch`, where "raise" would go through a buffer."""
    (k, L), G = columns.shape, W.shape[1]
    gathered = W.take(columns.ravel(), axis=0, out=scratch[: k * L * G].reshape(k * L, G), mode="clip")
    np.add.reduce(gathered.reshape(k, L, G), axis=1, out=out)
    np.negative(out, out=out)


def _fusion_classes(fp: FusionProbabilities) -> tuple[np.ndarray, int, list]:
    """The columns of p and of its fused distributions p_{a,s} = sum_b p_b
    fp[s, b, a], grouped into classes of equal bits.

    A cell (s, a) is the in-order sum of its term list, the nonzeros
    (b, fp[s, b, a]) in ascending b, so two cells with one term list hold the
    same bits, and a single term (b, 1.0) is p_b itself.  Returns (cls, C,
    terms).  Class b < L is p_b; cls[:L] is 0 .. L - 1 and cls[L + s L + a]
    is the class of cell (s, a), in 0 .. C - 1.  terms lists the terms of
    the classes from L on as one triple (classes, b, w) per rank, a term's
    rank being its position in its list: a class occurs at most once per
    rank, so adding rank 0, 1, ... in turn sums each class over b in
    ascending order.  The class of the cells that no term reaches has no
    terms.
    """
    L = fp.n_labels
    lists: list[list[tuple[int, float]]] = [[] for _ in range(L * L)]
    s, b, a = np.nonzero(fp.p)  # row-major: b ascends within each (s, a)
    for si, bi, ai, w in zip(s.tolist(), b.tolist(), a.tolist(), fp.p[s, b, a].tolist()):
        lists[si * L + ai].append((bi, w))
    ids = {((bi, 1.0),): bi for bi in range(L)}
    cls = list(range(L)) + [ids.setdefault(tuple(cell), len(ids)) for cell in lists]
    ranked: list[list[tuple[int, int, float]]] = []
    for cell, k in list(ids.items())[L:]:
        for rank, (bi, w) in enumerate(cell):
            if rank == len(ranked):
                ranked.append([])
            ranked[rank].append((k, bi, w))
    return np.array(cls), len(ids), [tuple(map(np.array, zip(*terms))) for terms in ranked]


def _fuse(W: np.ndarray, terms: list, scratch: np.ndarray) -> np.ndarray:
    """Fill row W[k] = sum_b W[b] fp[s, b, a] in place for every class k >= L
    of `_fusion_classes`, in ascending b, from P = W[:L]; a class with no
    terms keeps its value in W.  A rank is applied to as many classes at a
    time as two of their rows fit in `scratch`, which holds the terms."""
    G = W.shape[1]
    width = len(scratch) // (2 * G)
    for rank, (classes, b, w) in enumerate(terms):
        for i in range(0, len(classes), width):
            k = classes[i : i + width]
            term = W.take(b[i : i + width], axis=0, out=scratch[: len(k) * G].reshape(-1, G), mode="clip")
            term *= w[i : i + width, None]
            if rank:
                term += W.take(k, axis=0, out=scratch[len(k) * G : 2 * len(k) * G].reshape(-1, G), mode="clip")
            W[k] = term
    return W


def _x_log_x(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v log v elementwise (nats), masked so that a zero entry gives 0: the
    Shannon entropy terms, negated.  Written to `out` when given."""
    out = np.empty_like(v) if out is None else out
    out.fill(1.0)
    np.copyto(out, v, where=v > 0)
    np.log(out, out=out)
    out *= v
    return out


# ---------------------------------------------------------------------------
# trace persistence


def save_trace(trace: AuditTrace, path) -> None:
    """Write a trace as versioned JSON."""
    doc = {
        "schema": TRACE_SCHEMA,
        "labels": list(trace.labels),
        "a0": trace.a0,
        "provenance": trace.provenance,
        "I": trace.table.tolist(),
        "fusion_probabilities": trace.fp.p.tolist(),
        "p_star": trace.p_star.probs.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_trace(source) -> AuditTrace:
    """Read a trace from a JSON file path or a parsed document."""
    if isinstance(source, Mapping):
        doc = source
    else:
        path = Path(source)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise MalformedInput(f"cannot read trace {path}: {exc}") from exc
    required = {"labels", "a0", "I", "fusion_probabilities", "p_star"}
    missing = required - set(doc)
    if missing:
        raise MalformedInput(f"trace document misses fields {sorted(missing)}")
    labels = tuple(str(x) for x in doc["labels"])
    p = np.asarray(doc["fusion_probabilities"], dtype=float)
    n = len(labels)
    if p.shape != (n, n, n):
        raise MalformedInput(f"fusion probability shape {p.shape}, expected {(n, n, n)}")
    rows = float(np.abs(p.sum(axis=2) - 1.0).max())
    if rows > 1e-9:
        raise MalformedInput(f"trace fusion probabilities not normalized (off by {rows:g})")
    fp = FusionProbabilities(labels=labels, p=p, row_sum_residual=rows)
    return AuditTrace(
        labels=labels,
        table=np.asarray(doc["I"], dtype=float),
        fp=fp,
        p_star=AnyonDistribution(labels, np.asarray(doc["p_star"], dtype=float)),
        a0=str(doc["a0"]),
        provenance=str(doc.get("provenance", "synthetic")),
    )
