"""Test-only oracles: slow reference paths and brute-force checks that the
library's fast paths and validators are compared against."""

from __future__ import annotations

import math

import numpy as np

from teelab.audit import MARGIN_TOL, TaylorSweepReport
from teelab.errors import DegenerateDistribution, MalformedInput
from teelab.fusion import AnyonDistribution, FusionProbabilities


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
                taylor = h_p - (h_star + eps * base_log - 2.0 * eps**2 / pmin)
                conc = h_star - h_mixed
                comb = (h_p - h_mixed) - (eps * base_log - 2.0 * eps**2 / pmin)
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
