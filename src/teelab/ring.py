"""Constrained-ring sector families: exact synthetic Abelian models.

N sites around a ring each carry a Z_q variable; sector a is the uniform
classical mixture over all configurations whose site values sum to a mod q.
Supports of distinct sectors are disjoint, every proper-subset reduction is
exactly maximally mixed, and all entropies are counting statements, so the
three sector-family assumptions hold with defect exactly zero and
I(A:C|B) = log q saturates the Abelian bound log |A|.

Sites are arranged in cyclic order A, B1, C, B2.  Thinning removes one A
site per step (the removed sites are the lowest-index A sites).  This module
holds the geometry and the counting formulas; the sector states themselves
are never built, since every entropy is a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import audit
from .errors import InsufficientWidth, MalformedInput
from .fusion import zn_category


@dataclass(frozen=True)
class RingSpec:
    """Ring geometry: sector count q and the four arc sizes, in cyclic order A, B1, C, B2."""

    q: int
    sites_a: int
    sites_b1: int
    sites_c: int
    sites_b2: int

    def __post_init__(self):
        if self.q < 2:
            raise MalformedInput("q must be >= 2")
        for arc in (self.sites_a, self.sites_b1, self.sites_c, self.sites_b2):
            if arc < 1:
                raise MalformedInput("every arc needs at least one site")
        if self.n_sites < 4:
            raise MalformedInput("ring needs at least 4 sites")

    @property
    def n_sites(self) -> int:
        return self.sites_a + self.sites_b1 + self.sites_c + self.sites_b2

    def arcs(self) -> dict[str, tuple[int, ...]]:
        """Site indices per arc, in cyclic order A, B1, C, B2."""
        bounds = np.cumsum([0, self.sites_a, self.sites_b1, self.sites_c, self.sites_b2])
        names = ("A", "B1", "C", "B2")
        return {name: tuple(range(bounds[i], bounds[i + 1])) for i, name in enumerate(names)}

    def region_sites(self, tag: str) -> tuple[int, ...]:
        arcs = self.arcs()
        if tag == "B":
            return arcs["B1"] + arcs["B2"]
        return arcs[tag]


# ---------------------------------------------------------------------------
# exact entropies by counting


def entropy_coefficient(spec: RingSpec, n_region_sites: int) -> int:
    """S(R) / log q as an exact integer: |R| for proper subsets, N-1 for the ring."""
    if not 0 <= n_region_sites <= spec.n_sites:
        raise MalformedInput("region size out of range")
    if n_region_sites == spec.n_sites:
        return spec.n_sites - 1
    return n_region_sites


def cmi_coefficient(spec: RingSpec) -> int:
    """I(A:C|B) / log q by exact counting: the integer entropy combination, always 1."""
    n_a, n_b, n_c = spec.sites_a, spec.sites_b1 + spec.sites_b2, spec.sites_c
    return (
        entropy_coefficient(spec, n_a + n_b)
        + entropy_coefficient(spec, n_b + n_c)
        - entropy_coefficient(spec, n_b)
        - entropy_coefficient(spec, n_a + n_b + n_c)
    )


def exact_cmi(spec: RingSpec) -> float:
    """I(A:C|B) in nats: the integer coefficient times log q, with the log applied last."""
    return cmi_coefficient(spec) * math.log(spec.q)


def saturation_margin(spec: RingSpec) -> float:
    """exact_cmi minus log |A|; identically zero for this family."""
    return exact_cmi(spec) - math.log(spec.q)


# ---------------------------------------------------------------------------
# audit trace


def nested_annulus_table(spec: RingSpec, n: int) -> audit.AuditTrace:
    """The table I_i^(a) over nested annuli i = 0..n+1, all entries log q.

    Level n+1 is the full geometry; level i models the annulus after
    n+1-i thinning steps, i.e. a ring with that many fewer A sites.  Every
    level keeps at least one A site (sites_a >= n+2).
    """
    if n < 1:
        raise MalformedInput("need n >= 1 intermediate levels")
    if spec.sites_a < n + 2:
        raise InsufficientWidth(
            f"sites_a = {spec.sites_a} cannot host {n + 1} one-site thinnings with a nonempty A_0"
        )
    size_a = spec.sites_a - (n + 1 - np.arange(n + 2))  # |A_i|
    n_b, n_c = spec.sites_b1 + spec.sites_b2, spec.sites_c
    # the four entropy counts of `cmi_coefficient` at every level at once:
    # AB, BC and B are proper subsets (|R|), ABC is the whole ring (N - 1)
    coefficient = (size_a + n_b) + (n_b + n_c) - n_b - (size_a + n_b + n_c - 1)
    return audit.nested_trace(zn_category(spec.q), coefficient * math.log(spec.q), "ring_family")
