"""Constrained-ring sector families: exact synthetic Abelian models.

N sites around a ring each carry a Z_q variable; sector a is the uniform
classical mixture over all configurations whose site values sum to a mod q.
Supports of distinct sectors are disjoint, every proper-subset reduction is
exactly maximally mixed, and all entropies are counting statements, so the
three sector-family assumptions hold with defect exactly zero and
I(A:C|B) = log q saturates the Abelian bound log |A|.

Sites are arranged in cyclic order A, B1, C, B2.  Thinning removes one A
site per step (the removed sites are the lowest-index A sites).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import audit
from .errors import InsufficientWidth, MalformedInput
from .fusion import closed_form_fixed_point, fusion_probabilities, quantum_dimensions, zn_category


@dataclass(frozen=True)
class RingSpec:
    """Ring geometry: sector count q and the four arc sizes, in cyclic order A, B1, C, B2."""

    q: int
    sites_a: int
    sites_b1: int
    sites_c: int
    sites_b2: int
    sector: int | None = None

    def __post_init__(self):
        if self.q < 2:
            raise MalformedInput("q must be >= 2")
        for arc in (self.sites_a, self.sites_b1, self.sites_c, self.sites_b2):
            if arc < 1:
                raise MalformedInput("every arc needs at least one site")
        if self.n_sites < 4:
            raise MalformedInput("ring needs at least 4 sites")
        if self.sector is not None and not 0 <= self.sector < self.q:
            raise MalformedInput(f"sector {self.sector} outside Z_{self.q}")

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


@dataclass(frozen=True)
class RingSectorState:
    """Uniform mixture over {h in Z_q^N : sum h = sector mod q}, held implicitly."""

    spec: RingSpec

    def __post_init__(self):
        if self.spec.sector is None:
            raise MalformedInput("sector state needs a definite sector")

    @property
    def sector(self) -> int:
        return self.spec.sector

    @property
    def support_size(self) -> int:
        return self.spec.q ** (self.spec.n_sites - 1)

    def contains(self, config) -> bool:
        if len(config) != self.spec.n_sites:
            raise MalformedInput("configuration length mismatch")
        return sum(int(h) for h in config) % self.spec.q == self.sector

    def enumerate_support(self):
        """All supporting configurations (only sensible for small N)."""
        q, n = self.spec.q, self.spec.n_sites
        for code in range(q ** (n - 1)):
            rest = []
            x = code
            for _ in range(n - 1):
                rest.append(x % q)
                x //= q
            last = (self.sector - sum(rest)) % q
            yield tuple(rest) + (last,)

    def shifted(self, s: int) -> "RingSectorState":
        return RingSectorState(replace(self.spec, sector=(self.sector + s) % self.spec.q))


@dataclass(frozen=True)
class RingFamily:
    """All q sector states over one ring geometry."""

    spec: RingSpec  # template, sector = None
    states: tuple[RingSectorState, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(str(a) for a in range(self.spec.q))


def build_family(spec: RingSpec) -> RingFamily:
    """The q sector states of a ring template (template must not fix a sector)."""
    if spec.sector is not None:
        raise MalformedInput("build_family takes a template without a sector")
    states = tuple(RingSectorState(replace(spec, sector=a)) for a in range(spec.q))
    return RingFamily(spec=spec, states=states)


# ---------------------------------------------------------------------------
# exact entropies by counting


def entropy_coefficient(spec: RingSpec, n_region_sites: int) -> int:
    """S(R) / log q as an exact integer: |R| for proper subsets, N-1 for the ring."""
    if not 0 <= n_region_sites <= spec.n_sites:
        raise MalformedInput("region size out of range")
    if n_region_sites == spec.n_sites:
        return spec.n_sites - 1
    return n_region_sites


def counting_entropy(spec: RingSpec, n_region_sites: int) -> float:
    """S of a region in nats; integer counting with the log applied last."""
    return entropy_coefficient(spec, n_region_sites) * math.log(spec.q)


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
    if spec.sector is not None:
        raise MalformedInput("pass the template spec (no sector)")
    if n < 1:
        raise MalformedInput("need n >= 1 intermediate levels")
    if spec.sites_a < n + 2:
        raise InsufficientWidth(
            f"sites_a = {spec.sites_a} cannot host {n + 1} one-site thinnings with a nonempty A_0"
        )
    levels = n + 2
    table = np.empty((spec.q, levels))
    for i in range(levels):
        level_spec = replace(spec, sites_a=spec.sites_a - (n + 1 - i))
        value = exact_cmi(level_spec)
        table[:, i] = value
    cat = zn_category(spec.q)
    dims = quantum_dimensions(cat)
    fp = fusion_probabilities(cat, dims)
    return audit.AuditTrace(
        labels=cat.labels,
        table=table,
        fp=fp,
        p_star=closed_form_fixed_point(dims),
        a0="0",
        provenance="ring_family",
    )
