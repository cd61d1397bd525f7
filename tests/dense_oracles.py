"""Dense test oracles: density operators, partial traces, entropies,
conditional mutual information, the three sector-family checkers, the ring
sector states, and the dense exports of ring families and stabilizer states
they run on.

No CLI path builds a dense operator: teelab counts every entropy exactly.
These are the same region entropies computed a second way, by eigenvalues
of explicit matrices, and the tests compare the two.

Operators live on a FactorSpace (ordered factors with local dimensions) and
are immutable after construction.  All entropies are in nats.  Eigenvalues in
[-1e-9, 1e-10) are clipped to zero before entropy sums; anything below -1e-9
fails the positivity invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Iterable, Sequence

import numpy as np

from teelab import stabilizer as st
from teelab.errors import (
    DimensionCap,
    InsufficientWidth,
    MalformedInput,
    PremiseViolated,
    TeeLabError,
)
from teelab.fusion import AnyonDistribution, FusionProbabilities, _label_index
from teelab.ring import RingSpec, entropy_coefficient


class UnknownFactor(TeeLabError):
    """A factor id does not belong to the factor space at hand."""


class SpectrumFailure(TeeLabError):
    """The dense eigensolver failed to converge."""


class InvalidOperator(TeeLabError):
    """A matrix fails a density-operator invariant (hermiticity, trace, positivity)."""


class SupportViolation(TeeLabError):
    """A unitary acts on factors outside its allowed region."""


class SiteInThinnedRegion(TeeLabError):
    """A fusion shift was requested on a site retained in the thinned region."""


OPERATOR_DIM_CAP = 2**14
VECTOR_DIM_CAP = 2**20
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
EIG_CLIP = 1e-10
ORTHOGONALITY_TOL = 1e-10
REDUCTION_TOL = 1e-10
FUSION_TOL = 1e-9
MIXTURE_TOL = 1e-9

REGIONS = ("A", "B", "C", "ENV")


@dataclass(frozen=True)
class FactorSpace:
    """An ordered list of (factor id, local dimension) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ids = [f for f, _ in self.factors]
        if len(set(ids)) != len(ids):
            raise MalformedInput("duplicate factor ids")
        for _, d in self.factors:
            if d < 2:
                raise MalformedInput("local dimensions must be >= 2")

    @staticmethod
    def of_dims(dims: Sequence[int]) -> "FactorSpace":
        return FactorSpace(tuple((i, int(d)) for i, d in enumerate(dims)))

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(f for f, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    def subspace(self, keep: Iterable[int]) -> "FactorSpace":
        keep = set(keep)
        unknown = keep - set(self.ids)
        if unknown:
            raise UnknownFactor(f"unknown factor ids {sorted(unknown)}")
        return FactorSpace(tuple((f, d) for f, d in self.factors if f in keep))

    def position(self, factor_id: int) -> int:
        for i, (f, _) in enumerate(self.factors):
            if f == factor_id:
                return i
        raise UnknownFactor(f"unknown factor id {factor_id}")


class DensityOperator:
    """A Hermitian, unit-trace matrix on a FactorSpace."""

    def __init__(self, space: FactorSpace, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if space.dim > OPERATOR_DIM_CAP:
            raise DimensionCap(f"operator dimension {space.dim} exceeds cap {OPERATOR_DIM_CAP}")
        if matrix.shape != (space.dim, space.dim):
            raise InvalidOperator(f"matrix shape {matrix.shape} does not match space dim {space.dim}")
        herm = float(np.abs(matrix - matrix.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise InvalidOperator(f"not Hermitian: max deviation {herm:g}")
        tr = complex(np.trace(matrix))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidOperator(f"trace is {tr}, not 1")
        self.space = space
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @staticmethod
    def from_vector(space: FactorSpace, vec: np.ndarray) -> "DensityOperator":
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.shape != (space.dim,):
            raise InvalidOperator("vector length does not match space dimension")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > TRACE_TOL:
            raise InvalidOperator(f"vector norm is {nrm}, not 1")
        return DensityOperator(space, np.outer(vec, vec.conj()))

    def eigenvalues(self) -> np.ndarray:
        try:
            return np.linalg.eigvalsh(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise SpectrumFailure(str(exc)) from exc


@dataclass(frozen=True)
class Partition:
    """Assignment of every factor id to one of the region tags A, B, C, ENV."""

    assignment: dict[int, str]

    def __post_init__(self):
        for f, tag in self.assignment.items():
            if tag not in REGIONS:
                raise MalformedInput(f"factor {f} tagged {tag!r}; tags must be one of {REGIONS}")

    def region(self, *tags: str) -> tuple[int, ...]:
        want = set(tags)
        return tuple(sorted(f for f, t in self.assignment.items() if t in want))

    def validate_for(self, space: FactorSpace) -> None:
        missing = set(space.ids) - set(self.assignment)
        if missing:
            raise MalformedInput(f"partition misses factors {sorted(missing)}")


@dataclass(frozen=True)
class SectorFamily:
    """Labeled density operators on a common factor space."""

    labels: tuple[str, ...]
    states: dict[str, DensityOperator]
    base_label: str

    def __post_init__(self):
        if set(self.labels) != set(self.states):
            raise MalformedInput("family labels do not match its states")
        if self.base_label not in self.labels:
            raise MalformedInput(f"base label {self.base_label!r} not in family")
        spaces = {s.space.factors for s in self.states.values()}
        if len(spaces) != 1:
            raise MalformedInput("family states live on different factor spaces")

    @property
    def space(self) -> FactorSpace:
        return self.states[self.base_label].space


# ---------------------------------------------------------------------------
# core operations


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduce to the kept factors.  Kept factors stay in ascending-id order."""
    sub = rho.space.subspace(keep)
    if sub.factors == rho.space.factors:
        return rho
    k = len(rho.space.factors)
    dims = rho.space.dims
    keep_pos = [rho.space.position(f) for f in sub.ids]
    tensor = rho.matrix.reshape(dims + dims)
    ket = list(range(k))
    bra = [i + k if i in keep_pos else i for i in range(k)]
    out_subs = [i for i in keep_pos] + [i + k for i in keep_pos]
    reduced = np.einsum(tensor, ket + bra, out_subs)
    d = sub.dim
    return DensityOperator(sub, reduced.reshape(d, d))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S = -sum lambda log lambda over the clipped spectrum, in nats."""
    lam = rho.eigenvalues()
    if float(lam.min()) < EIG_FLOOR:
        raise InvalidOperator(f"eigenvalue {lam.min():g} below positivity floor {EIG_FLOOR:g}")
    lam = lam[lam >= EIG_CLIP]
    return float(-(lam * np.log(lam)).sum())


def conditional_mutual_information(rho: DensityOperator, part: Partition) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC), ENV traced out first."""
    part.validate_for(rho.space)
    abc = partial_trace(rho, part.region("A", "B", "C"))
    s_ab = von_neumann_entropy(partial_trace(abc, part.region("A", "B")))
    s_bc = von_neumann_entropy(partial_trace(abc, part.region("B", "C")))
    s_b = von_neumann_entropy(partial_trace(abc, part.region("B")))
    s_abc = von_neumann_entropy(abc)
    return s_ab + s_bc - s_b - s_abc


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma (exact, via the eigenvalues of the difference)."""
    if rho.space.factors != sigma.space.factors:
        raise MalformedInput("operators live on different spaces")
    diff = rho.matrix - sigma.matrix
    try:
        lam = np.linalg.eigvalsh(diff)
    except np.linalg.LinAlgError as exc:
        raise SpectrumFailure(str(exc)) from exc
    return float(0.5 * np.abs(lam).sum())


def overlap(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr(rho sigma), real part (the imaginary part vanishes for Hermitian inputs)."""
    if rho.space.factors != sigma.space.factors:
        raise MalformedInput("operators live on different spaces")
    return float(np.real(np.sum(rho.matrix * sigma.matrix.T)))


def random_density(space: FactorSpace, seed: int) -> DensityOperator:
    """Reproducible full-rank density operator: normalized G G^dagger with seeded Gaussian G."""
    if space.dim > OPERATOR_DIM_CAP:
        raise DimensionCap(f"dimension {space.dim} exceeds cap {OPERATOR_DIM_CAP}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityOperator(space, m)


# pure-state fast path: region entropies from singular values of the reshaped vector


def vector_region_entropy(space: FactorSpace, vec: np.ndarray, keep: Iterable[int]) -> float:
    """Entropy of the reduction of a pure state, via SVD of the reshaped vector."""
    vec = np.asarray(vec, dtype=complex).ravel()
    if space.dim > VECTOR_DIM_CAP:
        raise DimensionCap(f"vector dimension {space.dim} exceeds cap {VECTOR_DIM_CAP}")
    if vec.shape != (space.dim,):
        raise InvalidOperator("vector length does not match space dimension")
    sub = space.subspace(keep)
    keep_pos = [space.position(f) for f in sub.ids]
    rest_pos = [i for i in range(len(space.factors)) if i not in keep_pos]
    tensor = vec.reshape(space.dims)
    tensor = np.transpose(tensor, keep_pos + rest_pos)
    dk = int(np.prod([space.dims[i] for i in keep_pos], initial=1))
    try:
        sv = np.linalg.svd(tensor.reshape(dk, -1), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectrumFailure(str(exc)) from exc
    lam = sv**2
    lam = lam[lam >= EIG_CLIP]
    return float(-(lam * np.log(lam)).sum())


def vector_cmi(space: FactorSpace, vec: np.ndarray, part: Partition) -> float:
    """I(A:C|B) for a globally pure state given as a vector (ENV allowed)."""
    part.validate_for(space)
    env = part.region("ENV")
    if env:
        # reductions of |psi><psi| are computed directly from the vector
        def s_of(tags):
            return vector_region_entropy(space, vec, part.region(*tags))

        s_ab = s_of(("A", "B"))
        s_bc = s_of(("B", "C"))
        s_b = s_of(("B",))
        # S(ABC) of the reduced state: complement trick is unavailable, fall
        # back to the dense reduction (dim must be within the operator cap)
        rho = DensityOperator.from_vector(space, vec)
        s_abc = von_neumann_entropy(partial_trace(rho, part.region("A", "B", "C")))
        return s_ab + s_bc - s_b - s_abc
    s_ab = vector_region_entropy(space, vec, part.region("A", "B"))
    s_bc = vector_region_entropy(space, vec, part.region("B", "C"))
    s_b = vector_region_entropy(space, vec, part.region("B"))
    return s_ab + s_bc - s_b  # S(ABC) = 0 for a pure global state


# ---------------------------------------------------------------------------
# local unitaries


@dataclass(frozen=True)
class LocalUnitary:
    """A unitary supported on a subset of factors."""

    factor_ids: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d = m.shape[0]
        if m.shape != (d, d):
            raise MalformedInput("unitary must be square")
        if float(np.abs(m @ m.conj().T - np.eye(d)).max()) > 1e-10:
            raise MalformedInput("matrix is not unitary")


def apply_local_unitary(rho: DensityOperator, lu: LocalUnitary) -> DensityOperator:
    """Conjugate rho by a unitary acting on the given factors."""
    space = rho.space
    pos = [space.position(f) for f in lu.factor_ids]
    sub_dims = [space.dims[i] for i in pos]
    if int(np.prod(sub_dims)) != lu.matrix.shape[0]:
        raise MalformedInput("unitary dimension does not match its factors")
    k = len(space.factors)
    u_tensor = lu.matrix.reshape(sub_dims + sub_dims)
    t = rho.matrix.reshape(space.dims + space.dims)
    # U rho: contract the ket axes at pos
    n_act = len(pos)
    u_in = list(range(2 * k, 2 * k + n_act)) + pos
    t_subs = list(range(2 * k))
    out = t_subs.copy()
    for i, p in enumerate(pos):
        out[p] = 2 * k + i
    t1 = np.einsum(u_tensor, u_in, t, t_subs, out)
    # rho U^dagger: contract the bra axes at pos with conj(U)
    u_in2 = list(range(2 * k, 2 * k + n_act)) + [p + k for p in pos]
    out2 = t_subs.copy()
    for i, p in enumerate(pos):
        out2[p + k] = 2 * k + i
    t2 = np.einsum(np.conj(u_tensor), u_in2, t1, t_subs, out2)
    d = space.dim
    return DensityOperator(space, t2.reshape(d, d))


# ---------------------------------------------------------------------------
# sector-family checkers


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one family checker."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    details: dict = field(default_factory=dict)
    violations: tuple = ()


def check_global_distinguishability(fam: SectorFamily, part: Partition) -> CheckReport:
    """Pairwise overlaps Tr(rho^a_ABC rho^b_ABC); passes iff all < 1e-10."""
    part.validate_for(fam.space)
    abc = part.region("A", "B", "C")
    reduced = {a: partial_trace(fam.states[a], abc) for a in fam.labels}
    overlaps = {}
    violations = []
    worst = 0.0
    for i, a in enumerate(fam.labels):
        for b in fam.labels[i + 1:]:
            val = overlap(reduced[a], reduced[b])
            overlaps[(a, b)] = val
            worst = max(worst, abs(val))
            if abs(val) >= ORTHOGONALITY_TOL:
                violations.append((a, b, val))
    return CheckReport(
        name="global_distinguishability",
        passed=not violations,
        worst=worst,
        tolerance=ORTHOGONALITY_TOL,
        details={"overlaps": overlaps},
        violations=tuple(violations),
    )


def check_local_indistinguishability(fam: SectorFamily, part: Partition) -> CheckReport:
    """Trace distances between AB and between BC reductions; passes iff all < 1e-10."""
    part.validate_for(fam.space)
    worst = 0.0
    violations = []
    distances = {}
    for tags in (("A", "B"), ("B", "C")):
        region = part.region(*tags)
        reduced = {a: partial_trace(fam.states[a], region) for a in fam.labels}
        key = "".join(tags)
        for i, a in enumerate(fam.labels):
            for b in fam.labels[i + 1:]:
                dist = trace_distance(reduced[a], reduced[b])
                distances[(key, a, b)] = dist
                worst = max(worst, dist)
                if dist >= REDUCTION_TOL:
                    violations.append((key, a, b, dist))
    return CheckReport(
        name="local_indistinguishability",
        passed=not violations,
        worst=worst,
        tolerance=REDUCTION_TOL,
        details={"distances": distances},
        violations=tuple(violations),
    )


def _check_thinning(part_full: Partition, part_thinned: Partition) -> None:
    for f, tag in part_full.assignment.items():
        new = part_thinned.assignment.get(f)
        if new is None:
            raise MalformedInput(f"thinned partition misses factor {f}")
        if new != tag and not (tag == "A" and new == "ENV"):
            raise MalformedInput(
                f"thinning may only move A factors to ENV; factor {f} went {tag} -> {new}"
            )


def check_fusion_property(
    fam: SectorFamily,
    part_full: Partition,
    part_thinned: Partition,
    W: LocalUnitary,
    s: str,
    fp: FusionProbabilities,
) -> CheckReport:
    """Compare (W rho^a W+)_{A'BC} against sum_b p[s,a,b] rho^b_{A'BC} for every a.

    W must be supported on factors tagged A in the full partition; the
    thinned partition reassigns some A factors to ENV.  Passes iff every
    trace distance is below 1e-9.
    """
    part_full.validate_for(fam.space)
    part_thinned.validate_for(fam.space)
    _check_thinning(part_full, part_thinned)
    a_factors = set(part_full.region("A"))
    outside = set(W.factor_ids) - a_factors
    if outside:
        raise SupportViolation(f"unitary acts on factors {sorted(outside)} outside region A")
    if tuple(fp.labels) != tuple(fam.labels):
        raise MalformedInput("fusion probability labels do not match the family")
    region = part_thinned.region("A", "B", "C")
    reduced = {a: partial_trace(fam.states[a], region) for a in fam.labels}
    si = _label_index(fp.labels, s)
    distances = {}
    violations = []
    worst = 0.0
    for ai, a in enumerate(fam.labels):
        conj = partial_trace(apply_local_unitary(fam.states[a], W), region)
        mix = sum(fp.p[si, ai, bi] * reduced[b].matrix for bi, b in enumerate(fam.labels))
        target = DensityOperator(reduced[a].space, mix)
        dist = trace_distance(conj, target)
        distances[a] = dist
        worst = max(worst, dist)
        if dist >= FUSION_TOL:
            violations.append((a, dist))
    return CheckReport(
        name="fusion_property",
        passed=not violations,
        worst=worst,
        tolerance=FUSION_TOL,
        details={"distances": distances, "string_label": s},
        violations=tuple(violations),
    )


def mixture_cmi_decomposition(fam: SectorFamily, part: Partition, p: AnyonDistribution) -> CheckReport:
    """Check I(A:C|B)_lambda = sum_a p_a I_a - H(p) for lambda = sum_a p_a rho^a.

    Requires the family to pass global distinguishability and local
    indistinguishability on this partition first (the identity is only
    guaranteed then); raises PremiseViolated otherwise.  Also reports the
    margin of the averaged inequality sum_a p_a I_a - H(p) >= 0.
    """
    if tuple(p.labels) != tuple(fam.labels):
        raise MalformedInput("distribution labels do not match the family")
    for premise in (check_global_distinguishability(fam, part), check_local_indistinguishability(fam, part)):
        if not premise.passed:
            raise PremiseViolated(f"family fails {premise.name} (worst {premise.worst:g})")
    lam_matrix = sum(p.of(a) * fam.states[a].matrix for a in fam.labels)
    lam = DensityOperator(fam.space, lam_matrix)
    i_lambda = conditional_mutual_information(lam, part)
    i_each = {a: conditional_mutual_information(fam.states[a], part) for a in fam.labels}
    avg = sum(p.of(a) * i_each[a] for a in fam.labels)
    h = p.entropy()
    defect = abs(i_lambda - (avg - h))
    margin = avg - h
    passed = defect < MIXTURE_TOL and margin >= -MIXTURE_TOL
    return CheckReport(
        name="mixture_cmi_decomposition",
        passed=passed,
        worst=defect,
        tolerance=MIXTURE_TOL,
        details={
            "cmi_mixture": i_lambda,
            "cmi_sectors": i_each,
            "average": avg,
            "shannon": h,
            "averaged_inequality_margin": margin,
        },
    )


# ---------------------------------------------------------------------------
# ring families: sector states, fusion shift and dense export

DENSE_CAP = 2**14


@dataclass(frozen=True)
class RingSectorState:
    """Uniform mixture over {h in Z_q^N : sum h = sector mod q}, held implicitly."""

    spec: RingSpec
    sector: int

    def __post_init__(self):
        if not 0 <= self.sector < self.spec.q:
            raise MalformedInput(f"sector {self.sector} outside Z_{self.spec.q}")

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
        return RingSectorState(self.spec, (self.sector + s) % self.spec.q)


@dataclass(frozen=True)
class RingFamily:
    """All q sector states over one ring geometry."""

    spec: RingSpec
    states: tuple[RingSectorState, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(str(a) for a in range(self.spec.q))


def build_family(spec: RingSpec) -> RingFamily:
    """The q sector states of a ring geometry."""
    states = tuple(RingSectorState(spec, a) for a in range(spec.q))
    return RingFamily(spec=spec, states=states)


def counting_entropy(spec: RingSpec, n_region_sites: int) -> float:
    """S of a region in nats; integer counting with the log applied last."""
    return entropy_coefficient(spec, n_region_sites) * math.log(spec.q)


def fusion_unitary(spec: RingSpec, s: int, site: int, removed_sites) -> "RingShift":
    """Shift h_site by s; the site must be one removed by the thinning (A minus A').

    Conjugation by the shift maps sector a exactly to sector (s + a) mod q.
    """
    a_sites = set(spec.region_sites("A"))
    removed = set(removed_sites)
    if not removed <= a_sites:
        raise MalformedInput("removed sites must lie in A")
    if site not in a_sites:
        raise MalformedInput(f"site {site} is not in A")
    if site not in removed:
        raise SiteInThinnedRegion(f"site {site} is retained in the thinned region A'")
    return RingShift(q=spec.q, s=s % spec.q, site=site)


@dataclass(frozen=True)
class RingShift:
    """The permutation h_site -> h_site + s (mod q) on one site."""

    q: int
    s: int
    site: int

    def apply(self, state: RingSectorState) -> RingSectorState:
        return state.shifted(self.s)

    def compose(self, other: "RingShift") -> "RingShift":
        if other.site != self.site or other.q != self.q:
            raise MalformedInput("can only compose shifts on the same site")
        return RingShift(q=self.q, s=(self.s + other.s) % self.q, site=self.site)

    def as_local_unitary(self) -> LocalUnitary:
        m = np.zeros((self.q, self.q))
        for h in range(self.q):
            m[(h + self.s) % self.q, h] = 1.0
        return LocalUnitary((self.site,), m)


def thinned_sites(spec: RingSpec, steps: int) -> tuple[int, ...]:
    """The A sites removed by `steps` thinnings (lowest A indices first)."""
    a_sites = spec.region_sites("A")
    if steps < 0 or steps > len(a_sites):
        raise InsufficientWidth(f"cannot remove {steps} sites from an A arc of {len(a_sites)}")
    return a_sites[:steps]


def ring_partition(spec: RingSpec, removed: tuple[int, ...] = ()) -> Partition:
    """Site -> region tags; removed A sites go to ENV."""
    assignment = {}
    for tag in ("A", "B1", "C", "B2"):
        for site in spec.region_sites(tag):
            assignment[site] = "B" if tag in ("B1", "B2") else tag
    for site in removed:
        if assignment.get(site) != "A":
            raise MalformedInput(f"removed site {site} is not in A")
        assignment[site] = "ENV"
    return Partition(assignment)


def dense_state(state: RingSectorState) -> DensityOperator:
    """Diagonal density operator of one sector (DimensionCap guarded)."""
    spec = state.spec
    dim = spec.q**spec.n_sites
    if dim > DENSE_CAP:
        raise DimensionCap(f"ring dimension {dim} exceeds dense cap {DENSE_CAP}")
    space = FactorSpace.of_dims([spec.q] * spec.n_sites)
    diag = np.zeros(dim)
    weight = 1.0 / state.support_size
    for config in state.enumerate_support():
        index = 0
        for h in config:  # site 0 is the most significant axis
            index = index * spec.q + h
        diag[index] = weight
    return DensityOperator(space, np.diag(diag).astype(complex))


def dense_family(fam: RingFamily) -> SectorFamily:
    """Dense export of the whole family for the dense checkers."""
    states = {str(s.sector): dense_state(s) for s in fam.states}
    return SectorFamily(labels=fam.labels, states=states, base_label="0")


# ---------------------------------------------------------------------------
# stabilizer states: dense generators, frame phases and reductions


def dense_generators(source) -> np.ndarray:
    """The full n_rows x 2 n_edges matrix of a state or of local supports
    (`oracles.SparseGenerators`), refused above GENS_BYTES_CAP.  A state's
    column graph is read at its prime: +1 on row u[c] and -1 on row v[c] of
    column c, the sentinel's row left out."""
    gens = getattr(source, "gens", source)
    st.check_dense_cap(gens.n_rows, 2 * gens.n_edges)
    if isinstance(gens, st.ColumnGraph):
        out = np.zeros((gens.n_rows + 1, 2 * gens.n_edges), dtype=np.int64)
        col = np.arange(2 * gens.n_edges)
        out[gens.u, col] = 1
        out[gens.v, col] = source.lattice.prime - 1
        return out[:-1]
    out = np.zeros((gens.n_rows, 2 * gens.n_edges), dtype=np.int64)
    rows, slots = np.nonzero(gens.vals)
    out[rows, gens.cols[rows, slots]] = gens.vals[rows, slots]
    return out


def frame_phases(state: st.StabilizerState) -> np.ndarray:
    """Per-generator phase exponents gx . t_z - gz . t_x mod p."""
    return st._row_phases(state.lattice, np.arange(state.n), [state.frame])[0] % state.lattice.prime


def region_density(state: st.StabilizerState, region) -> DensityOperator:
    """Dense export of a reduction: rho_R = p^{-|R|} sum over the restricted group.

    Each element v of the group enters as omega^phase X^{v_x} Z^{v_z}, with
    its phase read from the frame.  A region whose p^|R| x p^|R| complex
    matrix would exceed GENS_BYTES_CAP is refused before anything is built.
    The cap and `restricted_canonical` are read from `teelab.stabilizer` at
    call time, so a test can patch either there.
    """
    edges = st._edges(state, region)
    n = len(edges)
    p = state.lattice.prime
    dim = p**n
    if 16 * dim * dim > st.GENS_BYTES_CAP:
        raise DimensionCap(f"p^|R| = {dim}: the dense reduction is over the {st.GENS_BYTES_CAP}-byte cap")
    _, vecs = st.restricted_canonical(state, edges)
    frame = state.frame[st._region_columns(state, edges)]
    omega = np.exp(2j * np.pi / p)
    xmat = np.roll(np.eye(p, dtype=complex), 1, axis=0)  # X|j> = |j + 1>
    zmat = np.diag(omega ** np.arange(p))

    def embed(vec, phase):
        op = np.array([[omega**phase]])
        for k in range(n):
            local = np.linalg.matrix_power(xmat, int(vec[k])) @ np.linalg.matrix_power(
                zmat, int(vec[n + k])
            )
            op = np.kron(op, local)
        return op

    total = np.zeros((dim, dim), dtype=complex)
    for exps in iproduct(range(p), repeat=len(vecs)):
        vec = np.array(exps, dtype=np.int64) @ vecs % p
        total += embed(vec, int(st._pairing(vec, frame) % p))
    total /= dim
    space = FactorSpace(tuple((int(e), p) for e in edges))
    return DensityOperator(space, total)
