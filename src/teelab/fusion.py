"""Anyon fusion algebra: quantum dimensions, fusion probabilities, fixed points.

All numerics are in nats.  Structural identities are checked to 1e-12,
spectral quantities to 1e-10 (double precision with at most a few dozen
labels).  Everything here is a pure function of immutable inputs.  Each
category and its spectra are built once per process: the bundled, Z_n and
Z_p x Z_p categories are cached, and a category's dimensions, fusion
probabilities and fixed point are kept on the objects they were computed
from (`_memo`), so they are freed with them.  Associativity is checked
exactly on N and as a float residual on the fusion probabilities by the same
two float64 matrix products, both bounded before N is allocated
(FLOAT_EXACT_BOUND, CATEGORY_BYTES_CAP).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    ConditionOneViolated,
    DegenerateDistribution,
    DimensionCap,
    InvalidCategory,
    MalformedInput,
    NonConvergence,
)

STRUCT_TOL = 1e-12
SPECTRAL_TOL = 1e-10
ITERATION_CAP = 100_000
FIXED_POINT_STEP_TOL = 1e-14
# Float64 products of an n-label integer table are exact while every partial
# sum stays below 2^53, n * max(N)^2 < FLOAT_EXACT_BOUND, so `load_category`
# refuses a larger multiplicity while it parses.
FLOAT_EXACT_BOUND = 2**53
# Byte cap on checking a category of n labels, charged at CATEGORY_LABEL_BYTES
# n^4 bytes.  Each associativity check holds two (n^2, n^2) float64 products,
# and the integer check a boolean n^4 array beside them: the tracemalloc peak of
# building Z_n is 17.18, 17.16 and 17.13 n^4 bytes at n = 49, 53 and 63 (94, 129
# and 257 MiB).  62 labels is the most it admits.
CATEGORY_BYTES_CAP = 2**28
CATEGORY_LABEL_BYTES = 18


# ---------------------------------------------------------------------------
# domain types


def _memo_field():
    return field(default_factory=dict, init=False, repr=False, compare=False)


def _memo(owner, key: str, compute):
    """`compute()` once per `owner`: the result is kept in `owner._memo`, so
    it is freed with the owner (no module-level table keeps it alive)."""
    if key not in owner._memo:
        owner._memo[key] = compute()
    return owner._memo[key]


def _label_index(labels: tuple[str, ...], label: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise MalformedInput(f"unknown label {label!r}") from None


@dataclass(frozen=True)
class FusionCategory:
    """A fusion ring: ordered labels, a distinguished unit, duals, and the
    multiplicity tensor N[a, b, c] = number of ways a x b fuses to c.

    Read-only (`dual` is a mapping proxy, `N` a non-writable array), since
    cached categories are shared by every caller in the process."""

    labels: tuple[str, ...]
    unit: str
    dual: Mapping[str, str]
    N: np.ndarray  # shape (n, n, n), non-negative integers
    name: str = "category"
    _memo: dict = _memo_field()

    def __post_init__(self):
        object.__setattr__(self, "dual", MappingProxyType(dict(self.dual)))
        self.N.setflags(write=False)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def dual_indices(self) -> np.ndarray:
        """dual_indices[a] = index of the dual of label a."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        return np.array([index[self.dual[lab]] for lab in self.labels], dtype=np.intp)


@dataclass(frozen=True)
class QuantumDims:
    """Per-label quantum dimensions d_a and the total dimension D = sqrt(sum d_a^2)."""

    labels: tuple[str, ...]
    d: np.ndarray
    total: float

    def __post_init__(self):
        self.d.setflags(write=False)

    def of(self, label: str) -> float:
        return float(self.d[_label_index(self.labels, label)])


@dataclass(frozen=True)
class FusionProbabilities:
    """p[s, a, b] = probability that independently created s and a fuse to b."""

    labels: tuple[str, ...]
    p: np.ndarray  # shape (n, n, n); rows over b sum to 1
    row_sum_residual: float = 0.0
    associativity_residual: float = 0.0
    _memo: dict = _memo_field()

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        n = len(self.labels)
        if p.shape != (n, n, n):
            raise MalformedInput(f"probability tensor shape {p.shape}, expected {(n, n, n)}")
        if not np.isfinite(p).all():
            raise MalformedInput("fusion probabilities must be finite")
        if float(p.min()) < -STRUCT_TOL:
            raise MalformedInput(f"negative fusion probability {float(p.min()):g}")
        if float(np.abs(p.sum(axis=2) - 1.0).max()) > 1e-9:
            raise MalformedInput("fusion probability rows must sum to 1")
        p.setflags(write=False)

    @property
    def n_labels(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class AnyonDistribution:
    """A probability distribution over anyon labels (normalized to 1e-12)."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (len(self.labels),):
            raise MalformedInput("distribution length does not match labels")
        if not np.isfinite(probs).all():
            raise MalformedInput("distribution entries must be finite")
        if probs.min() < -STRUCT_TOL:
            raise MalformedInput(f"negative probability {probs.min():g}")
        if abs(probs.sum() - 1.0) > STRUCT_TOL:
            raise MalformedInput(f"distribution sums to {probs.sum()!r}, not 1")
        probs.setflags(write=False)

    def of(self, label: str) -> float:
        return float(self.probs[_label_index(self.labels, label)])

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        q = self.probs[self.probs > 0]
        return float(-(q * np.log(q)).sum())

    @staticmethod
    def uniform(labels) -> "AnyonDistribution":
        n = len(labels)
        return AnyonDistribution(tuple(labels), np.full(n, 1.0 / n))


@dataclass(frozen=True)
class FixedPoint:
    """Result of the iterative fixed-point solve."""

    distribution: AnyonDistribution
    p_min: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ResidualReport:
    """Max deviation of sum_s p[s,a,b] q_s from q_b, with the worst (a, b) pair."""

    residual: float
    worst_pair: tuple[str, str]


# ---------------------------------------------------------------------------
# loading and validation


def _as_document(document) -> Mapping:
    if isinstance(document, Mapping):
        return document
    if isinstance(document, Path):
        try:
            return json.loads(document.read_text())
        except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or an int past the digit limit
            raise MalformedInput(f"cannot read category file {document}: {exc}") from exc
    if isinstance(document, str):
        text = document.strip()
        if text.startswith("{"):
            try:
                return json.loads(text)
            except ValueError as exc:
                raise MalformedInput(f"invalid JSON: {exc}") from exc
        return _as_document(Path(document))
    raise MalformedInput(f"unsupported document type {type(document).__name__}")


def load_category(document) -> FusionCategory:
    """Load and fully validate a fusion category from a JSON document.

    The document carries `labels` (array of strings), an optional `dual`
    map, and `N`, a nested map label -> label -> label -> multiplicity with
    absent entries meaning 0.  The unit is inferred from the multiplicity
    table; if `dual` is absent it is inferred from the unit channel.  A
    label set whose validation arrays would pass CATEGORY_BYTES_CAP is
    DimensionCap before the table is read, and a multiplicity m with
    n * m^2 >= FLOAT_EXACT_BOUND is MalformedInput before it is written.
    """
    doc = _as_document(document)
    if not isinstance(doc, Mapping) or "labels" not in doc or "N" not in doc:
        raise MalformedInput("category document needs 'labels' and 'N' fields")
    if not isinstance(doc["labels"], (list, tuple)):
        raise MalformedInput("'labels' must be an array")
    labels = tuple(str(x) for x in doc["labels"])
    if len(set(labels)) != len(labels):
        raise MalformedInput("duplicate labels")
    if not labels:
        raise MalformedInput("empty label set")
    n = len(labels)
    _charge_labels(n)
    idx = {lab: i for i, lab in enumerate(labels)}

    N = np.zeros((n, n, n), dtype=np.int64)
    table = doc["N"]
    if not isinstance(table, Mapping):
        raise MalformedInput("'N' must be a nested map")
    for a, row in table.items():
        if a not in idx:
            raise MalformedInput(f"unknown label {a!r} in N")
        if not isinstance(row, Mapping):
            raise MalformedInput(f"N[{a}] must be a map")
        for b, col in row.items():
            if b not in idx:
                raise MalformedInput(f"unknown label {b!r} in N[{a}]")
            if not isinstance(col, Mapping):
                raise MalformedInput(f"N[{a}][{b}] must be a map")
            for c, mult in col.items():
                if c not in idx:
                    raise MalformedInput(f"unknown label {c!r} in N[{a}][{b}]")
                if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
                    raise MalformedInput(f"N[{a}][{b}][{c}] = {mult!r} is not a non-negative integer")
                if n * mult**2 >= FLOAT_EXACT_BOUND:
                    raise MalformedInput(f"N[{a}][{b}][{c}] = {mult} is past the exact float64 bound n m^2 < 2^53")
                N[idx[a], idx[b], idx[c]] = mult

    dual_doc = doc.get("dual")
    dual = None
    if dual_doc is not None:
        if not isinstance(dual_doc, Mapping) or set(dual_doc) != set(labels):
            raise MalformedInput("'dual' must map every label")
        dual = {str(a): str(b) for a, b in dual_doc.items()}
        for b in dual.values():
            if b not in idx:
                raise MalformedInput(f"dual maps to unknown label {b!r}")

    name = str(doc.get("name", "category"))
    return _validate_category(labels, N, dual, name)


def _charge_labels(n: int) -> None:
    """Raise DimensionCap unless validating n labels fits CATEGORY_BYTES_CAP."""
    if CATEGORY_LABEL_BYTES * n**4 > CATEGORY_BYTES_CAP:
        raise DimensionCap(
            f"{n} labels: the associativity checks' n^4-entry arrays are over the {CATEGORY_BYTES_CAP}-byte cap"
        )


def _validate_category(labels, N, dual, name) -> FusionCategory:
    n = len(labels)
    delta = np.eye(n, dtype=np.int64)

    # unit label: N[u, a, b] = N[a, u, b] = delta_{ab}
    unit = None
    for u in range(n):
        if np.array_equal(N[u], delta) and np.array_equal(N[:, u, :], delta):
            unit = u
            break
    if unit is None:
        raise InvalidCategory("no unit label: no u with N[u,a,b] = N[a,u,b] = delta_ab")

    # dual: forced by the unit channel N[a, b, unit]
    unit_channel = N[:, :, unit]
    inferred = {}
    for a in range(n):
        partners = np.nonzero(unit_channel[a] == 1)[0]
        if len(partners) != 1 or unit_channel[a].sum() != 1:
            raise InvalidCategory(
                f"dual of {labels[a]!r} not determined: N[{labels[a]},b,{labels[unit]}] "
                f"row is {unit_channel[a].tolist()}, expected a single 1"
            )
        inferred[labels[a]] = labels[int(partners[0])]
    if dual is None:
        dual = inferred
    elif dual != inferred:
        bad = next(a for a in labels if dual[a] != inferred[a])
        raise InvalidCategory(
            f"declared dual {bad!r} -> {dual[bad]!r} contradicts unit channel "
            f"(N forces {bad!r} -> {inferred[bad]!r})"
        )
    for a in labels:
        if dual[dual[a]] != a:
            raise InvalidCategory(f"dual is not an involution at {a!r}")
    if dual[labels[unit]] != labels[unit]:
        raise InvalidCategory("dual of the unit is not the unit")

    failure = _associativity_failure(N)
    if failure is not None:
        a, b, c, d, lhs, rhs = failure
        raise InvalidCategory(
            "associativity fails at "
            f"({labels[a]},{labels[b]},{labels[c]},{labels[d]}): "
            f"sum_e N[{labels[a]},{labels[b]},e] N[e,{labels[c]},{labels[d]}] = {lhs} "
            f"but sum_f N[{labels[b]},{labels[c]},f] N[{labels[a]},f,{labels[d]}] = {rhs}"
        )

    return FusionCategory(labels=labels, unit=labels[unit], dual=dual, N=N, name=name)


def _associativity_products(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lhs[a,b,c,d] = sum_e T[a,b,e] T[e,c,d] and rhs[a,b,c,d] = sum_f T[b,c,f] T[a,f,d]
    over a float64 T, each one (n^2, n) @ (n, n^2) product."""
    n = T.shape[0]
    flat = T.reshape(n * n, n)
    lhs = (flat @ T.reshape(n, n * n)).reshape(n, n, n, n)
    # (b, c) x (a, d), reordered to (a, b, c, d)
    rhs = (flat @ T.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n)
    return lhs, rhs.transpose(2, 0, 1, 3)


def _associativity_failure(N: np.ndarray) -> tuple[int, int, int, int, int, int] | None:
    """First (a, b, c, d) in row-major order where sum_e N[a,b,e] N[e,c,d]
    differs from sum_f N[b,c,f] N[a,f,d], with the two sums; None if N is
    associative.

    The sums are `_associativity_products` of N in float64, exact for every
    table `load_category` admits (n * max(N)^2 < FLOAT_EXACT_BOUND).
    """
    lhs, rhs = _associativity_products(N.astype(np.float64))
    if np.array_equal(lhs, rhs):
        return None
    a, b, c, d = (int(i) for i in np.argwhere(lhs != rhs)[0])
    return a, b, c, d, int(lhs[a, b, c, d]), int(rhs[a, b, c, d])


def group_category(labels, product, name="group") -> FusionCategory:
    """Fusion category of a finite group from its (n, n) index table:
    N[a, b, product[a, b]] = 1, every other entry 0."""
    labels = tuple(labels)
    n = len(labels)
    _charge_labels(n)
    N = np.zeros((n, n, n), dtype=np.int64)
    a, b = np.indices((n, n))
    N[a, b, product] = 1
    return _validate_category(labels, N, None, name)


@functools.cache
def zn_category(n: int) -> FusionCategory:
    """Cyclic group Z_n with labels '0'..'n-1'; built once per n."""
    k = np.arange(n)
    return group_category(tuple(str(x) for x in k), np.add.outer(k, k) % n, name=f"z{n}")


def check_double_zn_order(p: int) -> None:
    """Raise unless `double_zn_category(p)` can label its anyons: p <= 9."""
    if p > 9:
        raise MalformedInput("two-digit labels only support p <= 9")


@functools.cache
def double_zn_category(p: int) -> FusionCategory:
    """Z_p x Z_p with labels 'cf' (charge digit, flux digit); p <= 9; built once per p.
    Label k is c = k // p, f = k % p, and each digit adds mod p."""
    check_double_zn_order(p)
    c, f = np.divmod(np.arange(p * p), p)
    product = np.add.outer(c, c) % p * p + np.add.outer(f, f) % p
    return group_category(tuple(f"{x}{y}" for x, y in zip(c, f)), product, name=f"double_z{p}")


_DATA_PACKAGE = "teelab.data.categories"


@functools.cache
def bundled_category_names() -> tuple[str, ...]:
    """Names of the categories shipped with the package, sorted."""
    files = resources.files(_DATA_PACKAGE)
    return tuple(sorted(f.name[:-5] for f in files.iterdir() if f.name.endswith(".json")))


def bundled_category(name: str) -> FusionCategory:
    """One of the bundled categories by name, loaded once per process.

    Only a name from `bundled_category_names()` is taken, so no other value
    reaches the file system or the cache key."""
    names = bundled_category_names()
    if not isinstance(name, str) or name not in names:
        raise MalformedInput(f"no bundled category {name!r}; available: {', '.join(names)}")
    return _load_bundled_category(name)


@functools.cache
def _load_bundled_category(name: str) -> FusionCategory:
    text = resources.files(_DATA_PACKAGE).joinpath(f"{name}.json").read_text()
    return load_category(json.loads(text))


# ---------------------------------------------------------------------------
# quantum dimensions


def _perron_root(mat: np.ndarray, rows: np.ndarray) -> float:
    """Spectral radius of a non-negative integer matrix, given its row sums.

    When every row sums to the same integer r it is r, exactly: the row sums
    of a non-negative matrix bound its spectral radius from below and above
    (Horn & Johnson, Matrix Analysis, Thm 8.1.22).  Every label of a group
    category (a permutation matrix, r = 1) and the unit of any category take
    this path.  Other matrices (Fibonacci tau, Ising sigma) take the largest
    modulus of their eigenvalues, which for a non-negative matrix is its
    Perron root: (1 + sqrt 5)/2 and sqrt 2 come out correctly rounded.
    """
    if (rows == rows[0]).all():
        return float(rows[0])
    return float(np.abs(np.linalg.eigvals(mat)).max())


def quantum_dimensions(cat: FusionCategory) -> QuantumDims:
    """Quantum dimension d_a = spectral radius of the fusion matrix (N_a)_{bc} = N[a,b,c].

    d_a is N_a's common row sum, exactly, when its rows all have one sum (so
    d_a = 1.0 for every abelian anyon), and the largest eigenvalue modulus
    of N_a otherwise (`_perron_root`).  Every label, either way, is then
    checked: sum_c N[a,b,c] d_c = d_a d_b to 1e-10 and d_a = d_{dual a}.
    Computed once per category object; later calls return the same dims.
    """
    return _memo(cat, "dims", lambda: _quantum_dimensions(cat))


def _quantum_dimensions(cat: FusionCategory) -> QuantumDims:
    rows = cat.N.sum(axis=2)  # rows[a, b] = sum_c N[a, b, c]
    d = np.array([_perron_root(mat, row) for mat, row in zip(cat.N, rows)])
    check = np.einsum("abc,c->ab", cat.N, d)
    residual = float(np.abs(check - np.outer(d, d)).max())
    if residual > SPECTRAL_TOL:
        raise InvalidCategory(f"dimension identity sum_c N[a,b,c] d_c = d_a d_b fails by {residual:g}")
    unequal = np.flatnonzero(np.abs(d - d[cat.dual_indices]) > SPECTRAL_TOL)
    if len(unequal):
        raise InvalidCategory(f"d_a != d_dual(a) at {cat.labels[unequal[0]]!r}")
    total = float(math.sqrt(float((d * d).sum())))
    return QuantumDims(labels=cat.labels, d=d, total=total)


def fusion_probabilities(cat: FusionCategory) -> FusionProbabilities:
    """p[s,a,b] = d_b N[s,a,b] / (d_s d_a) over the category's own `quantum_dimensions`;
    rows normalized and associative to 1e-12.  Computed once per category object."""
    return _memo(cat, "fp", lambda: _fusion_probabilities(cat, quantum_dimensions(cat)))


def _fusion_probabilities(cat: FusionCategory, dims: QuantumDims) -> FusionProbabilities:
    d = dims.d
    p = cat.N * d[None, None, :] / (d[:, None, None] * d[None, :, None])
    row_residual = float(np.abs(p.sum(axis=2) - 1.0).max())
    lhs, rhs = _associativity_products(p)
    assoc_residual = float(np.abs(np.subtract(lhs, rhs, out=lhs), out=lhs).max())
    if row_residual > STRUCT_TOL:
        raise InvalidCategory(f"fusion probability rows sum to 1 +- {row_residual:g}")
    if assoc_residual > STRUCT_TOL:
        raise InvalidCategory(f"fusion probabilities violate associativity by {assoc_residual:g}")
    return FusionProbabilities(
        labels=cat.labels, p=p, row_sum_residual=row_residual, associativity_residual=assoc_residual
    )


# ---------------------------------------------------------------------------
# the fixed point of the fusion convolution


def _power_iterate(M: np.ndarray, what: str) -> tuple[np.ndarray, int]:
    """Stationary row vector of M by power iteration from uniform, with the step count."""
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    for it in range(1, ITERATION_CAP + 1):
        nxt = v @ M
        nxt = nxt / nxt.sum()
        step = float(np.abs(nxt - v).max())
        v = nxt
        if step < FIXED_POINT_STEP_TOL:
            return v, it
    raise NonConvergence(f"{what} did not converge in {ITERATION_CAP} steps")


def fixed_point_iterative(fp: FusionProbabilities) -> FixedPoint:
    """Unique distribution q with  p_uniform * q = q, by iterating the convolution.

    Requires every entry of M[a,b] = mean_s fp[s,a,b] to be strictly
    positive; then the Perron-Frobenius theorem guarantees existence and
    uniqueness of q, and q is strictly positive.  Computed once per `fp`
    object, which a category's `fusion_probabilities` keeps on the category.
    """
    return _memo(fp, "fixed_point", lambda: _fixed_point_iterative(fp))


def _fixed_point_iterative(fp: FusionProbabilities) -> FixedPoint:
    M = fp.p.mean(axis=0)  # M[a, b]
    zeros = np.argwhere(M <= 0.0)
    if len(zeros):
        a, b = zeros[0]
        raise ConditionOneViolated(
            f"averaged fusion matrix entry M[{fp.labels[a]},{fp.labels[b]}] = 0: "
            "no string label connects these sectors"
        )
    # (p_uniform * q)_b = sum_a M[a,b] q_a
    q, it = _power_iterate(M, "fixed-point iteration")
    residual = float(np.abs(np.einsum("sab,s->ab", fp.p, q) - q[None, :]).max())
    return FixedPoint(
        distribution=AnyonDistribution(fp.labels, q),
        p_min=float(q.min()),
        iterations=it,
        residual=residual,
    )


def closed_form_fixed_point(dims: QuantumDims) -> AnyonDistribution:
    """The closed-form fixed point p*_a = d_a^2 / D^2, divided by the sum
    D^2 = sum_b d_b^2 itself rather than by `dims.total` squared, which the
    square root does not round-trip: with d exact, z2 gets 0.5 and z5 0.2."""
    squares = dims.d**2
    return AnyonDistribution(dims.labels, squares / float(squares.sum()))


def verify_fixed_point_identity(fp: FusionProbabilities, p_star: AnyonDistribution) -> ResidualReport:
    """Max over (a, b) of |sum_s fp[s,a,b] p*_s - p*_b|, with the worst pair."""
    if p_star.labels != fp.labels:
        raise MalformedInput("distribution labels do not match fusion probabilities")
    defect = np.abs(np.einsum("sab,s->ab", fp.p, p_star.probs) - p_star.probs[None, :])
    a, b = np.unravel_index(int(defect.argmax()), defect.shape)
    return ResidualReport(residual=float(defect[a, b]), worst_pair=(fp.labels[a], fp.labels[b]))


# ---------------------------------------------------------------------------
# bound constants


def bound_constant(p_star: AnyonDistribution) -> float:
    """Finite-size constant K = 1 + (2/pmin^2) log(n_labels / pmin), natural log."""
    pmin = float(p_star.probs.min())
    if pmin <= 0.0:
        raise DegenerateDistribution("fixed-point distribution has a zero entry")
    return 1.0 + (2.0 / pmin**2) * math.log(len(p_star.labels) / pmin)


def tee_lower_bound(a0: str, p_star: AnyonDistribution, n: int, K: float) -> float:
    """Lower bound log(1/p*_{a0}) - K/sqrt(n) on the conditional mutual information.

    Strictly increasing in n; its n -> infinity limit is 2 log(D/d_{a0})
    when p* is the closed form d_a^2/D^2.
    """
    if n < 1:
        raise MalformedInput("n must be a positive integer")
    pa = p_star.of(a0)
    if pa <= 0.0:
        raise DegenerateDistribution(f"p*_{a0} = 0")
    return math.log(1.0 / pa) - K / math.sqrt(n)
