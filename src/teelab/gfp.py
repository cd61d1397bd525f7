"""Exact linear algebra over prime fields F_p, plus phase-tracked Pauli rows.

Matrices are numpy integer arrays with entries reduced mod p.  Ranks,
nullspaces and canonical bases all come from one exact elimination,
`rref_mod_p` (no floating point anywhere).

A qudit Pauli on n sites is stored as a length-2n vector v = (x | z) over F_p
together with a phase exponent phi in Z_p, and denotes the operator

    omega^phi * X^{x_1}...X^{x_n} * Z^{z_1}...Z^{z_n},   omega = exp(2 pi i / p),

i.e. all X factors written to the left of all Z factors.  Under this
convention the product rule is

    (u, phi) * (v, psi) = (u + v, phi + psi + u_z . v_x),

which is exact for every prime p including 2 (no fourth roots of unity are
ever needed: Y never appears as a generator, only as an XZ product).

Stabilizer phases are read from a Pauli frame, so `left_nullspace_mod_p` and
the phase-tracked rows below are kept only as the tests' reference oracles.
"""

from __future__ import annotations

import numpy as np


def inverse_mod_p(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue mod prime p."""
    return pow(int(a) % p, p - 2, p)


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Exact rank of an integer matrix over F_p."""
    if np.size(mat) == 0:
        return 0
    return len(rref_mod_p(mat, p)[1])


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p; returns (rref with zero rows dropped, pivot columns)."""
    m = np.asarray(mat, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        if rank >= nrows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * inverse_mod_p(m[rank, col], p)) % p
        others = np.nonzero(m[:, col])[0]
        others = others[others != rank]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, col], m[rank])) % p
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {v : mat @ v = 0 mod p}.  Shape (dim, ncols)."""
    m = np.asarray(mat, dtype=np.int64) % p
    ncols = m.shape[1]
    if m.size == 0:
        return np.eye(ncols, dtype=np.int64)
    red, pivots = rref_mod_p(m, p)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    basis = np.zeros((int(free.sum()), ncols), dtype=np.int64)
    basis[:, free] = np.eye(len(basis), dtype=np.int64)
    basis[:, pivots] = (-red[:, free]).T % p
    return basis


def left_nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {c : c @ mat = 0 mod p} as rows.  Test-only oracle."""
    return nullspace_mod_p(np.asarray(mat).T, p)


# ---------------------------------------------------------------------------
# phase-tracked Pauli rows: test-only oracles


def pauli_mul(u: np.ndarray, phi_u: int, v: np.ndarray, phi_v: int, n: int, p: int):
    """Product of two Pauli rows in the XZ-ordered convention."""
    cross = int(u[n:] @ v[:n]) % p
    return (u + v) % p, (phi_u + phi_v + cross) % p


def pauli_pow(u: np.ndarray, phi: int, k: int, n: int, p: int):
    """k-th power of a Pauli row: (u,phi)^k = (k u, k phi + (z.x) k(k-1)/2).

    Reducing k mod p is only valid for elements of a commuting stabilizer
    group (there z.x is forced even when p = 2), which is the only use here.
    """
    k = int(k) % p
    zx = int(u[n:] @ u[:n])
    phase = (k * phi + zx * (k * (k - 1) // 2)) % p
    return (k * u) % p, phase


def combine_rows(gens: np.ndarray, phases: np.ndarray, coeffs: np.ndarray, n: int, p: int):
    """Form prod_i row_i^{c_i} with exact phase.  Rows must pairwise commute."""
    vec = np.zeros(2 * n, dtype=np.int64)
    phi = 0
    for i in np.nonzero(coeffs % p)[0]:
        v, f = pauli_pow(gens[i], int(phases[i]), int(coeffs[i]) % p, n, p)
        vec, phi = pauli_mul(vec, phi, v, f, n, p)
    return vec, phi


def phased_rref(rows: list[tuple[np.ndarray, int]], n: int, p: int) -> list[tuple[np.ndarray, int]]:
    """Canonical form of a list of commuting phased Pauli rows.

    Performs RREF on the symplectic vectors while carrying phases through
    every row operation, then sorts by pivot column.  Two commuting phased
    row sets generate the same phased group iff their canonical forms are
    identical.

    Test-only reference implementation: the library compares reductions by
    the linear phase test (on row-cluster sums in the assumption checks, on a
    phase-free basis in `stabilizer.reduction_relation`), and the tests build
    their oracle for both from this form (`_phased_canonical`).
    """
    work = [(np.array(v, dtype=np.int64) % p, int(f) % p) for v, f in rows]
    work = [(v, f) for v, f in work if v.any() or f]
    ncols = 2 * n
    out: list[tuple[np.ndarray, int]] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][0][col] % p:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        v, f = work[rank]
        inv = inverse_mod_p(int(v[col]), p)
        if inv != 1:
            v, f = pauli_pow(v, f, inv, n, p)
            work[rank] = (v, f)
        for i in range(len(work)):
            if i == rank:
                continue
            c = int(work[i][0][col]) % p
            if c:
                neg, negf = pauli_pow(v, f, (-c) % p, n, p)
                work[i] = pauli_mul(work[i][0], work[i][1], neg, negf, n, p)
        rank += 1
        if rank == len(work):
            break
    out = work[:rank]
    out.sort(key=lambda vf: next((j for j in range(ncols) if vf[0][j]), ncols))
    return out
