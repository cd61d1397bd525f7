"""Exact TEE computation on qudit (prime p) toric codes via stabilizer ranks.

Geometry.  A width x height lattice of plaquettes with one Z_p qudit per
edge, smooth boundaries on all four sides.  Positions are tracked in doubled
integer coordinates: vertex (x,y) sits at (2x, 2y), a horizontal edge at
(2x+1, 2y), a vertical edge at (2x, 2y+1), a plaquette center at
(2x+1, 2y+1).  Regions are half-open boxes in these coordinates and own the
edges whose midpoints they contain, so region membership is exact integer
arithmetic and a partition of the plane has no gaps or double counting.

States.  Every state built here is the ground state conjugated by a Pauli
string, so it is stored as the ground generators over F_p in symplectic
(X-part | Z-part) layout plus that string's vector t, the Pauli frame.  In
the ground state every stabilizer element has phase 0: its X part is a
product of vertex stars, its Z part a product of plaquettes, the XZ-ordered
convention writes X first, and the X and Z parts of the group are mutually
orthogonal.  Conjugation by t shifts the phase of element v by the
symplectic pairing, so with frame t the element v carries the phase
v_x . t_z - v_z . t_x mod p.  Anyon sectors are produced by conjugating the
ground state with open string operators anchored at the origin: a Z-type
string t_e along lattice edges for electric charge and an X-type string
t_m on dual edges for magnetic flux, both along the origin's row.  The
antiparticle is parked on the (east) lattice boundary.  The two strings sit
on disjoint (Z and X) columns, so sector (c, f) has the frame c t_e + f t_m
mod p, and a family of p^2 frames is formed from the two strings by
linearity; the CLI builds none, since ranks never read a frame and the
assumptions are read from the strings.  Orientation conventions: edges point
+x / +y; a vertex operator uses X^{+1} on outgoing and X^{-1} on incoming
edges; a plaquette operator takes Z around its boundary counterclockwise.

Generators.  Every generator acts on at most four edges, so the generator
matrix is stored as local supports (`SparseGenerators`): O(E) memory.  Rows
are numbered by arithmetic (`_generator_rows`): plaquette (x, y) is row
y W + x, then vertex (x, y) is row W H + y (W + 1) + x - 1, in raster order
without the redundant vertex (0, 0); the build and the sector detectors both
use it.  `build_ground_state` certifies the matrix by two array programs over
its column index: the symplectic form summed over generator pairs that share
an edge, and full rank as the connectivity of the column graph (see
Entropies below), labelled in hook-and-jump rounds.  The dense E x 2E matrix
and its Gram product and rank are the tests' oracles, and are built only
there.

Entropies.  Every region entropy is (|R| - g_R) log p with g_R the rank of
the subgroup of stabilizers supported inside R: an exact integer multiple of
log p.  For a pure state g_R = 2|R| - rank(G|_R), and rank(G|_R) is counted,
not eliminated.  A column of G is X or Z on one edge.  The X column meets
the two vertex stars at the edge's ends, with +1 and -1; the Z column meets
the plaquettes on its two sides, with +1 and -1.  A star of the dropped
vertex (0, 0), or a plaquette beyond the smooth boundary, is missing, so
every column has at most two nonzeros, u and -u.  G|_R is then a directed
incidence matrix with scaled columns: rows are nodes, each column is an
edge between its two rows, and a column with one nonzero runs to a sentinel
node whose row is left out.  Scaling a column by a unit keeps the rank, a
directed incidence matrix is totally unimodular, and its rank over every
F_p is nodes - components, the size of a spanning forest (Schrijver, Theory
of Linear and Integer Programming, 1986); leaving out the sentinel's row
keeps it, since a component's rows sum to zero.  So g_R = 2|R| minus the
size of a spanning forest of R's 2|R| columns, counted as nodes minus
components (`_forest_size`).  This is the counting behind the region
entropies of Hamma, Ionicioiu & Zanardi, PRA 71, 022315 (2005).  The
subgroup itself is read from the same graph, with no elimination.  A
combination c . G vanishes on a column outside R iff c is equal on the
column's two rows, or 0 on its one row, so c . G is supported in R iff c is
constant on each cluster of rows that the columns outside R join,
and 0 on the sentinel's cluster.  G has full rank, so the sums of the g_R
clusters off the sentinel are a basis of the subgroup.  An element's phase is
linear in the element, so a cluster's phase under a frame is the sum of its
rows' phases (`_row_phases`, the one place the sign convention above is
written), and two reductions on R are compared by their clusters' phases
alone.  A canonical basis of the subgroup, the symplectic complement of G|_R
in R's columns by one elimination over F_p (`restricted_canonical`), is built
only to write out a witness and for `reduction_relation`; its dense generator
block is refused above GENS_BYTES_CAP.  No path here builds a dense density
operator: the tests' dense reductions, read from that basis, are the
oracles of the counted entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DimensionCap,
    InsufficientWidth,
    InvalidGeometry,
    MalformedInput,
    RankDeficiency,
)
from .fusion import (
    check_double_zn_order,
    closed_form_fixed_point,
    double_zn_category,
    fusion_probabilities,
    quantum_dimensions,
)
from . import audit
from .gfp import nullspace_mod_p, rref_mod_p

SectorLabel = tuple[int, int]  # (electric charge, magnetic flux) in Z_p x Z_p

# Byte cap on every large allocation.  A lattice is refused when its sparse
# supports exceed it (square lattices up to 1447 x 1447 fit), and a
# restricted basis when its dense (rows touching R) x 2|R| generator block
# does.  The tests' dense oracles are held to it too: a dense reduction's
# p^|R| x p^|R| complex matrix, and the dense E x 2E generator matrix
# (square lattices up to 44 x 44).
# The build peaks well above the supports: ru_maxrss 373 MiB at 600 x 600
# (44 MiB of supports) and 948 MiB at 1000 x 1000 (122 MiB), p = 2.
GENS_BYTES_CAP = 2**28

# Every toric-code generator acts on at most this many edges.
MAX_SUPPORT = 4


def check_dense_cap(n_rows: int, n_cols: int) -> None:
    """Raise DimensionCap when a dense n_rows x n_cols int64 block of
    generator rows would exceed GENS_BYTES_CAP."""
    nbytes = 8 * n_rows * n_cols
    if nbytes > GENS_BYTES_CAP:
        raise DimensionCap(
            f"the dense {n_rows} x {n_cols} generator block would take {nbytes} bytes, "
            f"over the {GENS_BYTES_CAP}-byte cap"
        )


def _check_prime(p: int) -> None:
    if p < 2:
        raise MalformedInput(f"{p} is not prime")
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            raise MalformedInput(f"{p} is not prime")


@dataclass(frozen=True)
class Lattice:
    """Plaquette grid with Z_p qudits on edges and smooth boundaries."""

    width: int
    height: int
    prime: int

    def __post_init__(self):
        if self.width < 4 or self.height < 4:
            raise MalformedInput("lattice must be at least 4 x 4 plaquettes")
        # 2E residue products make the largest int64 sum; checked before the trial division
        if 2 * self.n_edges * self.prime**2 >= 2**63:
            raise DimensionCap(f"p = {self.prime}: a sum of 2E residue products mod p would overflow int64")
        _check_prime(self.prime)
        storage = 16 * MAX_SUPPORT * self.n_edges  # two (E, MAX_SUPPORT) int64 arrays
        if storage > GENS_BYTES_CAP:
            raise DimensionCap(
                f"{self.width} x {self.height} lattice: the sparse generators would take "
                f"{storage} bytes, over the {GENS_BYTES_CAP}-byte cap"
            )

    @property
    def n_h_edges(self) -> int:
        return self.width * (self.height + 1)

    @property
    def n_edges(self) -> int:
        return self.n_h_edges + (self.width + 1) * self.height

    def h_edge(self, x: int | np.ndarray, y: int | np.ndarray):
        if not np.all((0 <= x) & (x < self.width) & (0 <= y) & (y <= self.height)):
            raise MalformedInput(f"no horizontal edge at ({x},{y})")
        return y * self.width + x

    def v_edge(self, x: int | np.ndarray, y: int | np.ndarray):
        if not np.all((0 <= x) & (x <= self.width) & (0 <= y) & (y < self.height)):
            raise MalformedInput(f"no vertical edge at ({x},{y})")
        return self.n_h_edges + y * (self.width + 1) + x

    @cached_property
    def edge_midpoints(self) -> np.ndarray:
        """Doubled coordinates of every edge midpoint, shape (n_edges, 2)."""
        hy, hx = np.divmod(np.arange(self.n_h_edges), self.width)
        vy, vx = np.divmod(np.arange(self.n_edges - self.n_h_edges), self.width + 1)
        h = np.stack([2 * hx + 1, 2 * hy], axis=1)
        return np.concatenate([h, np.stack([2 * vx, 2 * vy + 1], axis=1)])

    def edges_in_box(self, box: tuple[int, int, int, int]) -> np.ndarray:
        """Sorted int64 ids of the edges whose midpoints lie in the half-open
        doubled box (x0, y0, x1, y1).

        Horizontal edge (x, y) has its midpoint at (2x + 1, 2y) and vertical
        edge (x, y) at (2x, 2y + 1), so each kind's edges in the box are one
        rectangle of (x, y), numbered row by row as `h_edge`/`v_edge` do.
        """
        x0, y0, x1, y1 = box
        W, H = self.width, self.height

        def rectangle(xs: range, ys: range, row: int, offset: int) -> np.ndarray:
            x, y = np.arange(xs.start, xs.stop), np.arange(ys.start, ys.stop)
            return offset + (y[:, None] * row + x).ravel()

        h = rectangle(range(max(x0 // 2, 0), min(x1 // 2, W)),
                      range(max((y0 + 1) // 2, 0), min((y1 + 1) // 2, H + 1)), W, 0)
        v = rectangle(range(max((x0 + 1) // 2, 0), min((x1 + 1) // 2, W + 1)),
                      range(max(y0 // 2, 0), min(y1 // 2, H)), W + 1, self.n_h_edges)
        return np.concatenate([h, v])

    def vertex_star(self, x: int, y: int) -> list[tuple[int, int]]:
        """(edge, orientation sign) pairs of the vertex operator at (x, y)."""
        star = []
        if x < self.width:
            star.append((self.h_edge(x, y), +1))
        if x > 0:
            star.append((self.h_edge(x - 1, y), -1))
        if y < self.height:
            star.append((self.v_edge(x, y), +1))
        if y > 0:
            star.append((self.v_edge(x, y - 1), -1))
        return star

    def plaquette_boundary(self, x: int, y: int) -> list[tuple[int, int]]:
        """(edge, sign) pairs of the plaquette operator at (x, y), counterclockwise."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise MalformedInput(f"no plaquette at ({x},{y})")
        return [
            (self.h_edge(x, y), +1),
            (self.v_edge(x + 1, y), +1),
            (self.h_edge(x, y + 1), -1),
            (self.v_edge(x, y), -1),
        ]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner i, index j) for every j in every half-open range [lo[i], hi[i])."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    index = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts) + lo[owner]
    return owner, index


@dataclass(frozen=True, eq=False)
class SparseGenerators:
    """Generator rows over F_p stored as local supports, in symplectic layout.

    Row i is sum_k vals[i, k] * e_{cols[i, k]} over 2 * n_edges columns:
    column e is X on edge e and column n_edges + e is Z on edge e.  A row
    has at most MAX_SUPPORT entries, on distinct columns; unused slots hold
    the padding (column 0, value 0).
    """

    cols: np.ndarray  # (rows, MAX_SUPPORT) int64
    vals: np.ndarray  # (rows, MAX_SUPPORT) int64 mod p, 0 = padding
    n_edges: int

    def __post_init__(self):
        self.cols.setflags(write=False)
        self.vals.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.vals)

    @property
    def nbytes(self) -> int:
        return self.cols.nbytes + self.vals.nbytes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseGenerators)
            and self.n_edges == other.n_edges
            and (self.cols is other.cols or np.array_equal(self.cols, other.cols))
            and (self.vals is other.vals or np.array_equal(self.vals, other.vals))
        )

    @cached_property
    def by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries grouped by column, as (start, rows, vals): column
        c holds rows[start[c]:start[c + 1]], with values vals[...], in row
        order.  Built once, by one stable sort of the nonzero slots."""
        slot = np.flatnonzero(self.vals)  # in row-major order
        cols = self.cols.ravel()[slot]
        start = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=2 * self.n_edges))])
        slot = slot[np.argsort(cols, kind="stable")]
        index = (start, slot // self.vals.shape[1], self.vals.ravel()[slot])
        for arr in index:
            arr.setflags(write=False)
        return index

    def region_block(self, edges: np.ndarray) -> np.ndarray:
        """The rows with a nonzero entry on the sorted, unique edges, in row
        order, on those edges' X then Z columns: shape (rows, 2 len(edges)).
        Read from the column index in O(|edges|); a block over
        GENS_BYTES_CAP is DimensionCap before it is allocated."""
        columns = np.concatenate([edges, edges + self.n_edges])
        start, rows, vals = self.by_column
        col, index = _ranges(start[columns], start[columns + 1])
        touching, row = np.unique(rows[index], return_inverse=True)
        check_dense_cap(len(touching), len(columns))
        out = np.zeros((len(touching), len(columns)), dtype=np.int64)
        out[row, col] = vals[index]
        return out


@dataclass(frozen=True)
class StabilizerState:
    """Full-rank ground generators over F_p conjugated by the Pauli frame."""

    lattice: Lattice
    gens: SparseGenerators  # n_edges rows
    frame: np.ndarray  # (2 n_edges,) mod p: the conjugating string's vector

    def __post_init__(self):
        self.frame.setflags(write=False)

    @property
    def n(self) -> int:
        return self.lattice.n_edges


def _check_commutation(gens: SparseGenerators, p: int) -> None:
    """Raise RankDeficiency unless every pair of rows has symplectic form 0 mod p.

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
    """Raise RankDeficiency unless the rows are independent over F_p.

    The rank is nodes minus components of the column graph on the rows and
    the sentinel n_rows (`_column_graph`, `_forest_size`; see the module
    docstring), so the rows are independent iff that graph is connected.
    """
    u, v, _ = _column_graph(gens, np.arange(2 * gens.n_edges), p)
    rank = _forest_size(u, v, gens.n_rows + 1)
    if rank < gens.n_rows:
        raise RankDeficiency(f"generator matrix is not full rank: rank {rank} of {gens.n_rows} rows")


def _generator_rows(lat: Lattice, kind: str, x: int | np.ndarray, y: int | np.ndarray):
    """Row ids of the plaquette or vertex generators at (x, y); see the module docstring."""
    if kind == "plaquette":
        return y * lat.width + x
    return lat.width * lat.height + y * (lat.width + 1) + x - 1


def build_ground_state(lat: Lattice) -> StabilizerState:
    """Ground state: all plaquette operators plus all vertex operators but one.

    The product of all vertex operators is the identity (each edge enters
    twice with opposite signs), so one vertex generator is redundant and the
    remaining V - 1 + P = n_edges generators (Euler) are independent.  Both
    facts are checked (`_check_commutation`, `_check_independent`), not
    assumed.  Vertex slots are east, west, north, south; one off the lattice
    keeps the padding (0, 0).
    """
    p, E, W, H = lat.prime, lat.n_edges, lat.width, lat.height
    cols = np.zeros((E, MAX_SUPPORT), dtype=np.int64)
    vals = np.zeros((E, MAX_SUPPORT), dtype=np.int64)
    y, x = np.divmod(np.arange(W * H), W)
    rows = _generator_rows(lat, "plaquette", x, y)
    cols[rows] = E + np.stack(
        [lat.h_edge(x, y), lat.v_edge(x + 1, y), lat.h_edge(x, y + 1), lat.v_edge(x, y)], axis=1
    )
    vals[rows] = np.array([1, 1, -1, -1]) % p
    y, x = np.divmod(np.arange(1, (W + 1) * (H + 1)), W + 1)
    rows = _generator_rows(lat, "vertex", x, y)
    for k, (has, edge, dx, dy, sign) in enumerate(
        ((x < W, lat.h_edge, 0, 0, 1), (x > 0, lat.h_edge, -1, 0, -1),
         (y < H, lat.v_edge, 0, 0, 1), (y > 0, lat.v_edge, 0, -1, -1))
    ):
        cols[rows[has], k] = edge(x[has] + dx, y[has] + dy)
        vals[rows[has], k] = sign % p
    gens = SparseGenerators(cols=cols, vals=vals, n_edges=E)
    _check_commutation(gens, p)
    _check_independent(gens, p)
    return StabilizerState(lattice=lat, gens=gens, frame=np.zeros(2 * E, dtype=np.int64))


# ---------------------------------------------------------------------------
# annulus partitions


# the bar boxes that make up each region letter
_LETTER_BOXES = {"A": ("A",), "B": ("B1", "B2"), "C": ("C",)}


@dataclass(frozen=True)
class AnnulusPartition:
    """Rectangular annulus around an origin plaquette, split A | B1 | C | B2.

    The hole is a half-open plaquette box; the four bars have `width`
    plaquette columns.  B1 (top) and B2 (bottom) span the full annulus width
    and own the corners; A (west) and C (east) span only the hole's rows, so
    thinning A keeps the ring connected.  `thin_steps` removes one
    edge-column from each side of A per step.
    """

    lattice: Lattice
    origin: tuple[int, int]
    hole: tuple[int, int, int, int]  # plaquette box (x0, y0, x1, y1)
    width: int
    thin_steps: int = 0
    a_width: int | None = None  # region A may be wider to host nested thinnings

    def __post_init__(self):
        if self.a_width is None:
            object.__setattr__(self, "a_width", self.width)
        hx0, hy0, hx1, hy1 = self.hole
        if not (hx0 < hx1 and hy0 < hy1):
            raise InvalidGeometry("empty hole")
        if min(self.width, self.a_width) < 1:
            raise InvalidGeometry("bar width must be at least one plaquette")
        ox, oy = self.origin
        if not (hx0 <= ox < hx1 and hy0 <= oy < hy1):
            raise InvalidGeometry("origin plaquette must lie inside the hole")
        w = self.width
        lat = self.lattice
        # one plaquette of clearance keeps the annulus in the bulk: flux
        # condenses on the smooth lattice boundary, so a boundary-touching
        # annulus measures a smaller effective anyon set (and the sector
        # strings park their far anyons on that boundary)
        if (
            hx0 - self.a_width < 1
            or hy0 - w < 1
            or hx1 + w > lat.width - 1
            or hy1 + w > lat.height - 1
        ):
            raise InvalidGeometry("annulus must keep one plaquette of clearance from the lattice boundary")
        if self.thin_steps < 0 or self.thin_steps > self.a_width - 1:
            raise InsufficientWidth(
                f"{self.thin_steps} thinning steps exceed what a width-{self.a_width} bar allows"
            )

    # doubled-coordinate boxes -------------------------------------------------

    @property
    def hole_box(self) -> tuple[int, int, int, int]:
        hx0, hy0, hx1, hy1 = self.hole
        return (2 * hx0, 2 * hy0, 2 * hx1, 2 * hy1)

    def bar_boxes(self) -> dict[str, tuple[int, int, int, int]]:
        hx0, hy0, hx1, hy1 = self.hole
        w = self.width
        aw = self.a_width
        k = self.thin_steps
        return {
            "A": (2 * (hx0 - aw) + k, 2 * hy0, 2 * hx0 - k, 2 * hy1),
            "C": (2 * hx1, 2 * hy0, 2 * (hx1 + w), 2 * hy1),
            "B1": (2 * (hx0 - aw), 2 * hy1, 2 * (hx1 + w), 2 * (hy1 + w)),
            "B2": (2 * (hx0 - aw), 2 * (hy0 - w), 2 * (hx1 + w), 2 * hy0),
        }

    def thin(self, steps: int = 1) -> "AnnulusPartition":
        return replace(self, thin_steps=self.thin_steps + steps)

    def region_edges(self, spec: str) -> np.ndarray:
        """Sorted, unique int64 edge ids of a region: any combination of the letters A, B, C."""
        boxes = self.bar_boxes()
        parts = [np.empty(0, dtype=np.int64)]
        for ch in spec:
            if ch not in _LETTER_BOXES:
                raise MalformedInput(f"unknown region letter {ch!r}")
            parts += [self.lattice.edges_in_box(boxes[name]) for name in _LETTER_BOXES[ch]]
        return _sorted_unique(np.concatenate(parts))


def centered_annulus(
    lat: Lattice, width: int, hole_size: int = 3, thin_steps: int = 0, a_width: int | None = None
) -> AnnulusPartition:
    """An annulus of the given bar width with a centered hole and centered origin."""
    aw = width if a_width is None else a_width
    hx0 = (lat.width - hole_size + (aw - width)) // 2
    hy0 = (lat.height - hole_size) // 2
    hole = (hx0, hy0, hx0 + hole_size, hy0 + hole_size)
    origin = (hx0 + hole_size // 2, hy0 + hole_size // 2)
    return AnnulusPartition(
        lattice=lat, origin=origin, hole=hole, width=width, thin_steps=thin_steps, a_width=aw
    )


# ---------------------------------------------------------------------------
# string operators


def _row_strings(
    lat: Lattice, y: int, vertices: tuple[int, int], plaquettes: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The two unit strings along row y, as symplectic vectors (t_e, t_m).

    t_e is Z on the h-edges from vertex column vertices[0] east to
    vertices[1]; t_m is X on the v-edges that the dual path from plaquette
    column plaquettes[0] east to plaquettes[1] crosses.  Both run eastward
    with sign +1 on every edge.
    """
    E = lat.n_edges
    t_e = np.zeros(2 * E, dtype=np.int64)
    t_e[E + lat.h_edge(np.arange(*vertices), y)] = 1
    t_m = np.zeros(2 * E, dtype=np.int64)
    t_m[lat.v_edge(np.arange(plaquettes[0] + 1, plaquettes[1] + 1), y)] = 1
    return t_e, t_m


def _sector_strings(lat: Lattice, origin: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(t_e, t_m) from the origin plaquette and its south-west vertex out
    through the east boundary, where flux condenses, so no far-end excitation
    remains."""
    ox, oy = origin
    if not (0 <= ox < lat.width and 0 <= oy < lat.height):
        raise MalformedInput(f"origin {origin} is not a plaquette of the lattice")
    return _row_strings(lat, oy, (ox, lat.width), (ox, lat.width))


def conjugate_by_string(state: StabilizerState, t: np.ndarray) -> StabilizerState:
    """Conjugate the state by the Pauli string with symplectic vector t."""
    return replace(state, frame=(state.frame + np.asarray(t, dtype=np.int64)) % state.lattice.prime)


def create_sector(
    state: StabilizerState, sector: SectorLabel, origin: tuple[int, int] | None = None
) -> StabilizerState:
    """Conjugate by c t_e + f t_m for the sector (charge c, flux f).

    t_e is the Z-type string along lattice edges from the origin vertex to
    the east boundary, t_m the X-type string on the dual path from the
    origin plaquette out through the east boundary.  The origin defaults to
    the lattice's central plaquette.
    """
    lat = state.lattice
    p = lat.prime
    c, f = sector
    if not (0 <= c < p and 0 <= f < p):
        raise MalformedInput(f"sector {sector} outside Z_{p} x Z_{p}")
    if origin is None:
        origin = (lat.width // 2, lat.height // 2)
    t_e, t_m = _sector_strings(lat, origin)
    return conjugate_by_string(state, c * t_e + f * t_m)


def sector_family(state: StabilizerState, part: AnnulusPartition) -> dict[SectorLabel, StabilizerState]:
    """All p^2 sector states, anchored at the partition's origin: the two
    strings are built once and every frame is c t_e + f t_m by linearity."""
    p = state.lattice.prime
    t_e, t_m = _sector_strings(state.lattice, part.origin)
    return {(c, f): conjugate_by_string(state, c * t_e + f * t_m) for c in range(p) for f in range(p)}


# ---------------------------------------------------------------------------
# entropies


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """The ids sorted, each once.

    Deduplicated by a sort and a neighbour mask: a plain `np.unique` takes a
    slower hash path and, in numpy 2.4, imports `numpy.ma` on first use."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return ids[keep]


def _edges(state: StabilizerState, region) -> np.ndarray:
    """The region's sorted, unique edges, from an array or any iterable of
    ids; MalformedInput for an id outside [0, E)."""
    ids = region if isinstance(region, np.ndarray) else np.fromiter(region, dtype=np.int64)
    edges = _sorted_unique(ids.astype(np.int64, copy=False))
    if edges.size and (edges[0] < 0 or edges[-1] >= state.n):
        bad = edges[0] if edges[0] < 0 else edges[-1]
        raise MalformedInput(f"edge {bad} outside the lattice of {state.n} edges")
    return edges


def _region_columns(state: StabilizerState, region) -> np.ndarray:
    """The region's X columns then its Z columns, over its sorted, unique edges."""
    edges = _edges(state, region)
    return np.concatenate([edges, edges + state.n])


def _embed(state: StabilizerState, edges: np.ndarray, local: np.ndarray) -> np.ndarray:
    """A vector on the sorted edges' X then Z columns, at the full 2 n_edges width."""
    vec = np.zeros(2 * state.n, dtype=np.int64)
    vec[_region_columns(state, edges)] = local
    return vec


def _pairing(vecs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The phase v_x . t_z - v_z . t_x of each vector v under the frame t, on one column layout."""
    n = len(t) // 2
    return vecs[..., :n] @ t[n:] - vecs[..., n:] @ t[:n]


def _column_graph(
    gens: SparseGenerators, columns: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero columns as graph edges (u, v, position in `columns`).

    A column with two entries joins their two rows; a column with one entry
    joins its row to the sentinel node n_rows.  A column with more than two
    entries, or with two that do not cancel mod p, is no scaled incidence
    column, and raises MalformedInput.
    """
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


def _roots(parent: np.ndarray) -> np.ndarray:
    """Each node's root, by pointer jumping over the parent links (Shiloach &
    Vishkin 1982): a chain of length l is resolved in log2(l) rounds."""
    root = parent
    while not np.array_equal(up := root[root], root):
        root = up
    return root


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Each node's label, the smallest node of its component, in the graph
    of edges (u[k], v[k]) on nodes 0 .. n - 1 (Shiloach & Vishkin 1982).

    Each round, every edge that joins two trees hooks the larger root onto
    the smaller and pointer jumping (`_roots`) flattens the trees; links
    point down, so a component's smallest node is its one root at the end.
    """
    root = np.arange(n)
    while (live := root[u] != root[v]).any():
        u, v = u[live], v[live]
        ru, rv = root[u], root[v]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        root = _roots(root)
    return root


def _compact(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The edges (u[k], v[k]) on the n nodes they touch, renumbered 0 .. n - 1, and n."""
    nodes, ids = np.unique(np.concatenate([u, v]), return_inverse=True)
    return ids[:len(u)], ids[len(u):], len(nodes)


def _forest_size(u: np.ndarray, v: np.ndarray, n: int) -> int:
    """Nodes minus components of the graph of edges (u[k], v[k]) on nodes 0 .. n - 1."""
    return int(np.count_nonzero(_components(u, v, n) != np.arange(n)))


def _forest_joins(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether graph edge k joins two trees of the forest grown from the edges
    before it, as Kruskal's algorithm grows it (Kruskal 1956).

    With weight k on edge k the weights are distinct, so the minimum spanning
    forest is unique and is Kruskal's; Borůvka rounds find it (Borůvka 1926).
    Each round, every tree picks its lowest live edge, which joins, and its
    root hooks along it; of two roots that picked the same edge, the only
    cycle distinct weights allow, the smaller stays root.  Pointer jumping
    (`_roots`) contracts the trees, and edges inside a tree drop out.  The
    joined edges of any prefix span it, so a running count of joins is each
    prefix's spanning-forest size.
    """
    ru, rv, n = _compact(u, v)
    joined, edge = np.zeros(len(ru), dtype=bool), np.arange(len(ru))
    while (live := ru != rv).any():
        edge, ru, rv = edge[live], ru[live], rv[live]  # still in position order
        pick = np.full(n, len(edge))
        np.minimum.at(pick, np.concatenate([ru, rv]), np.tile(np.arange(len(edge)), 2))
        tree = np.flatnonzero(pick < len(edge))
        k = pick[tree]
        joined[edge[k]] = True
        other = ru[k] + rv[k] - tree
        hook = (pick[other] != k) | (tree > other)
        parent = np.arange(n)
        parent[tree[hook]] = other[hook]
        root = _roots(parent)
        ru, rv = root[ru], root[rv]
    return joined


def _cluster_roots(
    gens: SparseGenerators, columns: np.ndarray, p: int, root: np.ndarray | None = None
) -> np.ndarray:
    """The label of every row, and of the sentinel (node n_rows), in the graph
    of the given columns (`_column_graph`, which checks their shape): the
    clusters of rows they join.  Given an earlier graph's labels, its
    clusters are contracted to them and only the new columns are run."""
    u, v, _ = _column_graph(gens, columns, p)
    if root is None:
        root = np.arange(gens.n_rows + 1)
    return _components(root[u], root[v], gens.n_rows + 1)[root]


def _clusters(root: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows of the K clusters without the sentinel (the last node), as
    (rows, cluster, K), with cluster[i] in 0 .. K - 1 the cluster of rows[i].
    For the cluster labels of the columns outside a region, the K cluster
    sums are a basis of its restricted group, so K = g_R (see the
    module docstring)."""
    n = len(root) - 1
    rows = np.flatnonzero(root[:n] != root[n])
    is_root = np.zeros(n, dtype=bool)
    is_root[root[rows]] = True
    return rows, (np.cumsum(is_root) - 1)[root[rows]], int(is_root.sum())


def _row_phases(gens: SparseGenerators, rows, frames) -> np.ndarray:
    """The phase v_x . t_z - v_z . t_x of each given generator row v under
    each frame t, not reduced mod p: shape (len(frames), len(rows)).

    An X entry on edge e pairs with t_z[e] and a Z entry with -t_x[e], so a
    frame is read only at its rows' partner columns; the padding (column 0,
    value 0) adds nothing.
    """
    E = gens.n_edges
    cols, vals = gens.cols[rows], gens.vals[rows]
    is_x = cols < E
    partner = np.where(is_x, cols + E, cols - E)
    signed = np.where(is_x, vals, -vals)
    return np.stack([(t[partner] * signed).sum(axis=-1) for t in frames])


def region_rank(state: StabilizerState, region: tuple[int, ...]) -> int:
    """g_R: rank of the subgroup of stabilizers supported inside the region.

    g_R = 2|R| - rank(G|_R), where G|_R keeps the X and Z columns of R's
    edges; equivalently S_R = (rank(G|_R) - |R|) log p (Fattal et al.,
    quant-ph/0406168).  The identity needs a pure state (S_R = S_{R^c}),
    which the commutation and full-rank checks of `build_ground_state`
    guarantee.  rank(G|_R) is the size of a spanning forest of R's columns as
    graph edges, over the nodes they touch (see the module docstring); a
    column of another shape raises MalformedInput.
    """
    columns = _region_columns(state, region)
    u, v, _ = _column_graph(state.gens, columns, state.lattice.prime)
    return len(columns) - _forest_size(*_compact(u, v))


def region_entropy(state: StabilizerState, region) -> float:
    """S(rho_R) = (|R| - g_R) log p, exactly."""
    edges = _edges(state, region)
    return (len(edges) - region_rank(state, edges)) * math.log(state.lattice.prime)


@dataclass(frozen=True)
class CmiCertificate:
    """Integer rank data behind one conditional mutual information value."""

    sizes: dict[str, int]
    ranks: dict[str, int]
    coefficient: int  # I / log p


_CERTIFICATE_REGIONS = ("AB", "BC", "B", "ABC")


def _certificate(p: int, sizes: dict[str, int], ranks: dict[str, int]) -> tuple[float, CmiCertificate]:
    coeff = ranks["B"] + ranks["ABC"] - ranks["AB"] - ranks["BC"]
    return coeff * math.log(p), CmiCertificate(sizes=sizes, ranks=ranks, coefficient=coeff)


def annulus_cmi_certificate(state: StabilizerState, part: AnnulusPartition) -> tuple[float, CmiCertificate]:
    """I(A:C|B) with the integer rank certificate behind it."""
    regions = {name: part.region_edges(name) for name in _CERTIFICATE_REGIONS}
    sizes = {k: len(v) for k, v in regions.items()}
    ranks = {k: region_rank(state, v) for k, v in regions.items()}
    return _certificate(state.lattice.prime, sizes, ranks)


def annulus_cmi(state: StabilizerState, part: AnnulusPartition) -> float:
    """I(A:C|B) on the annulus, an exact integer multiple of log p."""
    value, _ = annulus_cmi_certificate(state, part)
    return value


# ---------------------------------------------------------------------------
# reductions: restricted bases and frame differences


def restricted_canonical(
    state: StabilizerState, region: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-free canonical basis (edges, vecs) of the stabilizer subgroup in a region.

    `edges` are the region's sorted, unique edges and `vecs` the RREF over
    F_p of the subgroup's Pauli vectors on their X then Z columns, unique for
    the group, with g_R rows.  The stabilizer group of a pure state is its
    own symplectic complement, so a vector supported in R belongs to it iff
    it pairs to zero with every generator's part on R: the group is the
    nullspace of [B_z | -B_x] for B = G|_R (Fattal et al., quant-ph/0406168),
    and only the generators that touch R enter B.  The basis does not see
    the frame, so one basis serves every state on the same generators.
    """
    edges = _edges(state, region)
    n = len(edges)
    block = state.gens.region_block(edges)
    p = state.lattice.prime
    vecs, _ = rref_mod_p(nullspace_mod_p(np.hstack([block[:, n:], -block[:, :n]]), p), p)
    return edges, vecs


def pauli_repr(state: StabilizerState, vec: np.ndarray) -> str:
    """Human-readable form of a Pauli vector, edges at doubled midpoint coordinates:
    'X^1[h(5,6)] Z^2[v(8,3)]' is X on h-edge (2, 3) and Z^2 on v-edge (4, 1)."""
    lat = state.lattice
    E = state.n
    parts = []
    for e in np.flatnonzero(vec[:E] | vec[E:]):
        labels = []
        if vec[e]:
            labels.append(f"X^{int(vec[e])}")
        if vec[E + e]:
            labels.append(f"Z^{int(vec[E + e])}")
        if labels:
            mx, my = lat.edge_midpoints[e]
            kind = "h" if my % 2 == 0 else "v"
            parts.append(f"{'.'.join(labels)}[{kind}({mx},{my})]")
    return " ".join(parts) if parts else "I"


def _shared_gens(states) -> StabilizerState:
    """The first state, after checking that all states share its generator matrix."""
    first, *rest = states
    for state in rest:
        if state.lattice != first.lattice or state.gens != first.gens:
            raise MalformedInput("states do not share one generator matrix; only phases may differ")
    return first


def _first_mismatch(vecs: np.ndarray, diffs: np.ndarray, p: int) -> np.ndarray:
    """Per column of `diffs`, frame differences on the basis' columns with one
    column per pair of states: the first basis row whose phases differ, or -1.

    The phase v_x . t_z - v_z . t_x of element v is linear in the frame t, so
    two states disagree on v iff v pairs to nonzero with their difference.
    """
    hit = np.vstack([_pairing(vecs, diffs) % p != 0, np.ones((1, diffs.shape[1]), dtype=bool)])
    first = hit.argmax(axis=0)  # the all-true last row catches pairs with no mismatch
    return np.where(first < len(vecs), first, -1)


def _relation(
    state: StabilizerState, edges: np.ndarray, vecs: np.ndarray, first: int
) -> tuple[str, str | None]:
    """'equal', or 'orthogonal' with basis row `first` written out as the witness."""
    if first < 0:
        return "equal", None
    return "orthogonal", pauli_repr(state, _embed(state, edges, vecs[first]))


def reduction_relation(
    state1: StabilizerState, state2: StabilizerState, region: tuple[int, ...]
) -> tuple[str, str | None]:
    """Relation between two reductions on a region: 'equal' or 'orthogonal'.

    Both states must share one generator matrix, as every sector state does,
    so their restricted groups coincide.  The reductions are then equal iff
    the phase assignments agree on a basis, and orthogonal otherwise (the
    phase difference is a character of the group, so the cross trace sums to
    zero).  The pair is decided on the canonical basis, and the witness is
    the first basis element whose phases disagree, as in the witnesses of
    `verify_assumptions`.
    """
    _shared_gens((state1, state2))
    edges, vecs = restricted_canonical(state1, region)
    cols = _region_columns(state1, edges)
    first = _first_mismatch(vecs, (state1.frame[cols] - state2.frame[cols])[:, None], state1.lattice.prime)
    return _relation(state1, edges, vecs, first[0])


# ---------------------------------------------------------------------------
# sector detectors


def _combine_rows(state: StabilizerState, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Product of the given generator rows and its phase, at the full 2 n_edges
    width; the padding (column 0, value 0) adds nothing."""
    p = state.lattice.prime
    vec = np.zeros(2 * state.n, dtype=np.int64)
    np.add.at(vec, state.gens.cols[rows], state.gens.vals[rows])
    vec %= p
    return vec, int(_pairing(vec, state.frame) % p)


def charge_detector(state: StabilizerState, part: AnnulusPartition) -> tuple[np.ndarray, int]:
    """Product of vertex operators over the closed hole, which the clearance rule keeps off
    the dropped vertex (0, 0): the X-type loop whose phase reads out the enclosed charge."""
    hx0, hy0, hx1, hy1 = part.hole
    y, x = np.mgrid[hy0:hy1 + 1, hx0:hx1 + 1]
    return _combine_rows(state, _generator_rows(state.lattice, "vertex", x, y).ravel())


def flux_detector(state: StabilizerState, part: AnnulusPartition) -> tuple[np.ndarray, int]:
    """Product of plaquette operators over the hole plus one ring to the
    south-west: the Z-type loop whose phase reads out the enclosed flux.

    The extra ring keeps the loop's support inside the annulus edge set:
    under the half-open box convention the hole owns its own south and west
    perimeter edges.
    """
    hx0, hy0, hx1, hy1 = part.hole
    y, x = np.mgrid[hy0 - 1:hy1, hx0 - 1:hx1]
    return _combine_rows(state, _generator_rows(state.lattice, "plaquette", x, y).ravel())


def sector_witness_phases(state: StabilizerState, part: AnnulusPartition) -> dict[str, int]:
    """Phase exponents of the two enclosing loop operators in this state."""
    abc = set(part.region_edges("ABC").tolist())
    out = {}
    for name, builder in (("charge", charge_detector), ("flux", flux_detector)):
        vec, phase = builder(state, part)
        E = state.n
        support = set(np.flatnonzero(vec[:E] | vec[E:]).tolist())
        if not support <= abc:
            raise InvalidGeometry(f"{name} detector leaks outside the annulus")
        out[name] = int(phase)
    return out


# ---------------------------------------------------------------------------
# assumption checks


@dataclass(frozen=True)
class FusionStringRule:
    """Where property-3 fusion strings run and where their endpoints sit."""

    endpoint: str = "strips"  # or "inside_a_prime"

    def __post_init__(self):
        if self.endpoint not in ("strips", "inside_a_prime"):
            raise MalformedInput("endpoint must be 'strips' or 'inside_a_prime'")


def _fusion_strings(
    lat: Lattice, part: AnnulusPartition, rule: FusionStringRule
) -> tuple[np.ndarray, np.ndarray]:
    """The two unit strings (t_e, t_m) that every property-3 string is made
    of: they cross A radially along the hole's middle row, with both
    endpoints in the removed strips (or, in the documented negative mode,
    stopping inside the retained A')."""
    hx0, hy0, hx1, hy1 = part.hole
    x_w = hx0 - part.a_width  # west boundary vertex column of A
    y = (hy0 + hy1) // 2  # a vertex row and a plaquette row of A, as hy0 < hy1
    # the hole's west boundary vertex and first plaquette column, or a vertex
    # and plaquette column strictly inside A'
    x_end = hx0 if rule.endpoint == "strips" else x_w + 1
    return _row_strings(lat, y, (x_w, x_end), (x_w - 1, x_end))


def fusion_string(
    state: StabilizerState, part: AnnulusPartition, s: SectorLabel, rule: FusionStringRule
) -> np.ndarray:
    """Open string for property 3 that deposits s in the hole (`_fusion_strings`)."""
    t_e, t_m = _fusion_strings(state.lattice, part, rule)
    # The anyon s must sit at the hole-side end of the string; sector strings
    # carry their anyon at the path start, so this eastward path runs with
    # inverted coefficients to deposit s (not its antiparticle) in the hole.
    c, f = s
    return (-c * t_e - f * t_m) % state.lattice.prime


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    violations: tuple


@dataclass(frozen=True)
class AssumptionsReport:
    distinguishability: PropertyResult
    indistinguishability: PropertyResult
    fusion: PropertyResult

    @property
    def passed(self) -> bool:
        return (
            self.distinguishability.passed
            and self.indistinguishability.passed
            and self.fusion.passed
        )


def verify_assumptions(
    states: dict[SectorLabel, StabilizerState],
    part: AnnulusPartition,
    rule: FusionStringRule | None = None,
) -> AssumptionsReport:
    """Check the three sector-family properties exactly on the annulus.

    1. Global distinguishability: reductions on ABC are pairwise orthogonal.
    2. Local indistinguishability: reductions on AB and on BC are pairwise equal.
    3. Fusion: conjugating sector a by the string t_s for s and reducing to
       A'BC (one thinning step) equals the reduction of sector s x a.
    All states share one generator matrix, so each region has one restricted
    group, and two reductions are equal iff their phases agree on a basis of
    it, orthogonal otherwise (`_assumptions_report`).  Any family of p^2
    states is accepted, with one string t_s per s; the sector family itself is
    checked from two strings by `verify_sector_assumptions`.
    """
    p = next(iter(states.values())).lattice.prime
    if set(states) != {(c, f) for c in range(p) for f in range(p)}:
        raise MalformedInput(f"need all {p * p} sectors, got {len(states)}")
    base = _shared_gens(states.values())
    rule = rule or FusionStringRule()
    order = sorted(states)
    frames = [states[a].frame for a in order]
    strings = [fusion_string(base, part, s, rule) for s in order[1:]]  # order[0] is the vacuum (0, 0)
    return _assumptions_report(
        base, part, frames, strings, lambda M, a: M[:, a], lambda M, s: M[:, p * p - 1 + s]
    )


def verify_sector_assumptions(
    ground: StabilizerState, part: AnnulusPartition, rule: FusionStringRule | None = None
) -> AssumptionsReport:
    """`verify_assumptions(sector_family(ground, part), part, rule)`, with no
    sector state or fusion string built.

    Sector a = (c, f) has the frame ground + c t_e + f t_m and the fusion
    string for s = (c, f) is -c t_e' - f t_m', so every phase is linear in
    (c, f), and a region reads three vectors (A'BC five).
    """
    p = ground.lattice.prime
    coef = np.stack([np.ones(p * p, dtype=np.int64), *np.divmod(np.arange(p * p), p)])  # (1, c, f)
    frames = [ground.frame, *_sector_strings(ground.lattice, part.origin)]
    strings = list(_fusion_strings(ground.lattice, part, rule or FusionStringRule()))
    return _assumptions_report(
        ground, part, frames, strings, lambda M, a: M[:, :3] @ coef[:, a], lambda M, s: -M[:, 3:] @ coef[1:, s]
    )


def _assumptions_report(base, part, frames, strings, frame, string) -> AssumptionsReport:
    """The three properties for p^2 labels, numbered a = c p + f.

    A region's basis is the sums of its row clusters (`_clusters`), and a
    phase is linear in the group element and the frame, so a region reads its
    vectors (`frames`; on A'BC also `strings`) into one matrix M of cluster
    phases (`_row_phases`).  `frame(M, a)` combines M's columns into the
    frames of the labels in array a, `string(M, s)` into property 3's
    strings for the labels s >= 1 in array s.  A witness
    (`restricted_canonical`, eliminated only for a region with a violation)
    is taken on those combinations of the vectors' columns.
    """
    p = base.lattice.prime
    labels = np.arange(p * p)
    order = [(int(c), int(f)) for c, f in zip(labels // p, labels % p)]
    # target[s, a]: the label s x a
    target = (labels[:, None] // p + labels // p) % p * p + (labels[:, None] + labels) % p
    abc, ab, bc = (part.region_edges(name) for name in ("ABC", "AB", "BC"))

    # every region below lies inside ABC, so the forest of the columns outside
    # ABC is grown once and each region's forest continues it over the
    # columns of ABC outside that region
    in_abc = np.zeros(2 * base.n, dtype=bool)
    in_abc[_region_columns(base, abc)] = True
    root_abc = _cluster_roots(base.gens, np.flatnonzero(~in_abc), p)

    def on_region(edges, vectors):
        """(M mod p, the labels' table, and the witnessed violations:
        (order[i], order[j], relation, witness) for each true bad[i, j] in
        row-major order, on the differences diff(vectors on cols, i, js))."""
        cols = _region_columns(base, edges)
        rest = in_abc.copy()  # ABC's columns outside the region
        rest[cols] = False
        rows, cluster, k = _clusters(_cluster_roots(base.gens, np.flatnonzero(rest), p, root_abc))
        phases = np.zeros((k, len(vectors)), dtype=np.int64)
        np.add.at(phases, cluster, _row_phases(base.gens, rows, vectors).T)
        phases %= p
        phases = phases[phases.any(axis=1)]  # a cluster of phase 0 tells no labels apart

        def violations(bad, diff):
            out, firsts = [], np.flatnonzero(bad.any(axis=1))
            if firsts.size:
                _, vecs = restricted_canonical(base, edges)
                on_cols = np.stack([v[cols] for v in vectors], axis=1)
            for i in firsts:
                js = np.flatnonzero(bad[i])
                first = _first_mismatch(vecs, diff(on_cols, i, js), p).tolist()
                rel = {f: _relation(base, edges, vecs, f) for f in set(first)}
                out += [(order[i], order[j], *rel[f]) for j, f in zip(js, first)]
            return out

        return phases, frame(phases, labels) % p, violations

    def same(table):
        """Whether labels a and b have equal columns in the table, over all (a, b)."""
        ranked = np.lexsort(table) if len(table) else labels
        step = (table[:, ranked[1:]] != table[:, ranked[:-1]]).any(axis=0)
        cls = np.empty_like(labels)
        cls[ranked] = np.cumsum(np.r_[False, step])
        return cls[:, None] == cls

    _, table, _ = on_region(abc, frames)
    viol1 = [(order[i], order[j], "equal", None) for i, j in zip(*np.nonzero(np.triu(same(table), 1)))]
    prop1 = PropertyResult("global_distinguishability", not viol1, tuple(viol1))
    viol2 = []
    for name, edges in (("AB", ab), ("BC", bc)):
        _, table, violations = on_region(edges, frames)
        differ = violations(np.triu(~same(table), 1), lambda M, i, js: frame(M, labels[[i]]) - frame(M, js))
        viol2 += [(name, *v) for v in differ]
    prop2 = PropertyResult("local_indistinguishability", not viol2, tuple(viol2))

    phases, table, violations = on_region(part.thin(1).region_edges("ABC"), frames + strings)
    moved = string(phases, labels[1:])
    bad = np.zeros((p * p, p * p), dtype=bool)
    for s in labels[1:]:
        bad[s] = ((table + moved[:, [s - 1]] - table[:, target[s]]) % p).any(axis=0)
    viol3 = violations(bad, lambda M, s, js: frame(M, js) + string(M, labels[[s]]) - frame(M, target[s, js]))
    prop3 = PropertyResult("fusion", not viol3, tuple(viol3))

    return AssumptionsReport(prop1, prop2, prop3)


# ---------------------------------------------------------------------------
# audit trace


def check_nested_levels(part: AnnulusPartition, n: int) -> None:
    """Raise unless `nested_annulus_table` can fill n levels: n >= 1, n + 1 thinnings of A, p <= 9."""
    if n < 1:
        raise MalformedInput("need n >= 1 intermediate levels")
    part.thin(n + 1)  # InsufficientWidth unless A allows n + 1 more thinnings
    check_double_zn_order(part.lattice.prime)


def _nested_ranks(state: StabilizerState, part: AnnulusPartition, n: int) -> dict[str, np.ndarray]:
    """g_R of AB, BC, B and ABC at each level i = 0 .. n+1 of `nested_annulus_table`.

    An edge of the full A at doubled x-coordinate mx survives a thinning
    steps deeper than A's box (x0, x1) iff steps <= min(mx - x0, x1 - 1 - mx),
    its depth, so it joins at level n + 1 - depth (0 if deeper).  Two join
    masks (`_forest_joins`) are taken once, over B then A's columns and over
    B, C then A's, with A's columns in level order; every level's forest
    sizes, and B's and BC's, are prefix counts of their joins.
    """
    gens, E, p = state.gens, state.n, state.lattice.prime

    def graph(edges):
        return _column_graph(gens, np.concatenate([edges, edges + E]), p)

    def prefix_forests(u, v):
        return np.concatenate([[0], np.cumsum(_forest_joins(np.concatenate(u), np.concatenate(v)))])

    a = part.region_edges("A")
    x0, _, x1, _ = part.bar_boxes()["A"]
    mx = state.lattice.edge_midpoints[a, 0]
    join = np.maximum(n + 1 - np.minimum(mx - x0, x1 - 1 - mx), 0)
    levels = np.arange(n + 2)
    size_a = np.searchsorted(np.sort(join), levels, side="right")  # |A_i|
    ua, va, pos = graph(a)
    column_join = join[pos % len(a)]  # pos runs over A's X then Z columns
    order = np.argsort(column_join, kind="stable")
    ua, va = ua[order], va[order]
    present = np.searchsorted(column_join[order], levels, side="right")  # A's columns at level i
    b, c = part.region_edges("B"), part.region_edges("C")
    (ub, vb, _), (uc, vc, _) = graph(b), graph(c)
    f_ab = prefix_forests((ub, ua), (vb, va))
    f_abc = prefix_forests((ub, uc, ua), (vb, vc, va))
    nb, nbc = len(ub), len(ub) + len(uc)
    return {
        "AB": 2 * (len(b) + size_a) - f_ab[nb + present],
        "BC": np.full(n + 2, 2 * (len(b) + len(c)) - f_abc[nbc]),
        "B": np.full(n + 2, 2 * len(b) - f_ab[nb]),
        "ABC": 2 * (len(b) + len(c) + size_a) - f_abc[nbc + present],
    }


def nested_annulus_certificate(
    state: StabilizerState, part: AnnulusPartition, n: int
) -> tuple[float, CmiCertificate, dict[str, np.ndarray]]:
    """`annulus_cmi_certificate` on the full partition, read from level n + 1
    of the nested ranks, together with those ranks (`_nested_ranks`) for
    `nested_annulus_table`: the widest regions are ranked once for both."""
    check_nested_levels(part, n)
    g = _nested_ranks(state, part, n)
    sizes = {name: len(part.region_edges(name)) for name in _CERTIFICATE_REGIONS}
    ranks = {name: int(g[name][n + 1]) for name in _CERTIFICATE_REGIONS}
    return (*_certificate(state.lattice.prime, sizes, ranks), g)


def nested_annulus_table(
    state: StabilizerState, part: AnnulusPartition, n: int, ranks: dict[str, np.ndarray] | None = None
) -> audit.AuditTrace:
    """Table I_i^(a) over nested annuli A_0 BC c ... c A_{n+1} BC = ABC.

    Level i uses the partition thinned n+1-i times (one edge-column per
    side per step); the full partition must be wide enough for n+1 steps.
    Ranks never read the frame, so one CMI per level on the given state
    fills all p^2 sector rows.  Every level's ranks are prefix counts of two
    join masks (`_nested_ranks`, `_forest_joins`), or are the `ranks` that
    `nested_annulus_certificate` returned for this state, partition and n.
    """
    check_nested_levels(part, n)
    p = state.lattice.prime
    g = _nested_ranks(state, part, n) if ranks is None else ranks
    levels = [int(c) * math.log(p) for c in g["B"] + g["ABC"] - g["AB"] - g["BC"]]
    table = np.tile(levels, (p * p, 1))
    cat = double_zn_category(p)
    dims = quantum_dimensions(cat)
    fp = fusion_probabilities(cat, dims)
    return audit.AuditTrace(
        labels=cat.labels,
        table=table,
        fp=fp,
        p_star=closed_form_fixed_point(dims),
        a0="00",
        provenance="stabilizer_tee",
    )
