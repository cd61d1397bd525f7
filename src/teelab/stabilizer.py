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

Generators.  Rows are numbered by arithmetic: plaquette (x, y) is row
y W + x, then vertex (x, y) is row W H + y (W + 1) + x - 1, in raster order
without the redundant vertex (0, 0).  Every column of the generator matrix
is +1 on one row and -1 on another, or has fewer entries (see Entropies
below), so the matrix is stored as its oriented column graph
(`ColumnGraph`): two int32 per column, 16 bytes per edge, the same at every
prime.  `build_ground_state` writes the graph in closed form from that
numbering, and certifies the matrix on it by two array programs: the
symplectic form summed over the at most four (X end, Z end) pairs of each
edge, and full rank as the graph's connectivity, labelled in hook-and-jump
rounds.  The rows' own supports (`_fill`) are written only for the few rows
whose phases or entry counts a reader needs.  The dense E x 2E matrix and
its Gram product and rank are the tests' oracles, and are built only there.

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
components (`_edge_ranks`) on the column graph that the build wrote.  This is the
counting behind the region entropies of Hamma, Ionicioiu & Zanardi, PRA 71,
022315 (2005).  The subgroup itself is read from the same graph, with no
elimination.  A combination c . G vanishes on a column outside R iff c is
equal on the column's two rows, or 0 on its one row, so c . G is supported
in R iff c is constant on each cluster of rows that the columns outside R
join, and 0 on the sentinel's cluster.  G has full rank, so the sums of the
g_R clusters off the sentinel are a basis of the subgroup; the clusters
outside ABC are labelled once, and a region inside ABC relabels only the
nodes that ABC's columns touch (`_region_phases`).  An element's phase is
linear in the element, so a cluster's phase under a frame is the sum of its
rows' phases (`_row_phases`, the one place the sign convention above is
written), and two reductions on R are compared by their clusters' phases
alone: the assumption checks report the violating labels with no
elimination.  A canonical basis of the subgroup, the symplectic complement
of G|_R in R's columns by two eliminations over F_p, a nullspace and then
its RREF (`restricted_canonical`), is built only for `reduction_relation`,
which writes out a witness; no CLI run calls either, and the dense generator
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
from .fusion import check_double_zn_order, double_zn_category
from . import audit
from .gfp import nullspace_mod_p, rref_mod_p

SectorLabel = tuple[int, int]  # (electric charge, magnetic flux) in Z_p x Z_p

# Byte cap on every large allocation.  A lattice is refused when its charge
# of LATTICE_BYTES_PER_EDGE exceeds it (square lattices up to 1447 x 1447
# fit), and a restricted basis when its dense (rows touching R) x 2|R|
# generator block does.  The tests' dense oracles are held to it too: a dense
# reduction's p^|R| x p^|R| complex matrix, and the dense E x 2E generator
# matrix (square lattices up to 44 x 44).
# The build peaks well above its 16-byte-per-edge column graph: ru_maxrss
# 134 MiB at 600 x 600 (11 MiB of graph) and 310 MiB at 1000 x 1000
# (31 MiB), p = 2.
GENS_BYTES_CAP = 2**28

# Bytes per edge that a lattice is charged against GENS_BYTES_CAP.
LATTICE_BYTES_PER_EDGE = 64

# Every toric-code generator acts on at most this many edges.
MAX_SUPPORT = 4

# Bytes per p^4 that the assumption checks charge against GENS_BYTES_CAP: their
# (p^2, p^2) int64 label tables (the fusion targets and their temporaries)
# peaked under tracemalloc at 24.0-25.0 bytes per p^4 for p = 13 to 53 (181 MiB
# at p = 53), so p = 53 is admitted and p = 59 refused.
LABEL_TABLE_BYTES = 24
# Bytes per (cluster, s, a) entry of a fusion-step chunk: two int16 and up to
# four bool planes.
_FUSION_STEP_BYTES = 8


def check_label_tables(p: int) -> None:
    """Raise DimensionCap when the assumption checks' (p^2, p^2) label tables
    would exceed GENS_BYTES_CAP (LABEL_TABLE_BYTES per p^4)."""
    nbytes = LABEL_TABLE_BYTES * p**4
    if nbytes > GENS_BYTES_CAP:
        raise DimensionCap(
            f"p = {p}: the assumption checks' (p^2, p^2) label tables would take {nbytes} bytes, "
            f"over the {GENS_BYTES_CAP}-byte cap"
        )


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
        charge = LATTICE_BYTES_PER_EDGE * self.n_edges
        if charge > GENS_BYTES_CAP:
            raise DimensionCap(
                f"{self.width} x {self.height} lattice: {self.n_edges} edges at the "
                f"{LATTICE_BYTES_PER_EDGE}-byte-per-edge charge come to {charge} bytes, "
                f"over the {GENS_BYTES_CAP}-byte cap"
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
        return self.midpoints(np.arange(self.n_edges))

    def midpoints(self, edges: np.ndarray) -> np.ndarray:
        """Doubled coordinates of the given edges' midpoints, shape (len(edges), 2):
        (2x + 1, 2y) for horizontal edge (x, y), (2x, 2y + 1) for vertical."""
        v = edges >= self.n_h_edges
        y, x = np.divmod(edges - v * self.n_h_edges, self.width + v)
        return np.stack([2 * x + 1 - v, 2 * y + v], axis=1)

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


@dataclass(frozen=True, eq=False)
class ColumnGraph:
    """The generator matrix over F_p stored as its oriented column graph.

    Column c, X on edge c for c < n_edges and Z on edge c - n_edges after,
    is e_{u[c]} - e_{v[c]} over the rows: +1 on row u[c] and -1 on row
    v[c], where the sentinel n_rows stands for a missing end.  Every toric-code
    column has this shape (see the module docstring), so the pair is a
    lossless encoding of the matrix at every prime: two int32 per column.
    """

    u: np.ndarray  # (2 n_edges,) int32: the row holding +1, or n_rows
    v: np.ndarray  # (2 n_edges,) int32: the row holding -1, or n_rows
    n_rows: int

    def __post_init__(self):
        self.u.setflags(write=False)
        self.v.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.u) // 2

    @property
    def nbytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColumnGraph)
            and self.n_rows == other.n_rows
            and all(a is b or np.array_equal(a, b) for a, b in ((self.u, other.u), (self.v, other.v)))
        )

    def region_block(self, edges: np.ndarray, p: int) -> np.ndarray:
        """The rows with a nonzero entry on the sorted, unique edges, in row
        order, on those edges' X then Z columns, mod p: shape (rows,
        2 len(edges)).  Read from the graph in O(|edges|); a block over
        GENS_BYTES_CAP is DimensionCap before it is allocated."""
        columns = np.concatenate([edges, edges + self.n_edges])
        touching, row = np.unique(np.concatenate([self.u[columns], self.v[columns]]), return_inverse=True)
        k = int(np.searchsorted(touching, self.n_rows))  # the sentinel, if touched, is last
        check_dense_cap(k, len(columns))
        out = np.zeros((k, len(columns)), dtype=np.int64)
        col, value = np.tile(np.arange(len(columns)), 2), np.repeat([1, p - 1], len(columns))
        real = row < k
        out[row[real], col[real]] = value[real]
        return out


@dataclass(frozen=True)
class StabilizerState:
    """Full-rank ground generators over F_p conjugated by the Pauli frame."""

    lattice: Lattice
    gens: ColumnGraph  # n_edges rows
    frame: np.ndarray  # (2 n_edges,) mod p: the conjugating string's vector

    def __post_init__(self):
        self.frame.setflags(write=False)

    @property
    def n(self) -> int:
        return self.lattice.n_edges


def _fill(lat: Lattice, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The supports (cols, vals) of the given generator rows, each of shape
    (len(rows), MAX_SUPPORT) int64: row i is sum_k vals[i, k] e_{cols[i, k]}
    mod p over the 2 n_edges columns, with the padding (column 0, value 0)
    in unused slots.

    Over the n_h = W (H + 1) horizontal edges and then the vertical ones:
    plaquette r = y W + x takes Z on edges r, n_h + r + y + 1, r + W and
    n_h + r + y; vertex q = y (W + 1) + x, row W H + q - 1, takes X on its
    east, west, north and south edges q - y, q - y - 1, n_h + q and
    n_h + q - W - 1 where they exist.
    """
    p, E, W, H, n_h = lat.prime, lat.n_edges, lat.width, lat.height, lat.n_h_edges
    P = W * H
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.empty((len(rows), MAX_SUPPORT), dtype=np.int64)
    vals = np.empty((len(rows), MAX_SUPPORT), dtype=np.int64)
    plaquette = rows < P
    r = rows[plaquette]
    cols[plaquette] = E + r[:, None] + [0, n_h + 1, W, n_h] + (r // W)[:, None] * [0, 1, 0, 1]
    vals[plaquette] = np.array([1, 1, -1, -1]) % p
    q = rows[~plaquette] - (P - 1)
    y, x = np.divmod(q, W + 1)
    has = np.stack([x < W, x > 0, y < H, y > 0], axis=1)
    cols[~plaquette] = (q[:, None] + [0, -1, n_h, n_h - W - 1] - y[:, None] * [1, 1, 0, 0]) * has
    vals[~plaquette] = has * (np.array([1, -1, 1, -1]) % p)
    return cols, vals


def _check_graph_commutation(gens: ColumnGraph, p: int) -> None:
    """Raise RankDeficiency unless every pair of rows has symplectic form 0 mod p.

    omega(a, b) = sum_e x_a[e] z_b[e] - z_a[e] x_b[e].  Edge e's X column has
    the ends u[e] (+1) and v[e] (-1), and its Z column u[E + e] (+1) and
    v[E + e] (-1), so each of its at most four pairs (a X end, b Z end)
    adds x_a z_b = +-1 to omega(a, b) and its negative to omega(b, a).  A
    pair is keyed min(a, b) n_rows + max(a, b), with the sign of what it adds
    to omega(min, max) as the key's low bit, and one sort groups the keys.
    The smallest bad key names the rows.
    """
    E, n = gens.n_edges, gens.n_rows
    keys = []
    for i, a in enumerate((gens.u[:E], gens.v[:E])):
        for j, b in enumerate((gens.u[E:], gens.v[E:])):
            live = (a != n) & (b != n) & (a != b)  # a pair on one row adds 0
            a_, b_ = a[live].astype(np.int64), b[live].astype(np.int64)
            # x_a z_b is +1 iff both ends are u or both are v; omega(min, max)
            # gets it with the sign of b - a
            keys.append((np.minimum(a_, b_) * n + np.maximum(a_, b_)) * 2 + ((b_ > a_) == (i == j)))
    key = np.concatenate(keys)
    del keys, live, a_, b_
    key.sort()
    head = np.flatnonzero(np.diff(key >> 1, prepend=-1))
    form = 2 * np.add.reduceat(key & 1, head) - np.diff(head, append=len(key))  # pairs adding +1 less -1
    bad = np.flatnonzero(form % p)
    if bad.size:
        i, j = divmod(int(key[head[bad[0]]] >> 1), n)
        raise RankDeficiency(f"generators do not commute: rows {i} and {j}")


def _check_graph_rank(gens: ColumnGraph) -> None:
    """Raise RankDeficiency unless the rows are independent over F_p.

    The rank is nodes minus components of the column graph on the rows and
    the sentinel n_rows (`_forest_size`; see the module docstring), so the
    rows are independent iff that graph is connected.
    """
    rank = _forest_size(gens.u, gens.v, gens.n_rows + 1)
    if rank < gens.n_rows:
        raise RankDeficiency(f"generator matrix is not full rank: rank {rank} of {gens.n_rows} rows")


def build_ground_state(lat: Lattice) -> StabilizerState:
    """Ground state: all plaquette operators plus all vertex operators but one.

    The product of all vertex operators is the identity (each edge enters
    twice with opposite signs), so one vertex generator is redundant and the
    remaining V - 1 + P = n_edges generators (Euler) are independent.  Both
    facts are checked on the column graph (`_check_graph_commutation`,
    `_check_graph_rank`), not assumed.  The graph is written in closed form
    from the row numbering and the signs of `_fill`: horizontal edge
    e = y W + x runs from vertex q = e + y to q + 1 and vertical edge
    n_h + q from vertex q to q + W + 1, so an X column joins rows
    W H + q - 1 (+1) and the far end's row (-1); horizontal edge e is the
    south edge of plaquette e (+1) and the north edge of e - W (-1), and
    vertical edge n_h + q the east edge of plaquette q - y - 1 (+1) and the
    west edge of q - y (-1).  The dropped vertex (0, 0) and the plaquettes
    beyond the boundary are the sentinel E.  The closed form's temporaries
    are released before the checks, which set the build's peak.
    """
    p, E, W, n_h = lat.prime, lat.n_edges, lat.width, lat.n_h_edges
    P = W * lat.height
    u = np.empty(2 * E, dtype=np.int32)
    v = np.empty(2 * E, dtype=np.int32)
    e = np.arange(n_h, dtype=np.int32)
    q = e + e // W
    u[:n_h], v[:n_h] = q + (P - 1), q + P
    u[E:E + n_h], v[E:E + n_h] = e, e - W
    q = np.arange(E - n_h, dtype=np.int32)
    u[n_h:E], v[n_h:E] = q + (P - 1), q + (P + W)
    r = q - q // (W + 1)
    u[E + n_h:], v[E + n_h:] = r - 1, r
    del e, q, r
    u[[0, n_h]] = E  # both edges at the dropped vertex (0, 0)
    u[E + P:E + n_h] = E  # the north boundary's horizontal edges
    v[E:E + W] = E  # the south boundary's
    u[E + n_h::W + 1] = E  # the west boundary's vertical edges
    v[E + n_h + W::W + 1] = E  # the east boundary's
    gens = ColumnGraph(u=u, v=v, n_rows=E)
    _check_graph_commutation(gens, p)
    _check_graph_rank(gens)
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

    @cached_property
    def letter_masks(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The sorted int64 ids of the edges in the smallest box that holds
        every bar, and so the hole, and each letter's mask over them, from
        the edges' midpoints: built once per partition."""
        boxes = self.bar_boxes()
        x0, y0, x1, y1 = np.array(list(boxes.values())).T
        window = self.lattice.edges_in_box((x0.min(), y0.min(), x1.max(), y1.max()))
        mid = self.lattice.midpoints(window)
        mx, my = mid[:, :1], mid[:, 1:]  # one row per edge, one column per box
        inside = dict(zip(boxes, ((x0 <= mx) & (mx < x1) & (y0 <= my) & (my < y1)).T))
        masks = {ch: np.logical_or.reduce([inside[name] for name in names]) for ch, names in _LETTER_BOXES.items()}
        return window, masks

    def region_edges(self, spec: str) -> np.ndarray:
        """Sorted, unique int64 edge ids of a region: any combination of the letters A, B, C."""
        window, masks = self.letter_masks
        inside = np.zeros(len(window), dtype=bool)
        for ch in spec:
            if ch not in masks:
                raise MalformedInput(f"unknown region letter {ch!r}")
            inside |= masks[ch]
        return window[inside]


def centered_annulus(lat: Lattice, width: int, hole_size: int = 3, a_width: int | None = None) -> AnnulusPartition:
    """An annulus of the given bar width with a centered hole and centered origin."""
    aw = width if a_width is None else a_width
    hx0 = (lat.width - hole_size + (aw - width)) // 2
    hy0 = (lat.height - hole_size) // 2
    hole = (hx0, hy0, hx0 + hole_size, hy0 + hole_size)
    origin = (hx0 + hole_size // 2, hy0 + hole_size // 2)
    return AnnulusPartition(lattice=lat, origin=origin, hole=hole, width=width, a_width=aw)


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


# ---------------------------------------------------------------------------
# entropies


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """The ids sorted, each once.

    Deduplicated by a sort and a neighbour mask: `np.unique` without
    `return_inverse` takes a slower hash path and, in numpy 2.4, imports
    `numpy.ma` on first use."""
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


def _roots(parent: np.ndarray) -> np.ndarray:
    """Each node's root, by pointer jumping over the parent links (Shiloach &
    Vishkin 1982): a chain of length l is resolved in log2(l) rounds."""
    root = parent
    while ((up := root[root]) != root).any():
        root = up
    return root


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Each node's label, the smallest node of its component, in the graph
    of edges (u[k], v[k]) on nodes 0 .. n - 1 (Shiloach & Vishkin 1982).

    Each round, every edge that joins two trees hooks the larger root onto
    the smaller and pointer jumping (`_roots`) flattens the trees; links
    point down, so a component's smallest node is its one root at the end.
    Labels are int32 where they fit.
    """
    root = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    ru, rv = u.astype(root.dtype, copy=False), v.astype(root.dtype, copy=False)  # each node is its own root
    while (live := ru != rv).any():
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        root = _roots(root)
        ru, rv = root[u], root[v]
    return root


def _compact(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted nodes that the edges (u[k], v[k]) touch, and the edges
    renumbered to the nodes' positions in that array."""
    nodes, ids = np.unique(np.concatenate([u, v]), return_inverse=True)
    return nodes, ids[:len(u)], ids[len(u):]


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
    nodes, ru, rv = _compact(u, v)
    n = len(nodes)
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


def _row_phases(lat: Lattice, rows: np.ndarray, frames) -> np.ndarray:
    """The phase v_x . t_z - v_z . t_x of each given generator row v under
    each frame t, not reduced mod p: shape (len(frames), len(rows)).

    An X entry on edge e pairs with t_z[e] and a Z entry with -t_x[e], so a
    frame is read only at the partner columns of the rows' supports
    (`_fill`); the padding (column 0, value 0) adds nothing.
    """
    E = lat.n_edges
    cols, vals = _fill(lat, rows)
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
    graph edges, over the nodes they touch (see the module docstring).
    """
    return _edge_ranks(state, [_edges(state, region)])[0]


def _edge_ranks(state: StabilizerState, regions) -> list[int]:
    """`region_rank` of each sorted, unique edge array, from one labelling
    (`_components`) of their column graphs side by side: node x of region
    i's graph is node i (n_rows + 1) + x, renumbered to the nodes touched."""
    u, v = state.gens.u, state.gens.v
    n = state.gens.n_rows + 1
    columns = [np.concatenate([edges, edges + state.n]) for edges in regions]
    offset = np.repeat(np.arange(len(regions)) * n, [len(c) for c in columns])
    picked = np.concatenate(columns)
    nodes, iu, iv = _compact(u[picked] + offset, v[picked] + offset)
    root = _components(iu, iv, len(nodes))
    joins = np.bincount(nodes[root != np.arange(len(nodes))] // n, minlength=len(regions))
    return [len(c) - int(j) for c, j in zip(columns, joins)]


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
    regions = [part.region_edges(name) for name in _CERTIFICATE_REGIONS]
    sizes = {name: len(edges) for name, edges in zip(_CERTIFICATE_REGIONS, regions)}
    ranks = dict(zip(_CERTIFICATE_REGIONS, _edge_ranks(state, regions)))
    return _certificate(state.lattice.prime, sizes, ranks)


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
    p = state.lattice.prime
    block = state.gens.region_block(edges, p)
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


def reduction_relation(
    state1: StabilizerState, state2: StabilizerState, region: tuple[int, ...]
) -> tuple[str, str | None]:
    """Relation between two reductions on a region: 'equal', or 'orthogonal'
    with a witness.

    Both states must share one generator matrix, as every sector state does,
    so their restricted groups coincide.  The reductions are then equal iff
    the phase assignments agree on a basis, and orthogonal otherwise (the
    phase difference is a character of the group, so the cross trace sums to
    zero).  The pair is decided on the canonical basis: the phase
    v_x . t_z - v_z . t_x of element v is linear in the frame t, so the
    states disagree on v iff v pairs to nonzero with their frame difference,
    and the witness is the first basis element on which they do.
    """
    _shared_gens((state1, state2))
    edges, vecs = restricted_canonical(state1, region)
    cols = _region_columns(state1, edges)
    hit = np.flatnonzero(_pairing(vecs, state1.frame[cols] - state2.frame[cols]) % state1.lattice.prime)
    if hit.size == 0:
        return "equal", None
    return "orthogonal", pauli_repr(state1, _embed(state1, edges, vecs[hit[0]]))


# ---------------------------------------------------------------------------
# assumption checks


def _fusion_strings(lat: Lattice, part: AnnulusPartition) -> tuple[np.ndarray, np.ndarray]:
    """The two unit strings (t_e, t_m) that every property-3 string is made
    of: they cross A radially along the hole's middle row, from A's west
    boundary to the hole's west boundary vertex and first plaquette column,
    so both endpoints sit in the removed strips."""
    hx0, hy0, hx1, hy1 = part.hole
    x_w = hx0 - part.a_width  # west boundary vertex column of A
    y = (hy0 + hy1) // 2  # a vertex row and a plaquette row of A, as hy0 < hy1
    return _row_strings(lat, y, (x_w, hx0), (x_w - 1, hx0))


def fusion_string(state: StabilizerState, part: AnnulusPartition, s: SectorLabel) -> np.ndarray:
    """Open string for property 3 that deposits s in the hole (`_fusion_strings`)."""
    t_e, t_m = _fusion_strings(state.lattice, part)
    # The anyon s must sit at the hole-side end of the string; sector strings
    # carry their anyon at the path start, so this eastward path runs with
    # inverted coefficients to deposit s (not its antiparticle) in the hole.
    c, f = s
    return (-c * t_e - f * t_m) % state.lattice.prime


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    violations: tuple  # the violating labels: (a, b), (region, a, b) or (s, a)


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


def verify_assumptions(states: dict[SectorLabel, StabilizerState], part: AnnulusPartition) -> AssumptionsReport:
    """Check the three sector-family properties exactly on the annulus.

    1. Global distinguishability: reductions on ABC are pairwise orthogonal.
    2. Local indistinguishability: reductions on AB and on BC are pairwise equal.
    3. Fusion: conjugating sector a by the string for s (`fusion_string`) and
       reducing to A'BC (one thinning step) equals the reduction of sector s x a.
    All states share one generator matrix, so each region has one restricted
    group, and two reductions are equal iff their phases agree on a basis of
    it, orthogonal otherwise (`_assumptions_report`).  Each property lists
    its violating labels, with no relation or witness: `reduction_relation`
    writes out a pair's witness.  Any family of p^2 states is accepted, each
    label's frame read as its own; the sector family itself is checked from
    two strings by `verify_sector_assumptions`.
    """
    p = next(iter(states.values())).lattice.prime
    if set(states) != {(c, f) for c in range(p) for f in range(p)}:
        raise MalformedInput(f"need all {p * p} sectors, got {len(states)}")
    base = _shared_gens(states.values())
    frames = [states[a].frame for a in sorted(states)]
    return _assumptions_report(base, part, frames, np.eye(p * p, dtype=np.int64))


def verify_sector_assumptions(ground: StabilizerState, part: AnnulusPartition) -> AssumptionsReport:
    """`verify_assumptions` on the p^2 sector states anchored at the
    partition's origin (`create_sector`), with no sector state built.

    Sector a = (c, f) has the frame ground + c t_e + f t_m, so every phase is
    linear in (1, c, f), and a region reads three frames.
    """
    p = ground.lattice.prime
    coef = np.stack([np.ones(p * p, dtype=np.int64), *np.divmod(np.arange(p * p), p)])  # (1, c, f)
    frames = [ground.frame, *_sector_strings(ground.lattice, part.origin)]
    return _assumptions_report(ground, part, frames, coef)


def _outside_clusters(state: StabilizerState, abc: np.ndarray, window: np.ndarray):
    """The clusters of rows that the columns outside ABC join, other than the
    sentinel's, in the order `_clusters` gives them over every row, read on
    the columns of `window` (sorted edges that hold ABC's) alone.

    A row with an entry outside the window is joined to the sentinel, which
    can only merge clusters into the sentinel's, so each cluster found off
    the sentinel's is one over every row.  The state is pure, so there are
    g_ABC of those (see the module docstring), and the window holds them all
    iff it finds g_ABC.  Returns (rows, cluster, K0, the cluster of each end
    of ABC's X then Z columns, K0 for the sentinel's, g_ABC); g_ABC is
    labelled in the same `_components` call, on a second copy of the nodes.
    """
    gens, E = state.gens, state.n
    columns = np.concatenate([window, window + E])
    in_abc = np.zeros(len(window), dtype=bool)
    in_abc[np.searchsorted(window, abc)] = True
    in_abc = np.tile(in_abc, 2)
    # a loop on the sentinel adds it as the last row and joins nothing
    rows, iu, iv = _compact(*(np.append(w[columns], gens.n_rows) for w in (gens.u, gens.v)))
    ids = np.stack([iu[:-1], iv[:-1]])
    m = len(rows)
    entries = np.count_nonzero(_fill(state.lattice, rows[:-1])[1], axis=1)
    leaves = np.flatnonzero(np.bincount(ids.ravel(), minlength=m)[:-1] < entries)
    outside, inner = ids[:, ~in_abc], ids[:, in_abc]
    root = _components(
        np.concatenate([outside[0], leaves, inner[0] + m]),
        np.concatenate([outside[1], np.full(len(leaves), m - 1), inner[1] + m]),
        2 * m,
    )
    nodes, cluster, k0 = _clusters(root[:m])
    node = np.full(m, k0)
    node[nodes] = cluster
    g_abc = 2 * len(abc) - int(np.count_nonzero(root[m:] != np.arange(m, 2 * m)))
    return rows[nodes], cluster, k0, node[inner], g_abc


def _region_phases(state: StabilizerState, abc: np.ndarray, window: np.ndarray, vectors, regions):
    """The cluster phases of each region inside ABC (sorted, unique edges),
    labelled on the nodes that ABC's columns touch: a (K, len(vectors))
    array mod p per region, K = g_R.

    The clusters of the columns outside ABC are labelled once
    (`_outside_clusters`), on the window's columns, or on every column if the
    window does not hold them all.  Each becomes one node, carrying the sum
    of its rows' phases under each vector (`_row_phases`), and the
    sentinel's cluster node K0.  A region R inside ABC joins these K0 + 1
    nodes by ABC's columns outside R, so its clusters cost O(|ABC|), not
    O(E); every region is labelled in one `_components` call, side by side,
    with their sentinels joined.
    A node's id orders clusters by their smallest row, so a region's
    clusters come in the order `_clusters` gives them over all rows.
    """
    rows, cluster, k0, ends, g_abc = _outside_clusters(state, abc, window)
    if k0 != g_abc:  # a cluster leaves the window
        rows, cluster, k0, ends, _ = _outside_clusters(state, abc, np.arange(state.n))
    weight = np.zeros((k0, len(vectors)), dtype=np.int64)
    np.add.at(weight, cluster, _row_phases(state.lattice, rows, vectors).T)
    k, n = k0 + 1, len(regions)
    sentinel = np.arange(n) * k + k0  # joined, so that the last node is the one sentinel
    graph = [np.stack([sentinel[:-1], sentinel[1:]])]
    for i, edges in enumerate(regions):
        inside = np.zeros(len(abc), dtype=bool)
        inside[np.searchsorted(abc, edges)] = True
        graph.append(ends[:, ~np.tile(inside, 2)] + i * k)  # ABC's columns outside the region
    u, v = np.concatenate(graph, axis=1)
    nodes, group, g = _clusters(_components(u, v, n * k))
    phases = np.zeros((g, len(vectors)), dtype=np.int64)
    np.add.at(phases, group, weight[nodes % k])
    region = np.zeros(g, dtype=np.int64)
    region[group] = nodes // k
    return np.split(phases % state.lattice.prime, np.cumsum(np.bincount(region, minlength=n))[:-1])


def _fusion_step(table: np.ndarray, moved: np.ndarray, p: int, chunk: int) -> np.ndarray:
    """bad[s, a]: whether property 3's string for s >= 1 moves label a off
    s x a, (table[:, a] + moved[:, s - 1] - table[:, s x a]) mod p != 0 on
    some cluster; row 0 is False.

    Label (c, f) x (c', f') is (c + c', f + f') mod p, so the columns s x a
    over all a are the table's (p, p) grid shifted cyclically by s: a window
    of the grid tiled twice per axis, read with no index arithmetic.  Every
    entry is a residue mod p <= 57 (`check_label_tables`), so the int16
    differences lie in (-2p, p) and vanish mod p iff they are 0 or -p.  One
    array program per `chunk` labels s.
    """
    k, n = table.shape
    grid = np.tile(table.astype(np.int16).reshape(k, p, p), (1, 2, 2))
    shifted = np.lib.stride_tricks.sliding_window_view(grid, (p, p), axis=(1, 2))  # [:, c, f]: s = (c, f)
    steps = np.concatenate([np.zeros((k, 1), dtype=np.int16), (moved % p).astype(np.int16)], axis=1)
    bad = np.empty((n, n), dtype=bool)
    for lo in range(0, n, chunk):
        s = np.arange(lo, min(lo + chunk, n))
        diff = shifted[:, s // p, s % p] - grid[:, None, :p, :p]
        diff -= steps[:, s, None, None]
        bad[s] = ((diff != 0) & (diff != -p)).any(axis=0).reshape(len(s), n)
    return bad


def _assumptions_report(base, part, frames, coef) -> AssumptionsReport:
    """The three properties for p^2 labels, numbered a = c p + f, each as the
    list of its violating labels in row-major order.

    A region's basis is the sums of its row clusters (`_region_phases`), and a
    phase is linear in the group element and the frame, so a region reads
    `frames` (on A'BC also the two unit strings t_e', t_m' of
    `_fusion_strings`) into one matrix M of cluster phases.  Label a's frame
    is sum_k coef[k, a] frames[k], so its column of the region's label table
    is M coef[:, a] mod p, and two labels' reductions are equal iff their
    columns are.  Property 3's string for s = (c, f) is -c t_e' - f t_m'
    (`fusion_string`).  The fusion step runs in chunks of labels s held to
    LABEL_TABLE_BYTES per p^4.
    """
    p = base.lattice.prime
    check_label_tables(p)
    labels = np.arange(p * p)
    order = [(int(c), int(f)) for c, f in zip(labels // p, labels % p)]
    vectors = [*frames, *_fusion_strings(base.lattice, part)]
    regions = [part.region_edges(name) for name in ("ABC", "AB", "BC")] + [part.thin(1).region_edges("ABC")]
    # every region lies inside ABC, and the box around the bars holds the hole
    region_phases = _region_phases(base, regions[0], part.letter_masks[0], vectors, regions)

    def table(r):
        """Region r's M, less its clusters of phase 0, which tell no labels
        apart, and its label table."""
        phases = region_phases[r]
        phases = phases[phases.any(axis=1)]
        return phases, phases[:, :len(frames)] @ coef % p

    def same(table):
        """Whether labels a and b have equal columns in the table, over all (a, b)."""
        ranked = np.lexsort(table) if len(table) else labels
        step = (table[:, ranked[1:]] != table[:, ranked[:-1]]).any(axis=0)
        cls = np.empty_like(labels)
        cls[ranked] = np.cumsum(np.concatenate([[False], step]))
        return cls[:, None] == cls

    def pairs(bad):
        """(order[i], order[j]) for each true bad[i, j], its rows screened first."""
        rows = np.flatnonzero(bad.any(axis=1))
        i, j = np.nonzero(bad[rows])
        return [(order[a], order[b]) for a, b in zip(rows[i].tolist(), j.tolist())]

    upper = labels[:, None] < labels  # each pair (a, b) once
    viol1 = pairs(same(table(0)[1]) & upper)
    viol2 = [(name, *ab) for r, name in ((1, "AB"), (2, "BC")) for ab in pairs(~same(table(r)[1]) & upper)]
    phases, thinned = table(3)
    moved = -phases[:, -2:] @ np.stack(np.divmod(labels[1:], p))
    # a chunk's (K, chunk, p^2) program takes at most half the label tables' charge
    chunk = max(1, LABEL_TABLE_BYTES * p**2 // (2 * _FUSION_STEP_BYTES * max(len(thinned), 1)))
    viol3 = pairs(_fusion_step(thinned, moved, p, chunk))
    return AssumptionsReport(*(
        PropertyResult(name, not viol, tuple(viol))
        for name, viol in (("global_distinguishability", viol1), ("local_indistinguishability", viol2),
                           ("fusion", viol3))
    ))


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
    E = state.n
    u, v = state.gens.u, state.gens.v

    def graph(edges):
        columns = np.concatenate([edges, edges + E])
        return u[columns], v[columns]

    def prefix_forests(u, v):
        return np.concatenate([[0], np.cumsum(_forest_joins(np.concatenate(u), np.concatenate(v)))])

    a = part.region_edges("A")
    x0, _, x1, _ = part.bar_boxes()["A"]
    mx = state.lattice.midpoints(a)[:, 0]
    join = np.maximum(n + 1 - np.minimum(mx - x0, x1 - 1 - mx), 0)
    levels = np.arange(n + 2)
    size_a = np.searchsorted(np.sort(join), levels, side="right")  # |A_i|
    ua, va = graph(a)
    column_join = np.tile(join, 2)  # A's X then Z columns
    order = np.argsort(column_join, kind="stable")
    ua, va = ua[order], va[order]
    present = np.searchsorted(column_join[order], levels, side="right")  # A's columns at level i
    b, c = part.region_edges("B"), part.region_edges("C")
    (ub, vb), (uc, vc) = graph(b), graph(c)
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
    return audit.nested_trace(double_zn_category(p), levels, "stabilizer_tee")
