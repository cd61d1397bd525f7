"""Property tests: the sparse ground-state build against the dense
construction it replaced, its arithmetic support fill against the per-slot
fill, graph ranks against elimination (on toric codes
and on random graph-shaped generators) and the incremental nested table
against its per-level loop, the certificate read from the nested ranks
against the region-by-region one, row-cluster counts against region ranks,
the column graph read once and the clusters labelled on ABC's nodes against
the per-region graph and the labelling over every row, the shifted-grid
fusion step against its per-label loop, column-index row lookups against the full-slot
scan, restricted bases, frame phases and dense reductions against the
dense-matrix oracles on random valid annulus geometries and primes, the frame-difference assumption
checks against their per-pair loop oracle, the built rows against the
label-list oracle, rank_mod_p against a brute-force
span count, the row-sum Perron root of permutation sums against the
power iteration, the array Taylor sweep against its loop oracle on random
row-stochastic tensors and against its per-pair program on random
categories of up to 12 labels, its sparse fused distributions against the
dense einsum, the array audit premises against the per-point
chain replay on random and chosen traces, the sorted edge dedupe against
np.unique, fusion-table validation against a brute-force fusion-ring
check on randomly edited bundled tables, and box and region edge sets
against a scan of every edge midpoint."""

import json
import math
import re
from dataclasses import replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

from teelab import audit, fusion, gfp, stabilizer as st  # noqa: E402
from teelab.errors import InvalidCategory, MalformedInput, PremiseViolated, RankDeficiency  # noqa: E402

import dense_oracles as dense  # noqa: E402
from dense_oracles import dense_generators, frame_phases  # noqa: E402
from oracles import (  # noqa: E402
    SparseGenerators,
    _check_commutation,
    _check_independent,
    _column_graph,
    _union_find,
    assemble_bound_loop,
    cluster_roots,
    associativity_failure_einsum,
    create_sector_loop,
    edge_midpoints_loop,
    edges_in_box_scan,
    forest_joins_union_find,
    fusion_step_loop,
    fusion_string_loop,
    fusion_strings_ending,
    graph_supports,
    ground_supports_per_slot,
    is_fusion_ring,
    nested_levels_loop,
    plaquette_boundary,
    region_entropy,
    region_phases_per_region,
    region_rank_elimination,
    region_rank_per_region,
    row_labels,
    rows_on_scan,
    sector_family,
    sector_witness_phases_loop,
    state_supports,
    taylor_bound_sweep_loop,
    taylor_bound_sweep_pairs,
    verify_assumptions_loop,
    vertex_star,
    witnessed,
)

PRIMES = (2, 3, 5, 7, 11, 13)


@lru_cache(maxsize=8)
def ground(width: int, height: int, p: int) -> st.StabilizerState:
    return st.build_ground_state(st.Lattice(width=width, height=height, prime=p))


def complement_rank(state: st.StabilizerState, region) -> int:
    """Oracle: g_R = E - rank of the generators on the region's complement columns."""
    E = state.n
    outside = np.setdiff1d(np.arange(E), np.asarray(region, dtype=np.int64))
    cols = np.concatenate([outside, outside + E])
    return E - gfp.rank_mod_p(dense_generators(state)[:, cols], state.lattice.prime)


def dense_restricted(state: st.StabilizerState, region) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the restricted group from the dense matrix.  The left nullspace
    of the off-region columns combines the generators into the group; one
    RREF gives (Pauli vectors at full width, generator coefficients)."""
    p, E = state.lattice.prime, state.n
    gens = dense_generators(state)
    outside = np.setdiff1d(np.arange(E), np.asarray(region, dtype=np.int64))
    null = gfp.left_nullspace_mod_p(gens[:, np.concatenate([outside, outside + E])], p)
    red, _ = gfp.rref_mod_p(np.hstack([null @ gens, null]), p)
    return red[:, : 2 * E], red[:, 2 * E:]


def dense_region_density(state: st.StabilizerState, region) -> np.ndarray:
    """Oracle: the reduction summed over the group, each element formed from
    the dense generators and their phases by the XZ-ordered product rule."""
    region = sorted(set(region))
    p, E = state.lattice.prime, state.n
    gens = dense_generators(state)
    _, coeffs = dense_restricted(state, region)
    basis = [gfp.combine_rows(gens, frame_phases(state), c, E, p) for c in coeffs]
    omega = np.exp(2j * np.pi / p)
    xmat = np.roll(np.eye(p), 1, axis=0)
    zmat = np.diag(omega ** np.arange(p))
    dim = p ** len(region)
    total = np.zeros((dim, dim), dtype=complex)
    for exps in product(range(p), repeat=len(basis)):
        vec, phase = np.zeros(2 * E, dtype=np.int64), 0
        for (v, f), e in zip(basis, exps):
            vec, phase = gfp.pauli_mul(vec, phase, *gfp.pauli_pow(v, f, e, E, p), E, p)
        op = np.array([[omega**phase]])
        for e in region:
            local = np.linalg.matrix_power(xmat, int(vec[e])) @ np.linalg.matrix_power(zmat, int(vec[E + e]))
            op = np.kron(op, local)
        total += op
    return total / dim


def repr_all_edges(state: st.StabilizerState, vec: np.ndarray) -> str:
    """Oracle: pauli_repr's loop over every edge of the lattice."""
    E = state.n
    parts = []
    for e in range(E):
        labels = []
        if vec[e]:
            labels.append(f"X^{int(vec[e])}")
        if vec[E + e]:
            labels.append(f"Z^{int(vec[E + e])}")
        if labels:
            mx, my = state.lattice.edge_midpoints[e]
            kind = "h" if my % 2 == 0 else "v"
            parts.append(f"{'.'.join(labels)}[{kind}({mx},{my})]")
    return " ".join(parts) if parts else "I"


def dense_build(lat: st.Lattice) -> np.ndarray:
    """Oracle: the dense E x 2E generator matrix, built row by row."""
    p = lat.prime
    E = lat.n_edges
    rows = []
    for y in range(lat.height):
        for x in range(lat.width):
            vec = np.zeros(2 * E, dtype=np.int64)
            for e, sign in plaquette_boundary(lat, x, y):
                vec[E + e] = sign % p
            rows.append(vec)
    for y in range(lat.height + 1):
        for x in range(lat.width + 1):
            if (x, y) == (0, 0):
                continue
            vec = np.zeros(2 * E, dtype=np.int64)
            for e, sign in vertex_star(lat, x, y):
                vec[e] = sign % p
            rows.append(vec)
    return np.array(rows, dtype=np.int64)


def dense_commute(gens: np.ndarray, p: int) -> bool:
    """Oracle: the symplectic Gram product vanishes mod p."""
    E = gens.shape[1] // 2
    gx, gz = gens[:, :E], gens[:, E:]
    return not ((gx @ gz.T - gz @ gx.T) % p).any()


def dense_full_rank(gens: np.ndarray, p: int) -> bool:
    return gfp.rank_mod_p(gens, p) == gens.shape[0]


@settings(max_examples=30, deadline=None)
@given(
    width=hst.integers(4, 14), height=hst.integers(4, 14), p=hst.sampled_from(PRIMES), data=hst.data()
)
def test_sparse_build_matches_dense_oracle(width, height, p, data):
    lat = st.Lattice(width=width, height=height, prime=p)
    E = lat.n_edges
    state = ground(width, height, p)
    want = dense_build(lat)
    np.testing.assert_array_equal(dense_generators(state), want)
    # the build's local checks passed; the dense oracles agree
    assert dense_commute(want, p) and dense_full_rank(want, p)

    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    for _ in range(3):
        t = rng.integers(0, p, size=2 * E)
        np.testing.assert_array_equal(
            frame_phases(st.conjugate_by_string(state, t)), (want[:, :E] @ t[E:] - want[:, E:] @ t[:E]) % p
        )

    # one edited generator value breaks commutation, for both checks
    gens = state_supports(state)
    i = data.draw(hst.integers(0, E - 1))
    k = data.draw(hst.sampled_from(np.flatnonzero(gens.vals[i]).tolist()))
    vals = gens.vals.copy()
    vals[i, k] = (vals[i, k] + data.draw(hst.integers(1, p - 1))) % p
    edited = SparseGenerators(cols=gens.cols.copy(), vals=vals, n_edges=E)
    assert not dense_commute(dense_generators(edited), p)
    with pytest.raises(RankDeficiency, match="do not commute"):
        _check_commutation(edited, p)

    # the dropped (0, 0) vertex star back in place of a plaquette row: all
    # vertex stars together are dependent, and their spanning forest is one
    # edge short
    j = data.draw(hst.integers(0, lat.width * lat.height - 1))
    cols, vals = gens.cols.copy(), gens.vals.copy()
    cols[j], vals[j] = 0, 0
    for k, (e, sign) in enumerate(vertex_star(lat, 0, 0)):
        cols[j, k], vals[j, k] = e, sign % p
    restored = SparseGenerators(cols=cols, vals=vals, n_edges=E)
    assert dense_commute(dense_generators(restored), p) and not dense_full_rank(dense_generators(restored), p)
    _check_commutation(restored, p)
    with pytest.raises(RankDeficiency, match="not full rank") as oracle:
        _check_independent(restored, p)

    # the same row on the column graph: plaquette j's Z columns lose their
    # end j, and the star's east and north edges, which leave (0, 0) with
    # +1, gain it in place of the sentinel
    u, v = state.gens.u.copy(), state.gens.v.copy()
    u[u == j], v[v == j] = E, E
    u[[0, lat.n_h_edges]] = j
    graph = st.ColumnGraph(u=u, v=v, n_rows=E)
    np.testing.assert_array_equal(dense_generators(graph_supports(graph, p)), dense_generators(restored))
    st._check_graph_commutation(graph, p)
    with pytest.raises(RankDeficiency, match="not full rank") as fast:
        st._check_graph_rank(graph)
    assert str(fast.value) == str(oracle.value)


@settings(max_examples=60, deadline=None)
@given(
    width=hst.integers(4, 40), height=hst.integers(4, 40), p=hst.sampled_from((2, 3, 5, 7, 13)),
    seed=hst.integers(0, 2**32 - 1),
)
@example(width=4, height=40, p=13, seed=0)
@example(width=40, height=4, p=2, seed=1)
def test_support_fill_matches_per_slot_oracle(width, height, p, seed):
    # every row, and a random subset of rows in random order
    lat = st.Lattice(width=width, height=height, prime=p)
    want_cols, want_vals = ground_supports_per_slot(lat)
    rng = np.random.default_rng(seed)
    subset = rng.choice(lat.n_edges, size=rng.integers(0, lat.n_edges + 1), replace=False)
    for rows in (np.arange(lat.n_edges), subset):
        cols, vals = st._fill(lat, rows)
        for got, want in ((cols, want_cols[rows]), (vals, want_vals[rows])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(width=hst.integers(4, 40), height=hst.integers(4, 40), p=hst.sampled_from((2, 3, 5, 7, 13)))
@example(width=4, height=40, p=13)
@example(width=40, height=4, p=2)
def test_closed_form_graph_matches_fill_oracle(width, height, p):
    # the graph the build writes in closed form against the graph read from
    # the per-slot supports' column index, oriented by their signs; at p = 2,
    # where +1 = -1, the supports give no orientation to compare
    lat = st.Lattice(width=width, height=height, prime=p)
    E = lat.n_edges
    gens = st.build_ground_state(lat).gens
    want = _column_graph(SparseGenerators(*ground_supports_per_slot(lat), n_edges=E), p)
    assert gens.n_rows == want.n_rows == E and gens.nbytes == 16 * E
    assert gens.u.dtype == gens.v.dtype == np.int32
    assert not ((gens.u == E) & (gens.v == E)).any()  # no toric-code column is empty
    if p > 2:
        assert gens.u.tobytes() == want.u.tobytes() and gens.v.tobytes() == want.v.tobytes()
    else:
        for pick in (np.minimum, np.maximum):
            np.testing.assert_array_equal(pick(gens.u, gens.v), pick(want.u, want.v))
    # the graph does not depend on the prime
    assert st.build_ground_state(st.Lattice(width=width, height=height, prime=3)).gens == gens


@settings(max_examples=100, deadline=None)
@given(width=hst.integers(4, 9), height=hst.integers(4, 9), p=hst.sampled_from(PRIMES), data=hst.data())
def test_graph_commutation_message_matches_supports_oracle(width, height, p, data):
    # one moved end or one flipped orientation in the built graph: the graph
    # check raises what the supports oracle raises on the supports that the
    # edited graph encodes, or neither raises
    gens = ground(width, height, p).gens
    E = gens.n_edges
    u, v = gens.u.copy(), gens.v.copy()
    c = data.draw(hst.integers(0, 2 * E - 1))
    flip = data.draw(hst.booleans())
    if flip:
        u[c], v[c] = v[c], u[c]
    else:
        end, other = (u, v) if data.draw(hst.booleans()) else (v, u)
        end[c] = data.draw(hst.integers(0, E).filter(lambda r: r == E or r != other[c]))
    edited = st.ColumnGraph(u=u, v=v, n_rows=E)
    try:
        _check_commutation(graph_supports(edited, p), p)
        want = None
    except RankDeficiency as exc:
        want = str(exc)
    # every edge has a vertex and a plaquette end, so a flip breaks a pair's form at p > 2
    assert want is not None or not (flip and p > 2)
    if want is None:
        st._check_graph_commutation(edited, p)
    else:
        with pytest.raises(RankDeficiency) as fast:
            st._check_graph_commutation(edited, p)
        assert str(fast.value) == want


@settings(max_examples=200, deadline=None)
@given(p=hst.sampled_from((2, 3, 5)), n_edges=hst.integers(1, 4), data=hst.data())
def test_graph_commutation_matches_supports_oracle_on_random_graphs(p, n_edges, data):
    # rows with both X and Z ends, which the toric code never builds: a pair
    # adds to the form with the sign of which of its rows comes first
    n_rows = data.draw(hst.integers(1, 2 * n_edges))
    ends = hst.lists(hst.integers(0, n_rows), min_size=2 * n_edges, max_size=2 * n_edges)  # n_rows: no end
    u, v = (np.array(data.draw(ends), dtype=np.int32) for _ in range(2))
    v[(u == v) & (u != n_rows)] = n_rows  # a column's two ends are distinct rows
    graph = st.ColumnGraph(u=u, v=v, n_rows=n_rows)
    try:
        _check_commutation(graph_supports(graph, p), p)
        want = None
    except RankDeficiency as exc:
        want = str(exc)
    assert (want is None) == dense_commute(dense_generators(graph_supports(graph, p)), p)
    if want is None:
        st._check_graph_commutation(graph, p)
    else:
        with pytest.raises(RankDeficiency) as fast:
            st._check_graph_commutation(graph, p)
        assert str(fast.value) == want


@settings(max_examples=200, deadline=None)
@given(p=hst.sampled_from((2, 3, 5)), n_edges=hst.integers(1, 4), data=hst.data())
def test_local_checks_against_dense_oracles_on_random_rows(p, n_edges, data):
    # rows mixing X and Z entries, which the toric code never builds: the
    # local form must be antisymmetric
    n_rows = data.draw(hst.integers(1, 2 * n_edges))
    cols = np.zeros((n_rows, st.MAX_SUPPORT), dtype=np.int64)
    vals = np.zeros((n_rows, st.MAX_SUPPORT), dtype=np.int64)
    column = hst.integers(0, 2 * n_edges - 1)
    for i in range(n_rows):
        for k, c in enumerate(data.draw(hst.lists(column, max_size=st.MAX_SUPPORT, unique=True))):
            cols[i, k], vals[i, k] = c, data.draw(hst.integers(1, p - 1))
    gens = SparseGenerators(cols=cols, vals=vals, n_edges=n_edges)
    mat = dense_generators(gens)

    try:
        _check_commutation(gens, p)
        commute = True
    except RankDeficiency:
        commute = False
    assert commute == dense_commute(mat, p)


def dense_first_noncommuting(gens: np.ndarray, p: int) -> tuple[int, int] | None:
    """Oracle: the first nonzero (i, j) of the upper triangle of the
    symplectic Gram product G Lambda G^T mod p, in row-major order."""
    E = gens.shape[1] // 2
    gx, gz = gens[:, :E], gens[:, E:]
    bad = np.argwhere(np.triu((gx @ gz.T - gz @ gx.T) % p, 1))
    return (int(bad[0, 0]), int(bad[0, 1])) if len(bad) else None


@settings(max_examples=60, deadline=None)
@given(
    width=hst.integers(4, 9), height=hst.integers(4, 9), p=hst.sampled_from(PRIMES),
    n_mixed=hst.integers(0, 3), data=hst.data(),
)
def test_commutation_message_names_the_oracle_first_pair(width, height, p, n_mixed, data):
    # edited toric generators, plus rows that mix X and Z entries and pile
    # several entries into one column: the message names the first pair of
    # the dense form's upper triangle
    gens = state_supports(ground(width, height, p))
    E = gens.n_edges
    cols, vals = gens.cols.copy(), gens.vals.copy()
    for _ in range(data.draw(hst.integers(1, 3))):
        i = data.draw(hst.integers(0, E - 1))
        k = data.draw(hst.sampled_from(np.flatnonzero(vals[i]).tolist()))
        vals[i, k] = (vals[i, k] + data.draw(hst.integers(1, p - 1))) % p
    for _ in range(n_mixed):
        i = data.draw(hst.integers(0, E - 1))
        chosen = data.draw(hst.lists(hst.integers(0, 7), min_size=1, max_size=st.MAX_SUPPORT, unique=True))
        cols[i], vals[i] = 0, 0
        for k, c in enumerate(chosen):  # columns 0..3 and E..E+3: X and Z on the first four edges
            cols[i, k] = c if c < 4 else E + c - 4
            vals[i, k] = data.draw(hst.integers(1, p - 1))
    edited = SparseGenerators(cols=cols, vals=vals, n_edges=E)
    want = dense_first_noncommuting(dense_generators(edited), p)
    if want is None:
        _check_commutation(edited, p)
    else:
        with pytest.raises(RankDeficiency, match=rf"do not commute: rows {want[0]} and {want[1]}$"):
            _check_commutation(edited, p)


def _components_oracle(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Oracle: union-find roots and the number of joining edges."""
    joined, parent = _union_find(u, v, n)
    return st._roots(np.asarray(parent)), int(joined.sum())


def _multigraph(draw, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random edges on nodes 0 .. n - 1, in a random order: self-loops,
    parallel edges, isolated nodes and no edges at all all occur."""
    node = hst.integers(0, n - 1)
    pairs = draw(hst.lists(hst.tuples(node, node), max_size=60))
    if pairs:
        pairs += draw(hst.lists(hst.sampled_from(pairs), max_size=20))  # parallel edges
        pairs = draw(hst.permutations(pairs))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return u, v


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 40), data=hst.data())
def test_components_match_union_find(n, data):
    u, v = _multigraph(data.draw, n)
    label = st._components(u, v, n)
    root, joined = _components_oracle(u, v, n)
    # the same partition: each label meets one root and each root one label
    assert len({(int(a), int(b)) for a, b in zip(label, root)}) == len(set(label.tolist())) == len(set(root.tolist()))
    assert n - np.count_nonzero(label == np.arange(n)) == joined == st._forest_size(u, v, n)
    # every label is the smallest node of its component
    np.testing.assert_array_equal(label, [min(np.flatnonzero(root == r)) for r in root])


def test_components_on_a_randomly_labelled_long_path():
    n = 100_000
    order = np.random.default_rng(20261019).permutation(n)
    label = st._components(order[:-1], order[1:], n)
    assert not label.any()  # one component, labelled by node 0
    _, joined = _components_oracle(order[:-1], order[1:], n)
    assert joined == n - 1


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 40), stride=hst.integers(1, 5), data=hst.data())
def test_forest_joins_match_union_find(n, stride, data):
    # the Borůvka mask is Kruskal's, edge by edge, not only in its count;
    # a stride spreads the node ids, as a region's rows are spread
    u, v = _multigraph(data.draw, n)
    np.testing.assert_array_equal(st._forest_joins(stride * u, stride * v), forest_joins_union_find(u, v))


def test_forest_joins_on_a_shuffled_lattice_column_graph():
    state = ground(13, 11, 3)
    u, v = state.gens.u, state.gens.v
    order = np.random.default_rng(20261019).permutation(len(u))
    joined = st._forest_joins(u[order], v[order])
    np.testing.assert_array_equal(joined, forest_joins_union_find(u[order], v[order]))
    assert joined.sum() == state.n  # the generators have full rank


def test_forest_joins_on_a_randomly_labelled_long_path():
    # a path's edges in random order: every edge joins, over many Borůvka rounds
    n = 100_000
    rng = np.random.default_rng(20261019)
    label, order = rng.permutation(n), rng.permutation(n - 1)
    u, v = label[:-1][order], label[1:][order]
    joined = st._forest_joins(u, v)
    np.testing.assert_array_equal(joined, forest_joins_union_find(u, v))
    assert joined.all()


@hst.composite
def annuli(draw, primes=PRIMES, min_a_width=1) -> st.AnnulusPartition:
    """A valid annulus: bar widths, hole size, origin and lattice size all drawn,
    with one plaquette of clearance on a lattice of at most 14 x 14, or just
    wide enough for an A of at least `min_a_width` plaquettes."""
    p = draw(hst.sampled_from(primes))
    bar = draw(hst.integers(1, 3))
    a_width = draw(hst.integers(min_a_width, min_a_width + 3))
    hole_w, hole_h = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    min_width = max(4, a_width + hole_w + bar + 2)
    width = draw(hst.integers(min_width, max(14, min_width)))
    height = draw(hst.integers(max(4, hole_h + 2 * bar + 2), 14))
    hx0 = draw(hst.integers(1 + a_width, width - 1 - bar - hole_w))
    hy0 = draw(hst.integers(1 + bar, height - 1 - bar - hole_h))
    origin = (hx0 + draw(hst.integers(0, hole_w - 1)), hy0 + draw(hst.integers(0, hole_h - 1)))
    return st.AnnulusPartition(
        lattice=st.Lattice(width=width, height=height, prime=p),
        origin=origin,
        hole=(hx0, hy0, hx0 + hole_w, hy0 + hole_h),
        width=bar,
        thin_steps=draw(hst.integers(0, a_width - 1)),
        a_width=a_width,
    )


def _edge_sets(draw, n_edges: int, count: int) -> list[tuple[int, ...]]:
    edge = hst.integers(0, n_edges - 1)
    return [tuple(sorted(draw(hst.sets(edge, max_size=n_edges // 2)))) for _ in range(count)]


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_region_rank_matches_complement_oracle(part, data):
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    regions = {name: part.region_edges(name) for name in ("AB", "BC", "B", "ABC")}
    for i, edges in enumerate(_edge_sets(data.draw, lat.n_edges, 2)):
        regions[f"random{i}"] = edges
    for name, region in regions.items():
        assert st.region_rank(state, region) == complement_rank(state, region), name

    _, cert = st.annulus_cmi_certificate(state, part)
    assert cert.coefficient == 2


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_column_index_reads_match_scans(part, data):
    # region blocks from the column index against the dense matrix's slice,
    # and graph ranks against one elimination, on the six annulus regions
    # and random sets
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    regions = {name: part.region_edges(name) for name in ("A", "B", "C", "AB", "BC", "ABC")}
    for i, edges in enumerate(_edge_sets(data.draw, lat.n_edges, 3)):
        regions[f"random{i}"] = edges
    for name, region in regions.items():
        edges = np.asarray(region, dtype=np.int64)
        cols = np.concatenate([edges, edges + lat.n_edges])
        want = dense_generators(state)[np.ix_(rows_on_scan(state, edges), cols)]
        np.testing.assert_array_equal(state.gens.region_block(edges, lat.prime), want, err_msg=name)
        assert st.region_rank(state, region) == region_rank_elimination(state, region), name


def packed_supports(lat: st.Lattice, mat: np.ndarray) -> SparseGenerators:
    """The rows of the dense matrix packed into local supports as wide as
    its fullest row."""
    n_rows = len(mat)
    rows, cols = np.nonzero(mat)
    width = np.bincount(rows, minlength=n_rows).max(initial=0)
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
    gc, gv = np.zeros((n_rows, width), dtype=np.int64), np.zeros((n_rows, width), dtype=np.int64)
    gc[rows, slot], gv[rows, slot] = cols, mat[rows, cols]
    return SparseGenerators(cols=gc, vals=gv, n_edges=lat.n_edges)


def packed(lat: st.Lattice, mat: np.ndarray) -> st.StabilizerState:
    """A state whose generator rows are the rows of the dense matrix, stored
    as the column graph that the oracle reads from their supports
    (`_column_graph`), which refuses a column of another shape."""
    gens = _column_graph(packed_supports(lat, mat), lat.prime)
    return st.StabilizerState(lattice=lat, gens=gens, frame=np.zeros(2 * lat.n_edges, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(p=hst.sampled_from(PRIMES), n_rows=hst.integers(1, 12), data=hst.data())
def test_graph_rank_matches_elimination_on_random_graphs(p, n_rows, data):
    # rows are the nodes of a random multigraph: each column is empty, one
    # entry (an edge to the sentinel) or a unit pair u, -u on two rows
    lat = st.Lattice(width=4, height=4, prime=p)
    E = lat.n_edges
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    mat = np.zeros((n_rows, 2 * E), dtype=np.int64)
    for col in range(2 * E):
        u = int(rng.integers(1, p))
        kind = rng.integers(3 if n_rows > 1 else 2)
        if kind == 1:
            mat[rng.integers(n_rows), col] = u
        elif kind == 2:
            a, b = rng.choice(n_rows, size=2, replace=False)
            mat[a, col], mat[b, col] = u, -u % p
    state = packed(lat, mat)
    for region in _edge_sets(data.draw, E, 3) + [tuple(range(E))]:
        edges = np.asarray(region, dtype=np.int64)
        rank = gfp.rank_mod_p(mat[:, np.concatenate([edges, edges + E])], p)
        assert 2 * len(region) - st.region_rank(state, region) == rank
    # the build's full-rank check is exact: it passes iff the rows are independent
    try:
        st._check_graph_rank(state.gens)
        independent = True
    except RankDeficiency:
        independent = False
    assert independent == dense_full_rank(mat, p)


def test_graph_rank_refuses_columns_of_another_shape():
    # two entries that do not cancel: (1, 1) at p = 3
    lat = st.Lattice(width=4, height=4, prime=3)
    mat = np.zeros((2, 2 * lat.n_edges), dtype=np.int64)
    mat[0, 5] = mat[1, 5] = 1
    with pytest.raises(MalformedInput, match="do not cancel"):
        st.region_rank(packed(lat, mat), (5,))
    # a phase gate puts a bulk edge's X and Z entries in one column: four entries
    state = ground(6, 6, 3)
    e = state.lattice.h_edge(2, 3)
    with pytest.raises(MalformedInput, match="at most two"):
        st.region_rank(packed(state.lattice, dense_generators(sheared(state, [e]))), (e,))
    assert st.region_rank(state, (e,)) == 0


@settings(max_examples=20, deadline=None)
@given(n=hst.integers(1, 4), data=hst.data())
def test_nested_table_matches_level_loop(n, data):
    part = data.draw(annuli(primes=(2, 3, 5, 7), min_a_width=n + 2))
    part = replace(part, thin_steps=data.draw(hst.integers(0, part.a_width - n - 2)))
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    trace = st.nested_annulus_table(state, part, n)
    assert trace.table.tolist() == [nested_levels_loop(state, part, n)] * lat.prime**2
    # the coefficient is 2 at every level, so check each level's ranks too
    ranks = st._nested_ranks(state, part, n)
    for i in range(n + 2):
        level = part.thin(n + 1 - i)
        for name, g in ranks.items():
            assert g[i] == region_rank_elimination(state, level.region_edges(name)), (i, name)


def framed(lat: st.Lattice, data) -> st.StabilizerState:
    """The ground state conjugated by two random Pauli strings."""
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    state = ground(lat.width, lat.height, lat.prime)
    for _ in range(2):
        state = st.conjugate_by_string(state, rng.integers(0, lat.prime, size=2 * lat.n_edges))
    assert ((0 <= state.frame) & (state.frame < lat.prime)).all()
    return state


def sheared(state: st.StabilizerState, edges) -> st.StabilizerState:
    """The state after a phase gate (x, z) -> (x, z + x) on each of the edges:
    still pure, but its generators mix X and Z (not CSS), so they are held
    as local supports, which no column graph encodes."""
    E, p = state.n, state.lattice.prime
    mat = dense_generators(state)
    edges = np.asarray(sorted(set(edges)), dtype=np.int64)
    mat[:, E + edges] = (mat[:, E + edges] + mat[:, edges]) % p
    return replace(state, gens=packed_supports(state.lattice, mat))


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_local_restricted_basis_matches_dense_oracle(part, data):
    lat = part.lattice
    p, E = lat.prime, lat.n_edges
    state = framed(lat, data)
    gens = dense_generators(state)
    t = state.frame
    regions = {name: part.region_edges(name) for name in ("AB", "BC", "B", "ABC")}
    for i, edges in enumerate(_edge_sets(data.draw, E, 2)):
        regions[f"random{i}"] = edges
    for name, region in regions.items():
        edges, local = st.restricted_canonical(state, region)
        vecs = np.zeros((len(local), 2 * E), dtype=np.int64)
        vecs[:, np.concatenate([edges, edges + E])] = local
        want, coeffs = dense_restricted(state, region)
        np.testing.assert_array_equal(vecs, want, err_msg=name)
        assert len(local) == st.region_rank(state, region), name
        for vec, c in zip(vecs, coeffs):
            # the frame phase of the module docstring against the product of
            # the phased generator rows
            combined, phase = gfp.combine_rows(gens, frame_phases(state), c, E, p)
            np.testing.assert_array_equal(combined, vec)
            assert (vec[:E] @ t[E:] - vec[E:] @ t[:E]) % p == phase, name

    # the symplectic complement holds for any pure state, not only CSS ones
    mixed = sheared(state, [*regions["random0"][::2], *regions["AB"][::3]])
    for name, region in regions.items():
        edges, local = st.restricted_canonical(mixed, region)
        vecs = np.zeros((len(local), 2 * E), dtype=np.int64)
        vecs[:, np.concatenate([edges, edges + E])] = local
        np.testing.assert_array_equal(vecs, dense_restricted(mixed, region)[0], err_msg=f"sheared {name}")


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_strong_subadditivity_on_random_edge_sets(part, data):
    # S(X) + S(Y) >= S(X u Y) + S(X n Y), in units of log p
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    x, y = (set(r) for r in _edge_sets(data.draw, lat.n_edges, 2))

    def s(region):
        region = tuple(sorted(region))
        return len(region) - st.region_rank(state, region)

    assert s(x) + s(y) >= s(x | y) + s(x & y)


# Largest dense reduction drawn: a p^|R| x p^|R| complex matrix of 1 MiB.
DENSE_DIM_CAP = 2**8


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_dense_reduction_entropy_matches_rank_entropy(part, data):
    lat = part.lattice
    p = lat.prime
    sector = (data.draw(hst.integers(0, p - 1)), data.draw(hst.integers(0, p - 1)))
    state = st.create_sector(ground(lat.width, lat.height, p), sector, origin=part.origin)
    # a small region around a random plaquette and its two corner stars, so
    # that whole generators can fit inside it
    x, y = data.draw(hst.integers(0, lat.width - 1)), data.draw(hst.integers(0, lat.height - 1))
    pool = {e for e, _ in plaquette_boundary(lat, x, y)}
    pool |= {e for e, _ in vertex_star(lat, x, y)} | {e for e, _ in vertex_star(lat, x + 1, y + 1)}
    max_edges = max(k for k in range(1, len(pool) + 1) if p**k <= DENSE_DIM_CAP)
    region = data.draw(hst.sets(hst.sampled_from(sorted(pool)), min_size=1, max_size=max_edges))
    rho = dense.region_density(state, region)
    assert abs(dense.von_neumann_entropy(rho) - region_entropy(state, region)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_region_density_matches_dense_oracle(part, data):
    lat = part.lattice
    state = framed(lat, data)
    # a small region as in the entropy test above, under a random frame
    x, y = data.draw(hst.integers(0, lat.width - 1)), data.draw(hst.integers(0, lat.height - 1))
    pool = {e for e, _ in plaquette_boundary(lat, x, y)}
    pool |= {e for e, _ in vertex_star(lat, x, y)} | {e for e, _ in vertex_star(lat, x + 1, y + 1)}
    max_edges = max(k for k in range(1, len(pool) + 1) if lat.prime**k <= DENSE_DIM_CAP)
    region = data.draw(hst.sets(hst.sampled_from(sorted(pool)), min_size=1, max_size=max_edges))
    want = dense_region_density(state, region)
    assert np.abs(dense.region_density(state, region).matrix - want).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    width=hst.integers(4, 8), height=hst.integers(4, 8), p=hst.sampled_from(PRIMES), data=hst.data()
)
def test_pauli_repr_matches_all_edges_loop(width, height, p, data):
    state = ground(width, height, p)
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    density = data.draw(hst.sampled_from((0.0, 0.05, 0.5)))
    vec = rng.integers(0, p, size=2 * state.n) * (rng.random(2 * state.n) < density)
    assert st.pauli_repr(state, vec) == repr_all_edges(state, vec)


@settings(max_examples=15, deadline=None)
@given(part=annuli())
def test_witness_phases_biject_sectors(part):
    # the detectors are loops in the unthinned annulus
    part = st.AnnulusPartition(
        lattice=part.lattice, origin=part.origin, hole=part.hole, width=part.width, a_width=part.a_width
    )
    lat = part.lattice
    p = lat.prime
    state = ground(lat.width, lat.height, p)
    seen = set()
    for c in range(p):
        for f in range(p):
            w = sector_witness_phases_loop(st.create_sector(state, (c, f), origin=part.origin), part)
            assert 0 <= w["charge"] < p and 0 <= w["flux"] < p
            seen.add((w["charge"], w["flux"]))
    assert len(seen) == p * p


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_rows_and_detectors_match_label_oracle(part, data):
    lat = part.lattice
    E = lat.n_edges
    all_cols, all_vals = st._fill(lat, np.arange(E))
    # every row: distinct nonzero columns, padding (0, 0), X columns only in
    # vertex rows and Z columns only in plaquette rows
    labels = row_labels(lat)
    assert len(labels) == len(all_vals)
    for i, (kind, _, _) in enumerate(labels):
        live = all_vals[i] != 0
        cols = all_cols[i, live]
        assert not all_cols[i, ~live].any(), i
        assert len(cols) and len(np.unique(cols)) == len(cols), i
        assert ((cols < E) if kind == "vertex" else (cols >= E)).all(), i
    # the detectors, built from the rows found by scanning the labels, stay
    # inside the unthinned annulus that holds both loops, under a random frame
    phases = sector_witness_phases_loop(framed(lat, data), replace(part, thin_steps=0))
    assert all(0 <= phase < lat.prime for phase in phases.values())


@settings(max_examples=50, deadline=None)
@given(width=hst.integers(4, 40), height=hst.integers(4, 40))
def test_edge_midpoints_match_loop_oracle(width, height):
    lat = st.Lattice(width=width, height=height, prime=2)
    assert lat.edge_midpoints.dtype == np.int64
    np.testing.assert_array_equal(lat.edge_midpoints, edge_midpoints_loop(lat))


@settings(max_examples=100, deadline=None)
@given(
    width=hst.integers(4, 12),
    height=hst.integers(4, 12),
    box=hst.tuples(*[hst.integers(-3, 28)] * 4),
)
def test_edges_in_box_matches_midpoint_scan(width, height, box):
    lat = st.Lattice(width=width, height=height, prime=2)
    edges = lat.edges_in_box(box)
    assert edges.dtype == np.int64
    np.testing.assert_array_equal(edges, edges_in_box_scan(lat, box))


@settings(max_examples=25, deadline=None)
@given(part=annuli(), spec=hst.text(alphabet="ABC", max_size=4))
def test_region_edges_are_the_union_of_their_boxes(part, spec):
    boxes, names = part.bar_boxes(), {"A": ("A",), "B": ("B1", "B2"), "C": ("C",)}
    scans = [edges_in_box_scan(part.lattice, boxes[name]) for ch in spec for name in names[ch]]
    edges = part.region_edges(spec)
    assert edges.dtype == np.int64
    assert edges.tolist() == sorted({int(e) for scan in scans for e in scan})


@settings(max_examples=25, deadline=None)
@given(part=annuli())
def test_sector_frames_match_path_loop_oracle(part):
    lat = part.lattice
    p, E = lat.prime, lat.n_edges
    state = ground(lat.width, lat.height, p)
    family = sector_family(state, part)
    assert sorted(family) == [(c, f) for c in range(p) for f in range(p)]
    b_edges = np.asarray(part.region_edges("B"))
    for sector, framed_state in family.items():
        want = create_sector_loop(state, sector, part.origin).frame
        np.testing.assert_array_equal(st.create_sector(state, sector, part.origin).frame, want)
        np.testing.assert_array_equal(framed_state.frame, want)
        # the strings never touch B: they run along the origin's row, which
        # lies in the hole's rows
        support = np.flatnonzero(want[:E] | want[E:])
        assert not np.isin(support, b_edges).any(), sector
        assert (lat.edge_midpoints[support, 1] // 2 == part.origin[1]).all(), sector


@settings(max_examples=25, deadline=None)
@given(part=annuli(), endpoint=hst.sampled_from(("strips", "inside_a_prime")))
def test_fusion_strings_match_path_loop_oracle(part, endpoint):
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    for s in product(range(lat.prime), repeat=2):
        with fusion_strings_ending(endpoint):
            fast = st.fusion_string(state, part, s)
        np.testing.assert_array_equal(fast, fusion_string_loop(state, part, s, endpoint), err_msg=str(s))


@settings(max_examples=25, deadline=None)
@given(part=annuli())
def test_unperturbed_sector_family_passes_assumptions(part):
    # property 3 reduces to the partition thinned once more
    assume(part.thin_steps + 1 <= part.a_width - 1)
    lat = part.lattice
    report = st.verify_assumptions(sector_family(ground(lat.width, lat.height, lat.prime), part), part)
    assert report.distinguishability.passed
    assert report.indistinguishability.passed
    assert report.fusion.passed, report.fusion.violations[:2]


@settings(max_examples=30, deadline=None)
@given(
    part=annuli(primes=(2, 3, 5)),
    endpoint=hst.sampled_from(("strips", "inside_a_prime")),
    family=hst.sampled_from(("sectors", "perturbed", "duplicated", "displaced")),
    data=hst.data(),
)
def test_verify_assumptions_matches_loop_oracle(part, endpoint, family, data):
    # property 3 reduces to the partition thinned once more
    assume(part.thin_steps + 1 <= part.a_width - 1)
    lat = part.lattice
    p = lat.prime
    states = sector_family(ground(lat.width, lat.height, p), part)
    order = sorted(states)
    if family == "perturbed":
        # sparse random strings on some sectors break properties 2 and 3
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
        for a in data.draw(hst.sets(hst.sampled_from(order), min_size=1)):
            t = np.zeros(2 * lat.n_edges, dtype=np.int64)
            t[rng.choice(2 * lat.n_edges, size=4, replace=False)] = rng.integers(1, p, size=4)
            states[a] = st.conjugate_by_string(states[a], t)
    elif family == "duplicated":
        # two labels on one state break property 1 and some fusion pairs
        a, b = data.draw(hst.lists(hst.sampled_from(order), min_size=2, max_size=2, unique=True))
        states[b] = states[a]
    elif family == "displaced":
        # strings anchored at another plaquette than the partition's origin
        origin = (data.draw(hst.integers(0, lat.width - 1)), data.draw(hst.integers(0, lat.height - 1)))
        states = {a: st.create_sector(ground(lat.width, lat.height, p), a, origin=origin) for a in order}
    with fusion_strings_ending(endpoint):
        report = st.verify_assumptions(states, part)
        assert witnessed(report, states, part) == verify_assumptions_loop(states, part, endpoint)


@settings(max_examples=30, deadline=None)
@given(part=annuli(), endpoint=hst.sampled_from(("strips", "inside_a_prime")))
def test_sector_assumptions_match_the_family_path(part, endpoint):
    # the report read from two strings by linearity is the one decided on the
    # built p^2 sector frames, violations included
    assume(part.thin_steps + 1 <= part.a_width - 1)
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    with fusion_strings_ending(endpoint):
        report = st.verify_sector_assumptions(state, part)
        assert report == st.verify_assumptions(sector_family(state, part), part)
    if endpoint == "strips":
        assert report.passed


@pytest.mark.parametrize("endpoint", ["strips", "inside_a_prime"])
def test_sector_assumptions_match_the_family_path_at_p13(endpoint):
    lat = st.Lattice(width=40, height=40, prime=13)
    part = st.centered_annulus(lat, width=3)
    state = ground(40, 40, 13)
    with fusion_strings_ending(endpoint):
        report = st.verify_sector_assumptions(state, part)
        assert report == st.verify_assumptions(sector_family(state, part), part)
    assert report.passed == (endpoint == "strips")


@settings(max_examples=25, deadline=None)
@given(part=annuli(), data=hst.data())
def test_cluster_count_matches_region_rank(part, data):
    # two independent counts of g_R: clusters of rows joined by the columns
    # outside R, against the spanning forest of R's own columns; the regions
    # inside ABC also by growing the forest outside ABC further, as
    # verify_assumptions does, and every cluster sum is supported in R
    lat = part.lattice
    E, p = lat.n_edges, lat.prime
    state = ground(lat.width, lat.height, p)
    gens = dense_generators(state)

    def outside(edges, within=None):
        mask = np.ones(2 * E, dtype=bool) if within is None else within.copy()
        mask[edges] = mask[edges + E] = False
        return np.flatnonzero(mask)

    abc = part.region_edges("ABC")
    in_abc = np.zeros(2 * E, dtype=bool)
    in_abc[np.concatenate([abc, abc + E])] = True
    supports = state_supports(state)
    root_abc = cluster_roots(supports, outside(abc), p)
    inner = {name: part.region_edges(name) for name in ("A", "B", "C", "AB", "BC", "ABC")}
    if part.thin_steps + 1 <= part.a_width - 1:
        inner["A'BC"] = part.thin(1).region_edges("ABC")
    regions = dict(inner)
    for i, edges in enumerate(_edge_sets(data.draw, E, 3)):
        regions[f"random{i}"] = edges
    for name, region in regions.items():
        edges = st._edges(state, region)
        g = st.region_rank(state, edges)
        roots = [cluster_roots(supports, outside(edges), p)]
        if name in inner:
            roots.append(cluster_roots(supports, outside(edges, in_abc), p, root_abc))
        for root in roots:
            rows, cluster, k = st._clusters(root)
            assert k == g, name
            sums = np.zeros((k, 2 * E), dtype=np.int64)
            np.add.at(sums, cluster, gens[rows])
            sums[:, np.concatenate([edges, edges + E])] = 0
            assert not (sums % p).any(), name


@settings(max_examples=30, deadline=None)
@given(part=annuli(primes=(2, 3, 5, 7, 13)), data=hst.data())
def test_region_ranks_and_clusters_match_per_region_oracles(part, data):
    # the graph read once per matrix against each region's own checked
    # graph; the clusters labelled on ABC's nodes against the clusters
    # labelled over every row, region by region; and the window that holds
    # the clusters outside ABC against every window that does not
    lat = part.lattice
    E, p = lat.n_edges, lat.prime
    state = ground(lat.width, lat.height, p)
    abc = part.region_edges("ABC")
    inner = {name: part.region_edges(name) for name in ("ABC", "AB", "BC", "A", "B", "C")}
    if part.thin_steps + 1 <= part.a_width - 1:
        inner["A'BC"] = part.thin(1).region_edges("ABC")
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    inner["random"] = np.sort(rng.choice(abc, size=data.draw(hst.integers(0, len(abc))), replace=False))
    outer = {f"anywhere{i}": np.asarray(r, dtype=np.int64) for i, r in enumerate(_edge_sets(data.draw, E, 2))}

    ranks = dict(zip([*inner, *outer], st._edge_ranks(state, [*inner.values(), *outer.values()])))
    for name, edges in {**inner, **outer}.items():
        assert ranks[name] == st.region_rank(state, edges) == region_rank_per_region(state, edges), name

    vectors = [state.frame, *st._sector_strings(lat, part.origin), *st._fusion_strings(lat, part),
               rng.integers(0, p, size=2 * E)]
    want = region_phases_per_region(state, abc, vectors, list(inner.values()))
    coef = np.stack([np.ones(p * p, dtype=np.int64), *np.divmod(np.arange(p * p), p)])
    *_, k0, _, g_abc = st._outside_clusters(state, abc, part.letter_masks[0])
    assert k0 == g_abc == ranks["ABC"]  # the bar box holds every cluster outside ABC
    for window in (part.letter_masks[0], abc, np.arange(E)):
        got = st._region_phases(state, abc, window, vectors, list(inner.values()))
        for name, phases, oracle in zip(inner, got, want):
            np.testing.assert_array_equal(phases, oracle, err_msg=name)
            assert len(phases) == ranks[name], name  # K = g_R
            np.testing.assert_array_equal((phases[:, :3] @ coef) % p, (oracle[:, :3] @ coef) % p, err_msg=name)


@settings(max_examples=100, deadline=None)
@given(p=hst.sampled_from((2, 3, 5, 7, 13)), k=hst.integers(0, 4), data=hst.data())
def test_fusion_step_matches_per_label_loop(p, k, data):
    # the shifted-grid program, in chunks of any size down to one label s,
    # against one program per s; tables agree on some labels, so bad
    # entries of both values occur
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    table = rng.integers(0, p, size=(k, p * p))
    moved = rng.integers(-2 * p * p, 2 * p * p, size=(k, p * p - 1))
    if k and data.draw(hst.booleans()):
        # property 3 holding for the sector family: each string moves every
        # label a to s x a
        shift = rng.integers(0, p, size=(k, 2))
        c, f = np.divmod(np.arange(p * p), p)
        table = (shift[:, :1] * c + shift[:, 1:] * f) % p
        moved = table[:, 1:] + p * rng.integers(-3, 3, size=(k, p * p - 1))
    want = fusion_step_loop(table, moved, p)
    assert not want[0].any()
    for chunk in (1, data.draw(hst.integers(1, p * p)), p * p):
        np.testing.assert_array_equal(st._fusion_step(table, moved, p, chunk), want, err_msg=str(chunk))


@settings(max_examples=20, deadline=None)
@given(n=hst.integers(1, 4), data=hst.data())
def test_nested_certificate_matches_region_ranks(n, data):
    # the certificate a --levels run reads from level n + 1 of the nested
    # ranks equals the one ranked region by region
    part = data.draw(annuli(primes=(2, 3, 5), min_a_width=n + 2))
    part = replace(part, thin_steps=data.draw(hst.integers(0, part.a_width - n - 2)))
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    value, cert, ranks = st.nested_annulus_certificate(state, part, n)
    assert (value, cert) == st.annulus_cmi_certificate(state, part)
    assert st.nested_annulus_table(state, part, n, ranks).table.tolist() == (
        st.nested_annulus_table(state, part, n).table.tolist()
    )


@settings(max_examples=200, deadline=None)
@given(ids=hst.lists(hst.integers(0, 39), max_size=40) | hst.lists(hst.sampled_from((0, 7, 39)), max_size=12))
def test_edges_match_np_unique(ids):
    state = ground(4, 4, 2)  # 40 edges
    edges = st._edges(state, ids)
    assert edges.dtype == np.int64
    assert np.array_equal(edges, np.unique(np.asarray(ids, dtype=np.int64)))


@settings(max_examples=200, deadline=None)
@given(
    p=hst.sampled_from((2, 3, 5)),
    shape=hst.tuples(hst.integers(0, 5), hst.integers(0, 6)),
    data=hst.data(),
)
def test_rank_mod_p_matches_span_count(p, shape, data):
    rows, cols = shape
    entries = data.draw(hst.lists(hst.integers(-2 * p, 2 * p), min_size=rows * cols, max_size=rows * cols))
    mat = np.array(entries, dtype=np.int64).reshape(rows, cols)
    span = {tuple(np.array(x, dtype=np.int64) @ mat % p) for x in product(range(p), repeat=rows)}
    assert len(span) == p ** gfp.rank_mod_p(mat, p)


@settings(max_examples=100, deadline=None)
@given(n=hst.integers(1, 8), k=hst.integers(1, 4), data=hst.data())
def test_row_sum_root_of_permutation_sums_is_exact(n, k, data):
    # a sum of k permutation matrices has every row sum k, hence spectral
    # radius k: the row-sum path gives it exactly, the power iteration to
    # SPECTRAL_TOL
    mat = np.zeros((n, n), dtype=np.int64)
    for _ in range(k):
        mat[np.arange(n), data.draw(hst.permutations(range(n)))] += 1
    assert fusion._perron_root(mat) == float(k)
    assert abs(fusion._perron_radius(mat)[0] - k) <= fusion.SPECTRAL_TOL


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(1, 7),
    eps_points=hst.integers(2, 12),
    trials=hst.integers(0, 8),
    seed=hst.integers(0, 2**32 - 1),
    data=hst.data(),
)
def test_taylor_sweep_matches_loop_oracle(n, eps_points, trials, seed, data):
    weight = hst.one_of(hst.just(0.0), hst.floats(0.01, 1.0))
    raw = np.array(data.draw(hst.lists(weight, min_size=n**3, max_size=n**3))).reshape(n, n, n)
    raw[:, :, 0] += raw.sum(axis=2) == 0  # no empty row
    q = np.array(data.draw(hst.lists(hst.floats(0.01, 1.0), min_size=n, max_size=n)))
    labels = tuple(f"l{i}" for i in range(n))
    fp = fusion.FusionProbabilities(labels, raw / raw.sum(axis=2, keepdims=True))
    p_star = fusion.AnyonDistribution(labels, q / q.sum())
    args = dict(trials=trials, eps_points=eps_points, seed=seed)
    assert audit.taylor_bound_sweep(p_star, fp, **args) == taylor_bound_sweep_loop(p_star, fp, **args)


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(1, 7),
    eps_points=hst.integers(2, 12),
    trials=hst.integers(0, 8),
    seed=hst.integers(0, 2**32 - 1),
    data=hst.data(),
)
def test_taylor_sweep_matches_loop_oracle_on_colliding_term_lists(n, eps_points, trials, seed, data):
    # every row (s, b) is a permutation's single 1.0, or splits its mass into
    # 1, 2 or 4 exact pieces on drawn labels: the weights come from {1, 1/2,
    # 1/4, 3/4}, so term lists repeat across cells, whole rows on one label
    # leave single terms (b, 1.0), and labels no row reaches leave empty cells
    p = np.zeros((n, n, n))
    for s in range(n):
        if data.draw(hst.booleans()):
            p[s, np.arange(n), data.draw(hst.permutations(range(n)))] = 1.0
            continue
        for b in range(n):
            pieces = data.draw(hst.sampled_from((1, 2, 4)))
            for a in data.draw(hst.lists(hst.integers(0, n - 1), min_size=pieces, max_size=pieces)):
                p[s, b, a] += 1.0 / pieces
    q = np.array(data.draw(hst.lists(hst.floats(0.01, 1.0), min_size=n, max_size=n)))
    labels = tuple(f"l{i}" for i in range(n))
    fp = fusion.FusionProbabilities(labels, p)
    p_star = fusion.AnyonDistribution(labels, q / q.sum())
    args = dict(trials=trials, eps_points=eps_points, seed=seed)
    assert audit.taylor_bound_sweep(p_star, fp, **args) == taylor_bound_sweep_loop(p_star, fp, **args)


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(1, 12),
    eps_points=hst.integers(2, 5),
    trials=hst.integers(0, 4),
    seed=hst.integers(0, 2**32 - 1),
    data=hst.data(),
)
def test_taylor_sweep_matches_pairs_oracle(n, eps_points, trials, seed, data):
    # every row (s, b) is a permutation's single 1.0 (a pointed row, whose
    # cells read p itself) or splits its mass over drawn labels (fused
    # classes); p* is drawn from two values or from an interval, so it has
    # tied entries or none.  Rows of cells repeat across pairs and rows, and
    # with few ties the distinct rows outgrow one group of label pairs
    p = np.zeros((n, n, n))
    pointed = data.draw(hst.booleans())
    for s in range(n):
        if pointed or data.draw(hst.booleans()):
            p[s, np.arange(n), data.draw(hst.permutations(range(n)))] = 1.0
            continue
        for b in range(n):
            pieces = data.draw(hst.sampled_from((1, 2, 4)))
            for a in data.draw(hst.lists(hst.integers(0, n - 1), min_size=pieces, max_size=pieces)):
                p[s, b, a] += 1.0 / pieces
    weight = hst.sampled_from((0.5, 1.0)) if data.draw(hst.booleans()) else hst.floats(0.01, 1.0)
    q = np.array(data.draw(hst.lists(weight, min_size=n, max_size=n)))
    labels = tuple(f"l{i}" for i in range(n))
    fp = fusion.FusionProbabilities(labels, p)
    p_star = fusion.AnyonDistribution(labels, q / q.sum())
    args = dict(trials=trials, eps_points=eps_points, seed=seed)
    assert audit.taylor_bound_sweep(p_star, fp, **args) == taylor_bound_sweep_pairs(p_star, fp, **args)


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 7), G=hst.integers(1, 4), data=hst.data())
def test_sparse_fusion_matches_dense_einsum_bit_for_bit(n, G, data):
    # zeros leave empty (s, a) cells, n labels allow cells of up to n terms,
    # and tiny and subnormal weights make products that round or underflow
    weight = hst.sampled_from((0.0, 0.0, 5e-324, 1e-310, 1e-300)) | hst.floats(1e-6, 1.0)
    raw = np.array(data.draw(hst.lists(weight, min_size=n**3, max_size=n**3))).reshape(n, n, n)
    raw[:, :, 0] += raw.sum(axis=2) == 0  # no empty row
    fp = fusion.FusionProbabilities(tuple(f"l{i}" for i in range(n)), raw / raw.sum(axis=2, keepdims=True))
    P = np.array(data.draw(hst.lists(hst.floats(1e-300, 1.0), min_size=G * n, max_size=G * n)))
    P = P.reshape(G, n)
    cls, C, terms = audit._fusion_classes(fp)
    # two columns share a class iff their dense term columns are equal: p_b is
    # the column e_b, and cell (s, a) is fp[s, :, a]
    dense = np.vstack([np.eye(n), fp.p.transpose(0, 2, 1).reshape(n * n, n)])
    assert np.array_equal(cls[:, None] == cls, (dense[:, None] == dense).all(axis=-1))
    assert C == len(np.unique(cls)) and np.array_equal(cls[:n], np.arange(n))
    width = data.draw(hst.integers(1, C))  # classes fused at a time

    def cells(P):  # the fused block p_{a,s}, expanded from the classes to the (s, a) cells
        W = np.zeros((C, len(P)))
        W[:n] = P.T
        return audit._fuse(W, terms, np.empty(2 * width * len(P)))[cls[n:]].T

    assert cells(P).tobytes() == np.einsum("gb,sba->gsa", P, fp.p).tobytes()
    assert cells(P[:1]).tobytes() == np.einsum("b,sba->sa", P[0], fp.p).tobytes()


def z_n_trace(ps, table, a0: int = 0) -> audit.AuditTrace:
    """A trace on labels l0, l1, ... with Z_L fusion probabilities (assemble_bound
    never reads them)."""
    L = len(ps)
    labels = tuple(f"l{i}" for i in range(L))
    fp = fusion.FusionProbabilities(labels, np.eye(L)[(np.arange(L)[:, None] + np.arange(L)[None, :]) % L])
    p_star = fusion.AnyonDistribution(labels, ps)
    return audit.AuditTrace(labels, np.asarray(table, dtype=float), fp, p_star, labels[a0])


@hst.composite
def audit_traces(draw, max_labels: int = 13, max_n: int = 6):
    """Random traces on a quarter-nat grid: I_i^(a) = log(1/p*_a) rounded to
    a quarter plus a per-label offset plus nondecreasing steps, so exact ties
    are common.  Options shift the table towards each premise's failure: a
    dip breaks monotonicity, scaled-down or spread offsets break the mixture
    and averaged level bounds, and flat levels with a small eps the
    perturbed step bound; a zero can be signed, so -0.0/0.0 ties occur."""
    L = draw(hst.integers(1, max_labels))
    n = draw(hst.integers(1, max_n))
    weights = np.array(draw(hst.lists(hst.integers(1, 12), min_size=L, max_size=L)), dtype=float)
    ps = weights / weights.sum()
    offsets = draw(hst.sampled_from(((0, 0), (0, 2), (-2, 6), (-8, 8))))
    base = np.round(4 * np.log(1.0 / ps)) / 4 * draw(hst.sampled_from((1.0, 1.0, 0.5)))
    base += np.array(draw(hst.lists(hst.integers(*offsets), min_size=L, max_size=L))) / 4
    steps = np.array(draw(hst.lists(hst.sampled_from((0, 0, 0, 1, 2)), min_size=L * (n + 1),
                                    max_size=L * (n + 1)))).reshape(L, n + 1) / 4
    if draw(hst.booleans()):
        steps[:, : draw(hst.integers(0, n + 1))] = 0.0  # flat levels
    table = np.maximum(base[:, None] + np.cumsum(np.hstack([np.zeros((L, 1)), steps]), axis=1), 0.0)
    if draw(hst.integers(0, 5)) == 0:
        table[draw(hst.integers(0, L - 1)), draw(hst.integers(1, n + 1)):] -= 0.25  # a dip
        table = np.maximum(table, 0.0)
    if draw(hst.booleans()):
        signs = np.random.default_rng(draw(hst.integers(0, 2**32 - 1))).random(table.shape) < 0.5
        table[(table == 0.0) & signs] = -0.0
    return z_n_trace(ps, table, draw(hst.integers(0, L - 1)))


def replay(assemble, trace, **kwargs) -> tuple[dict, str | None]:
    """The report as a dict and, when a premise fails, the PremiseViolated message."""
    try:
        return assemble(trace, **kwargs).to_dict(), None
    except PremiseViolated as exc:
        return exc.report.to_dict(), str(exc)


@settings(max_examples=300, deadline=None)
@given(trace=audit_traces(), data=hst.data())
def test_assemble_bound_matches_loop_oracle(trace, data):
    pmin = trace.p_min
    eps = data.draw(hst.one_of(
        hst.none(),
        hst.sampled_from((-1.0, -0.5, -0.05, 0.0, 0.05, 0.5, 1.0)).map(lambda f: f * pmin / 2),
        hst.floats(-pmin / 2, pmin / 2),
    ))
    alpha = data.draw(hst.one_of(hst.none(), hst.sampled_from((0.0, 0.5, 1.0)), hst.floats(0.0, 1.0)))
    b = data.draw(hst.sampled_from(trace.labels))
    weight = trace.n * pmin * (pmin / (2.0 * math.sqrt(trace.n)) if eps is None else eps) + 1.0
    if alpha is None and not (weight > 0.0 and 1.0 / weight <= 1.0):  # no default alpha in [0, 1]
        with pytest.raises(MalformedInput, match="alpha"):
            audit.assemble_bound(trace, b=b, eps=eps)
        return
    # the perturbed margins a drawn number of levels per chunk, so that ties
    # (-0.0 and 0.0 among them) meet across chunk boundaries
    chunk = data.draw(hst.integers(1, trace.n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audit, "_PERTURBED_CHUNK_BYTES", 8 * len(trace.labels) ** 2 * chunk)
        fast = replay(audit.assemble_bound, trace, b=b, eps=eps, alpha=alpha)
    loop = replay(assemble_bound_loop, trace, b=b, eps=eps, alpha=alpha)
    assert fast == loop
    assert json.dumps(fast) == json.dumps(loop)


QUARTERS = np.array([0.5, 0.25, 0.25])
FLAT = np.zeros(4)
CHOSEN_TRACES = {
    # each premise fails in turn
    "monotonicity": (QUARTERS, np.log(1.0 / QUARTERS)[:, None] + np.array([0.0, 0.5, 0.25, 0.75])),
    "mixture_entropy_bound": (QUARTERS, np.zeros((3, 4))),
    "average_level_bound": (QUARTERS, np.array([[4.0] * 4, [0.0] * 4, [4.0] * 4])),
    "perturbed_step_bound": (QUARTERS, (np.log(1.0 / QUARTERS) + np.array([0.0, 1.0, 0.0]))[:, None] + FLAT),
    # one label: the averaged level margins are I_{i+1} - 0.0, so the worst
    # is a tie of 0.0 (first) and -0.0 (last) that must print as 0.0
    "signed_zero_tie": (np.array([1.0]), np.array([[0.0, 0.0, 0.0, -0.0]])),
    # flat levels: the worst perturbed margin is 2 eps^2 - eps pmin log(41/35),
    # and numpy 2.4's log of that ratio differs from math.log's in the last bit
    "log_ratio": (np.array([41.0, 35.0]) / 76.0, np.full((2, 4), 3.0)),
}


@pytest.mark.parametrize("case", list(CHOSEN_TRACES))
def test_assemble_bound_matches_loop_oracle_on_chosen_tables(case):
    trace = z_n_trace(*CHOSEN_TRACES[case])
    fast, fast_error = replay(audit.assemble_bound, trace)
    loop, loop_error = replay(assemble_bound_loop, trace)
    assert (fast, fast_error) == (loop, loop_error)
    assert json.dumps(fast) == json.dumps(loop)
    if case in fast["checks"]:
        assert fast_error.startswith(f"premise {case} fails")
        assert list(fast["checks"])[-1] == case
    else:
        assert fast_error is None and fast["passed"]


def table_document(cat: fusion.FusionCategory, N: np.ndarray) -> dict:
    labels = cat.labels
    return {
        "labels": list(labels),
        "N": {
            labels[a]: {
                labels[b]: {labels[c]: int(N[a, b, c]) for c in np.nonzero(N[a, b])[0]}
                for b in range(len(labels))
            }
            for a in range(len(labels))
        },
    }


@settings(max_examples=150, deadline=None)
@given(
    name=hst.sampled_from(fusion.bundled_category_names()),
    edit=hst.sampled_from(("change", "drop", "dual")),
    data=hst.data(),
)
def test_edited_fusion_table_rejected_by_name_or_still_a_ring(name, edit, data):
    cat = fusion.bundled_category(name)
    n = cat.n_labels
    N = cat.N.copy()
    dual = None
    if edit == "change":
        a, b, c = data.draw(hst.tuples(*[hst.integers(0, n - 1)] * 3))
        N[a, b, c] = data.draw(hst.integers(0, 3).filter(lambda v: v != cat.N[a, b, c]))
    elif edit == "drop":
        a, b, c = data.draw(hst.sampled_from([tuple(int(i) for i in idx) for idx in np.argwhere(N)]))
        N[a, b, c] = 0
    else:
        a = data.draw(hst.sampled_from(cat.labels))
        dual = dict(cat.dual)
        dual[a] = data.draw(hst.sampled_from([lab for lab in cat.labels if lab != cat.dual[a]]))
    doc = table_document(cat, N)
    if dual is not None:
        doc["dual"] = dual
    valid = is_fusion_ring(N, cat.labels, dual)
    try:
        edited = fusion.load_category(doc)
        fusion.fusion_probabilities(edited)
    except (InvalidCategory, MalformedInput) as exc:
        assert not valid, exc
        assert re.search(r"unit|dual|associativ|dimension", str(exc)), exc
    else:
        assert valid


def _cyclic_table(m: int) -> np.ndarray:
    N = np.zeros((m, m, m), dtype=np.int64)
    a, b = np.indices((m, m))
    N[a, b, (a + b) % m] = 1
    return N


def _rank_two_table(k: int) -> np.ndarray:
    # x * x = 1 + k x: a commutative algebra on one generator, associative for every k
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = k
    return N


@hst.composite
def integer_tables(draw) -> np.ndarray:
    """Integer tables up to 25 labels: associative ones (cyclic groups and
    x^2 = 1 + k x rings, their tensor products, relabelled), the same with
    one entry edited, and random ones.  Some are scaled by 3^16, an odd
    scale, which puts most of them past the float64 exactness bound
    n * max(N)^2 < 2^53 (float64 products would round there)."""

    def factor(orders):
        if draw(hst.booleans()):
            return _cyclic_table(draw(orders))
        return _rank_two_table(draw(hst.integers(0, 3)))

    N = factor(hst.integers(1, 5) | hst.integers(17, 20))
    if len(N) <= 5 and draw(hst.booleans()):
        other = factor(hst.integers(1, 5))
        n = len(N) * len(other)
        N = np.einsum("abc,ijk->aibjck", N, other).reshape(n, n, n)
    n = len(N)
    perm = np.array(draw(hst.permutations(range(n))))
    N = N[np.ix_(perm, perm, perm)]
    edit = draw(hst.sampled_from(("none", "entry", "random")))
    if edit == "entry":
        a, b, c = draw(hst.tuples(*[hst.integers(0, n - 1)] * 3))
        N[a, b, c] = draw(hst.integers(0, 3).filter(lambda v: v != N[a, b, c]))
    elif edit == "random":
        N = np.random.default_rng(draw(hst.integers(0, 2**32 - 1))).integers(0, 3, (n, n, n))
    return N * draw(hst.sampled_from((1, 3**16)))


@settings(max_examples=300, deadline=None)
@given(N=integer_tables())
def test_associativity_products_match_einsum_oracle(N):
    # an admitted table's float64 products accept and reject as the int64
    # einsums do, naming the same first (a, b, c, d) and sums; a table past
    # the exactness bound is refused while it is parsed
    n = len(N)
    if n * int(N.max()) ** 2 < fusion.FLOAT_EXACT_BOUND:
        assert fusion._associativity_failure(N) == associativity_failure_einsum(N)
        return
    labels = [str(k) for k in range(n)]
    doc = {
        "labels": labels,
        "N": {labels[a]: {labels[b]: {labels[c]: int(N[a, b, c]) for c in range(n)} for b in range(n)}
              for a in range(n)},
    }
    with pytest.raises(MalformedInput, match="exact float64 bound"):
        fusion.load_category(doc)
