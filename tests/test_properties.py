"""Property tests: region-local ranks against the complement-rank oracle on
random valid annulus geometries and primes, and rank_mod_p against a
brute-force span count."""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

from teelab import gfp, stabilizer as st  # noqa: E402

PRIMES = (2, 3, 5, 7, 11, 13)


@lru_cache(maxsize=8)
def ground(width: int, height: int, p: int) -> st.StabilizerState:
    return st.build_ground_state(st.Lattice(width=width, height=height, prime=p))


def complement_rank(state: st.StabilizerState, region) -> int:
    """Oracle: g_R = E - rank of the generators on the region's complement columns."""
    E = state.n
    outside = np.setdiff1d(np.arange(E), np.asarray(region, dtype=np.int64))
    cols = np.concatenate([outside, outside + E])
    return E - gfp.rank_mod_p(state.gens[:, cols], state.lattice.prime)


@hst.composite
def annuli(draw) -> st.AnnulusPartition:
    """A valid annulus: bar widths, hole size, origin and lattice size all drawn,
    with one plaquette of clearance on a lattice of at most 14 x 14."""
    p = draw(hst.sampled_from(PRIMES))
    bar = draw(hst.integers(1, 3))
    a_width = draw(hst.integers(1, 4))
    hole_w, hole_h = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    width = draw(hst.integers(max(4, a_width + hole_w + bar + 2), 14))
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
def test_strong_subadditivity_on_random_edge_sets(part, data):
    # S(X) + S(Y) >= S(X u Y) + S(X n Y), in units of log p
    lat = part.lattice
    state = ground(lat.width, lat.height, lat.prime)
    x, y = (set(r) for r in _edge_sets(data.draw, lat.n_edges, 2))

    def s(region):
        region = tuple(sorted(region))
        return len(region) - st.region_rank(state, region)

    assert s(x) + s(y) >= s(x | y) + s(x & y)


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
