import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from teelab import audit, gfp, stabilizer as st
from teelab.errors import (
    DimensionCap,
    InsufficientWidth,
    InvalidGeometry,
    MalformedInput,
)

import dense_oracles as dense
from dense_oracles import dense_generators, frame_phases
from oracles import verify_assumptions_loop


@pytest.fixture(scope="module")
def toric12():
    lat = st.Lattice(width=12, height=12, prime=2)
    ground = st.build_ground_state(lat)
    part = st.centered_annulus(lat, width=2)
    return lat, ground, part


@pytest.fixture(scope="module")
def toric12_sectors(toric12):
    lat, ground, part = toric12
    return st.sector_family(ground, part)


class TestLattice:
    def test_edge_counts(self):
        lat = st.Lattice(width=4, height=4, prime=2)
        assert lat.n_edges == 40
        assert lat.n_h_edges == 20

    def test_midpoints_unique(self):
        lat = st.Lattice(width=5, height=4, prime=3)
        mids = lat.edge_midpoints
        assert len(np.unique(mids, axis=0)) == lat.n_edges

    def test_star_and_plaquette_commute(self):
        # shared corner contributions cancel pairwise
        lat = st.Lattice(width=4, height=4, prime=5)
        for vx, vy in ((1, 1), (2, 1), (2, 2), (1, 2)):
            star = dict(lat.vertex_star(vx, vy))
            plaq = dict(lat.plaquette_boundary(1, 1))
            shared = set(star) & set(plaq)
            pairing = sum(star[e] * plaq[e] for e in shared)
            assert pairing % 5 == 0

    def test_rejects_small_and_composite(self):
        with pytest.raises(MalformedInput):
            st.Lattice(width=3, height=4, prime=2)
        with pytest.raises(MalformedInput):
            st.Lattice(width=4, height=4, prime=4)

    def test_rejects_primes_whose_residue_sums_overflow(self):
        # 2 E p^2 < 2**63 keeps every sum of residue products inside int64;
        # 4 x 4 has E = 40, and 339546971 and 339546983 are the primes on
        # either side of the bound.  The bound is checked before the trial
        # division, so an even 2**64 is refused for its size
        lat = st.Lattice(width=4, height=4, prime=339546971)
        state = st.build_ground_state(lat)
        edges = [e for e, _ in lat.plaquette_boundary(1, 1)]
        assert st.region_entropy(state, edges) == 3 * math.log(339546971)
        for p in (339546983, 4294967311, 2**64):
            with pytest.raises(DimensionCap, match="overflow"):
                st.Lattice(width=4, height=4, prime=p)

    def test_oversize_lattice_rejected_at_construction(self):
        # the sparse generators take 64 E bytes: 1447 x 1447 fits under the
        # cap, 1448 x 1448 and 5000 x 5000 (about 3 GB) do not
        for size in (5000, 1448):
            with pytest.raises(DimensionCap):
                st.Lattice(width=size, height=size, prime=2)
        for size in (1447, 200, 64):
            st.Lattice(width=size, height=size, prime=2)

    def test_dense_export_capped(self):
        # 44 x 44 is the largest square lattice whose dense E x 2E matrix fits
        st.check_dense_cap(3960, 2 * 3960)
        with pytest.raises(DimensionCap):
            st.check_dense_cap(4140, 2 * 4140)
        state = st.build_ground_state(st.Lattice(width=45, height=45, prime=2))
        with pytest.raises(DimensionCap):
            dense_generators(state.gens)


class TestGroundState:
    def test_generator_count_equals_edges(self):
        lat = st.Lattice(width=4, height=4, prime=2)
        state = st.build_ground_state(lat)
        assert dense_generators(state.gens).shape == (40, 80)

    def test_build_grows_no_forest(self, monkeypatch):
        # the full-rank check needs component labels, never a join order
        def no_forest(*args):
            raise AssertionError("the build asked for a join mask")

        monkeypatch.setattr(st, "_forest_joins", no_forest)
        state = st.build_ground_state(st.Lattice(width=13, height=11, prime=3))
        assert state.gens.n_rows == state.n

    def test_whole_system_pure(self, toric12):
        lat, ground, _ = toric12
        assert st.region_entropy(ground, range(lat.n_edges)) == 0.0

    def test_empty_region(self, toric12):
        _, ground, _ = toric12
        assert st.region_entropy(ground, []) == 0.0

    def test_single_edge_ln_p(self):
        # rank oracle: no nonidentity stabilizer fits on one edge
        lat = st.Lattice(width=4, height=4, prime=2)
        state = st.build_ground_state(lat)
        assert abs(st.region_entropy(state, [lat.h_edge(1, 2)]) - math.log(2)) < 1e-15

    def test_bulk_plaquette_ring_three_ln_two(self, toric12):
        # only the plaquette operator itself is supported on its 4 edges
        lat, ground, _ = toric12
        edges = [e for e, _ in lat.plaquette_boundary(5, 5)]
        assert abs(st.region_entropy(ground, edges) - 3 * math.log(2)) < 1e-15

    @pytest.mark.parametrize("reader", [
        st.region_rank, st.region_entropy, st.restricted_canonical, dense.region_density,
        lambda state, region: st.reduction_relation(state, state, region),
    ], ids=["region_rank", "region_entropy", "restricted_canonical", "region_density", "reduction_relation"])
    @pytest.mark.parametrize("offset", [-5, -1, 0, 3], ids=["-5", "-1", "E", "E+3"])
    def test_edge_ids_outside_the_lattice_refused(self, reader, offset):
        # numpy would read a negative id from the end of the lattice's
        # columns, and an id past the last edge raised a bare IndexError
        state = st.build_ground_state(st.Lattice(width=6, height=6, prime=3))
        bad = offset if offset < 0 else state.n + offset
        with pytest.raises(MalformedInput, match="outside the lattice"):
            reader(state, (1, 2, bad))

    def test_cmi_run_leaves_numpy_ma_unimported(self):
        # a plain np.unique imports numpy.ma on first use (numpy 2.4); the
        # region reads dedupe edges by a sort, so a CMI run never pays it
        code = (
            "import sys\n"
            "from teelab import cli\n"
            "assert cli.run({'scenario': 'stabilizer', 'p': 2, 'size': 12, 'widths': 2})['all_passed']\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(st.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("p", [2, 3])
    def test_purity_duality(self, p):
        # S(R) = S(complement) for a pure global state, exactly
        lat = st.Lattice(width=6, height=5, prime=p)
        state = st.build_ground_state(lat)
        all_edges = set(range(lat.n_edges))
        for box in ((0, 0, 5, 5), (2, 3, 9, 7), (1, 1, 4, 10)):
            region = set(lat.edges_in_box(box))
            s1 = st.region_entropy(state, region)
            s2 = st.region_entropy(state, all_edges - region)
            assert s1 == s2

    def test_entropies_integer_multiples_of_ln_p(self):
        lat = st.Lattice(width=5, height=5, prime=3)
        state = st.build_ground_state(lat)
        for box in ((0, 0, 6, 4), (1, 3, 7, 9)):
            s = st.region_entropy(state, lat.edges_in_box(box))
            assert abs(s / math.log(3) - round(s / math.log(3))) < 1e-12


class TestSectors:
    def test_vacuum_sector_unchanged(self, toric12):
        _, ground, part = toric12
        state = st.create_sector(ground, (0, 0), origin=part.origin)
        np.testing.assert_array_equal(frame_phases(state), frame_phases(ground))

    def test_charge_witness_eigenvalue_minus_one(self, toric12, toric12_sectors):
        # the enclosing X-type loop picks up eigenvalue omega^1 = -1 on an e
        _, _, part = toric12
        phases = st.sector_witness_phases(toric12_sectors[(1, 0)], part)
        assert phases == {"charge": 1, "flux": 0}

    def test_witness_phases_pairing_oracle(self, toric12, toric12_sectors):
        # independent oracle: build the loop and string vectors from geometry
        # and evaluate the symplectic pairing directly
        lat, ground, part = toric12
        E = lat.n_edges
        ox, oy = part.origin
        hx0, hy0, hx1, hy1 = part.hole
        loop = np.zeros(2 * E, dtype=np.int64)  # X loop: sum of stars over hole closure
        for x in range(hx0, hx1 + 1):
            for y in range(hy0, hy1 + 1):
                for e, sign in lat.vertex_star(x, y):
                    loop[e] = (loop[e] + sign) % 2
        string = np.zeros(2 * E, dtype=np.int64)  # Z string east from the origin vertex
        for x in range(ox, lat.width):
            string[E + lat.h_edge(x, oy)] = 1
        pairing = int(string[E:] @ loop[:E] - loop[E:] @ string[:E]) % 2
        phases = st.sector_witness_phases(toric12_sectors[(1, 0)], part)
        assert phases["charge"] == pairing == 1

    def test_p3_witness_phases_pairing_oracle(self):
        # pairing arithmetic mod 3: rebuild both detector loops and both
        # strings from geometry and evaluate the symplectic form directly
        p = 3
        lat = st.Lattice(width=10, height=10, prime=p)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2)
        ox, oy = part.origin
        hx0, hy0, hx1, hy1 = part.hole
        E = lat.n_edges

        x_loop = np.zeros(2 * E, dtype=np.int64)  # A_v product over hole closure
        for x in range(hx0, hx1 + 1):
            for y in range(hy0, hy1 + 1):
                for e, sign in lat.vertex_star(x, y):
                    x_loop[e] = (x_loop[e] + sign) % p
        z_loop = np.zeros(2 * E, dtype=np.int64)  # B_p product over hole + SW ring
        for x in range(hx0 - 1, hx1):
            for y in range(hy0 - 1, hy1):
                for e, sign in lat.plaquette_boundary(x, y):
                    z_loop[E + e] = (z_loop[E + e] + sign) % p

        def pairing(t, g):
            return int(t[E:] @ g[:E] - g[E:] @ t[:E]) % p

        for sector in ((1, 1), (2, 1), (1, 0), (0, 2)):
            c, f = sector
            string = np.zeros(2 * E, dtype=np.int64)
            for x in range(ox, lat.width):
                string[E + lat.h_edge(x, oy)] = c
            for x in range(ox + 1, lat.width + 1):
                string[lat.v_edge(x, oy)] = f
            state = st.create_sector(ground, sector, origin=part.origin)
            phases = st.sector_witness_phases(state, part)
            assert phases["charge"] == pairing(string, x_loop), sector
            assert phases["flux"] == pairing(string, z_loop), sector
            if sector == (1, 1):
                # both eigenvalues are primitive cube roots of unity
                assert phases["charge"] % 3 != 0 and phases["flux"] % 3 != 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_witnesses_bijective_mod_p(self, p):
        lat = st.Lattice(width=10, height=10, prime=p)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2)
        seen = {}
        for c in range(p):
            for f in range(p):
                state = st.create_sector(ground, (c, f), origin=part.origin)
                w = st.sector_witness_phases(state, part)
                seen[(c, f)] = (w["charge"], w["flux"])
        assert len(set(seen.values())) == p * p
        # phases are linear in the sector: (c, f) -> (c, -f mod p) under the
        # fixed orientation conventions
        for (c, f), (wc, wf) in seen.items():
            assert wc == c % p
            assert wf == (-f) % p

    def test_bad_sector_label(self, toric12):
        _, ground, _ = toric12
        with pytest.raises(MalformedInput):
            st.create_sector(ground, (2, 0))
        for origin in ((12, 5), (-1, 5), (5, 12)):
            with pytest.raises(MalformedInput):
                st.create_sector(ground, (1, 1), origin=origin)


class TestAnnulusCmi:
    def test_p2_all_sectors_exactly_two_ln_two(self, toric12, toric12_sectors):
        _, _, part = toric12
        for sec, state in toric12_sectors.items():
            value, cert = st.annulus_cmi_certificate(state, part)
            assert cert.coefficient == 2, sec
            assert value == 2 * math.log(2), sec

    def test_p3_widths_2(self):
        lat = st.Lattice(width=12, height=12, prime=3)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2)
        for sec in ((0, 0), (1, 2), (2, 2)):
            state = st.create_sector(ground, sec, origin=part.origin)
            assert st.annulus_cmi(state, part) == 2 * math.log(3)

    def test_wider_bars_same_value(self, toric12):
        lat, ground, _ = toric12
        part3 = st.centered_annulus(lat, width=3)
        assert st.annulus_cmi(ground, part3) == 2 * math.log(2)

    def test_ssa_nonnegative_on_generated_partitions(self):
        lat = st.Lattice(width=12, height=12, prime=2)
        ground = st.build_ground_state(lat)
        for width, hole in ((1, 3), (2, 1), (2, 3), (3, 3), (1, 5)):
            part = st.centered_annulus(lat, width=width, hole_size=hole)
            assert st.annulus_cmi(ground, part) >= 0.0


class TestGeometry:
    def test_partition_is_a_partition(self, toric12):
        # bar boxes are disjoint and their union misses the hole
        lat, _, part = toric12
        regions = [set(lat.edges_in_box(b)) for b in part.bar_boxes().values()]
        union = set()
        for r in regions:
            assert not (union & r)
            union |= r
        hole_edges = set(lat.edges_in_box(part.hole_box))
        assert not (union & hole_edges)

    def test_origin_must_be_inside_hole(self, toric12):
        lat, _, _ = toric12
        with pytest.raises(InvalidGeometry):
            st.AnnulusPartition(lattice=lat, origin=(0, 0), hole=(4, 4, 7, 7), width=2)

    def test_annulus_must_fit(self):
        lat = st.Lattice(width=6, height=6, prime=2)
        with pytest.raises(InvalidGeometry):
            st.AnnulusPartition(lattice=lat, origin=(2, 2), hole=(2, 2, 4, 4), width=3)

    def test_thinning_cap(self, toric12):
        lat, _, _ = toric12
        part = st.centered_annulus(lat, width=2)
        part.thin(1)  # fine
        with pytest.raises(InsufficientWidth):
            part.thin(2)


class TestAssumptions:
    def test_p2_widths2_all_pass(self, toric12, toric12_sectors):
        _, _, part = toric12
        report = st.verify_assumptions(toric12_sectors, part)
        assert report.passed
        assert not report.distinguishability.violations
        assert not report.indistinguishability.violations
        assert not report.fusion.violations

    def test_negative_geometry_displaced_anchor(self):
        # annulus displaced so the string anchor sits inside region A: local
        # loops around the anchor live in AB, so local indistinguishability
        # fails there while global distinguishability still holds
        lat = st.Lattice(width=12, height=12, prime=2)
        ground = st.build_ground_state(lat)
        displaced = st.AnnulusPartition(lattice=lat, origin=(6, 6), hole=(5, 5, 8, 8), width=3)
        anchor = (3, 6)
        fam = {sec: st.create_sector(ground, sec, origin=anchor) for sec in
               ((0, 0), (0, 1), (1, 0), (1, 1))}
        report = st.verify_assumptions(fam, displaced)
        assert report.distinguishability.passed
        assert not report.indistinguishability.passed
        regions = {v[0] for v in report.indistinguishability.violations}
        assert regions == {"AB"}
        witnesses = [v[4] for v in report.indistinguishability.violations]
        assert all(w for w in witnesses)
        # the expected witnesses: the detecting loops around the anchor,
        # Z-type for flux differences and X-type for charge differences
        kinds = {("Z" in w, "X" in w) for w in witnesses}
        assert (True, False) in kinds and (False, True) in kinds

    def test_negative_geometry_endpoint_inside_a_prime(self):
        lat = st.Lattice(width=14, height=12, prime=2)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=3)
        fam = st.sector_family(ground, part)
        bad_rule = st.FusionStringRule(endpoint="inside_a_prime")
        report = st.verify_assumptions(fam, part, bad_rule)
        assert report.distinguishability.passed
        assert report.indistinguishability.passed
        assert not report.fusion.passed
        # every nontrivial string label leaves a detectable endpoint
        failing_strings = {v[0] for v in report.fusion.violations}
        assert failing_strings == {(0, 1), (1, 0), (1, 1)}
        assert all(v[3] for v in report.fusion.violations)

    def test_p3_fusion_strings_on_sample_pairs(self):
        # odd-prime orientation check without the full p^4 sweep
        lat = st.Lattice(width=12, height=12, prime=3)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2)
        fam = st.sector_family(ground, part)
        rule = st.FusionStringRule()
        thin = part.thin(1)
        region = thin.region_edges("ABC")
        for s, a in (((1, 0), (0, 0)), ((0, 2), (1, 1)), ((2, 1), (2, 2))):
            target = ((s[0] + a[0]) % 3, (s[1] + a[1]) % 3)
            conj = st.conjugate_by_string(fam[a], st.fusion_string(fam[a], part, s, rule))
            relation, _ = st.reduction_relation(conj, fam[target], region)
            assert relation == "equal", (s, a)


def _phased_canonical(state, region):
    """Oracle: canonical form of the phased restricted group, built element by element."""
    p, n = state.lattice.prime, state.n
    outside = np.setdiff1d(np.arange(n), region)
    gens = dense_generators(state.gens)
    coeffs = gfp.left_nullspace_mod_p(gens[:, np.concatenate([outside, outside + n])], p)
    return gfp.phased_rref([gfp.combine_rows(gens, frame_phases(state), c, n, p) for c in coeffs], n, p)


def _oracle_relation(k1, k2, state):
    """Compare two phased canonical forms of one restricted group."""
    assert len(k1) == len(k2)
    for (v1, f1), (v2, f2) in zip(k1, k2):
        np.testing.assert_array_equal(v1, v2)
        if f1 != f2:
            return "orthogonal", st.pauli_repr(state, v1)
    return "equal", None


def _assumption_pairs(fam, part, rule):
    """Every comparison verify_assumptions makes: (region name, labels, state1, state2)."""
    p = part.lattice.prime
    order = sorted(fam)
    pairs = [
        (name, (a, b), fam[a], fam[b])
        for name in ("ABC", "AB", "BC")
        for i, a in enumerate(order)
        for b in order[i + 1:]
    ]
    for s in order[1:]:
        for a in order:
            target = ((s[0] + a[0]) % p, (s[1] + a[1]) % p)
            conj = st.conjugate_by_string(fam[a], st.fusion_string(fam[a], part, s, rule))
            pairs.append(("A'BC", (s, a), conj, fam[target]))
    return pairs


def _against_oracle(fam, part, rule=None, sample=False):
    """Assert reduction_relation == the phased-canonical comparison on the
    assumption pairs (or three per region); returns (name, labels, relation)."""
    rule = rule or st.FusionStringRule()
    regions = {name: part.region_edges(name) for name in ("ABC", "AB", "BC")}
    regions["A'BC"] = part.thin(1).region_edges("ABC")
    pairs = _assumption_pairs(fam, part, rule)
    if sample:
        picked = []
        for name in regions:
            group = [pair for pair in pairs if pair[0] == name]
            picked += [group[0], group[len(group) // 2], group[-1]]
        pairs = picked
    cache = {}

    def oracle(state, name):
        key = (id(state), name)
        if key not in cache:
            cache[key] = _phased_canonical(state, regions[name])
        return cache[key]

    out = []
    for name, labels, s1, s2 in pairs:
        want = _oracle_relation(oracle(s1, name), oracle(s2, name), s1)
        assert st.reduction_relation(s1, s2, regions[name]) == want, (name, labels)
        out.append((name, labels, want))
    return out


class TestPhaseTestOracle:
    """The linear phase test against the phased canonical forms it replaced."""

    @staticmethod
    def _report_matches(report, results):
        def viol(names, ok):
            return tuple(
                ((name,) if len(names) > 1 else ()) + labels + rel
                for name, labels, rel in results
                if name in names and rel[0] != ok
            )

        assert report.distinguishability.violations == viol(("ABC",), "orthogonal")
        assert report.indistinguishability.violations == viol(("AB", "BC"), "equal")
        assert report.fusion.violations == viol(("A'BC",), "equal")

    def test_p2_widths2_every_pair(self, toric12, toric12_sectors):
        _, _, part = toric12
        results = _against_oracle(toric12_sectors, part)
        assert len(results) == 30
        self._report_matches(st.verify_assumptions(toric12_sectors, part), results)

    def test_p2_displaced_anchor_every_pair(self):
        lat = st.Lattice(width=12, height=12, prime=2)
        ground = st.build_ground_state(lat)
        displaced = st.AnnulusPartition(lattice=lat, origin=(6, 6), hole=(5, 5, 8, 8), width=3)
        fam = {sec: st.create_sector(ground, sec, origin=(3, 6)) for sec in
               ((0, 0), (0, 1), (1, 0), (1, 1))}
        results = _against_oracle(fam, displaced)
        assert any(rel[1] for name, _, rel in results if name == "AB")
        self._report_matches(st.verify_assumptions(fam, displaced), results)

    def test_p2_inside_a_prime_sample(self):
        lat = st.Lattice(width=14, height=12, prime=2)
        part = st.centered_annulus(lat, width=3)
        fam = st.sector_family(st.build_ground_state(lat), part)
        rule = st.FusionStringRule(endpoint="inside_a_prime")
        results = _against_oracle(fam, part, rule, sample=True)
        assert [rel[0] for name, _, rel in results if name == "A'BC"] == ["orthogonal"] * 3

    def test_p3_widths2_sample(self):
        lat = st.Lattice(width=10, height=10, prime=3)
        part = st.centered_annulus(lat, width=2)
        fam = st.sector_family(st.build_ground_state(lat), part)
        results = _against_oracle(fam, part, sample=True)
        assert {name: rel[0] for name, _, rel in results} == {
            "ABC": "orthogonal", "AB": "equal", "BC": "equal", "A'BC": "equal"
        }


def _displaced_family(p):
    lat = st.Lattice(width=12, height=12, prime=p)
    ground = st.build_ground_state(lat)
    displaced = st.AnnulusPartition(lattice=lat, origin=(6, 6), hole=(5, 5, 8, 8), width=3)
    fam = {(c, f): st.create_sector(ground, (c, f), origin=(3, 6)) for c in range(p) for f in range(p)}
    return fam, displaced, None


def _centered_family(p, width, height, bar=2, rule=None):
    lat = st.Lattice(width=width, height=height, prime=p)
    part = st.centered_annulus(lat, width=bar)
    return st.sector_family(st.build_ground_state(lat), part), part, rule


FAMILIES = {
    **{f"p{p}_12x12": (lambda p=p: _centered_family(p, 12, 12)) for p in (2, 3, 5, 7, 13)},
    "p3_10x10": lambda: _centered_family(3, 10, 10),
    **{f"p{p}_displaced_anchor": (lambda p=p: _displaced_family(p)) for p in (2, 3)},
    **{
        f"p{p}_inside_a_prime": (
            lambda p=p: _centered_family(p, 14, 12, bar=3, rule=st.FusionStringRule(endpoint="inside_a_prime"))
        )
        for p in (2, 3)
    },
}


class TestFrameDifferences:
    """verify_assumptions decides every pair from the phases of each region's
    row clusters; the per-pair loop on the canonical basis is the oracle."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_report_matches_loop_oracle(self, name):
        fam, part, rule = FAMILIES[name]()
        report = st.verify_assumptions(fam, part, rule)
        assert report == verify_assumptions_loop(fam, part, rule)
        if "displaced" in name or "inside" in name:
            assert not report.passed

    def test_one_fusion_string_per_label_and_no_conjugation(self, monkeypatch):
        fam, part, _ = _centered_family(3, 12, 12)
        calls = []
        fusion_string = st.fusion_string

        def counting(state, part, s, rule):
            calls.append(s)
            return fusion_string(state, part, s, rule)

        def no_conjugation(state, t):
            raise AssertionError("conjugate_by_string called")

        monkeypatch.setattr(st, "fusion_string", counting)
        monkeypatch.setattr(st, "conjugate_by_string", no_conjugation)
        assert st.verify_assumptions(fam, part).passed
        assert calls == sorted(fam)[1:]  # p^2 - 1 strings, one per nontrivial s

    def test_passing_family_builds_no_restricted_basis(self, monkeypatch):
        # pairs are decided from cluster phases; a basis is eliminated only to
        # write out a violation's witness
        fam, part, _ = _centered_family(3, 12, 12)

        def no_basis(state, region):
            raise AssertionError("restricted_canonical ran")

        monkeypatch.setattr(st, "restricted_canonical", no_basis)
        assert st.verify_assumptions(fam, part).passed


class TestWitnessBlockCap:
    def test_region_block_over_the_cap_refused_before_allocation(self, toric12, monkeypatch):
        # restricted_canonical reads a dense (rows touching R) x 2|R| int64
        # block; at one byte under its size the cap refuses it unallocated
        _, ground, part = toric12
        region = part.region_edges("ABC")
        edges, vecs = st.restricted_canonical(ground, region)
        block = ground.gens.region_block(edges)
        zeros = np.zeros

        def no_block(shape, *args, **kwargs):
            if shape == block.shape:
                raise AssertionError("block allocated")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(st, "GENS_BYTES_CAP", block.nbytes - 1)
        monkeypatch.setattr(np, "zeros", no_block)
        with pytest.raises(DimensionCap, match="cap"):
            st.restricted_canonical(ground, region)
        monkeypatch.setattr(st, "GENS_BYTES_CAP", block.nbytes)
        monkeypatch.setattr(np, "zeros", zeros)
        again = st.restricted_canonical(ground, region)
        assert np.array_equal(again[0], edges) and np.array_equal(again[1], vecs)


class TestSharedGenerators:
    def test_states_from_two_lattices_rejected(self, toric12, toric12_sectors):
        lat, ground, part = toric12
        other = st.build_ground_state(st.Lattice(width=14, height=12, prime=2))
        for s1, s2 in ((ground, other), (other, ground)):
            with pytest.raises(MalformedInput):
                st.reduction_relation(s1, s2, part.region_edges("AB"))
        mixed = {**toric12_sectors, (1, 1): other}
        with pytest.raises(MalformedInput):
            st.verify_assumptions(mixed, part)


class TestNestedTable:
    def test_p2_n3_constant(self):
        lat = st.Lattice(width=14, height=12, prime=2)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2, a_width=5)
        trace = st.nested_annulus_table(ground, part, n=3)
        assert trace.table.shape == (4, 5)
        np.testing.assert_allclose(trace.table, 2 * math.log(2), atol=0)
        diffs = trace.table[:, 1:] - trace.table[:, :-1]
        assert np.abs(diffs).max() == 0.0  # monotone with equality
        assert audit.assemble_bound(trace).passed

    def test_p3_n2_constant(self):
        lat = st.Lattice(width=12, height=12, prime=3)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2, a_width=4)
        trace = st.nested_annulus_table(ground, part, n=2)
        np.testing.assert_allclose(trace.table, 2 * math.log(3), atol=0)

    def test_insufficient_width(self, toric12):
        _, ground, part = toric12
        with pytest.raises(InsufficientWidth):
            st.nested_annulus_table(ground, part, n=2)

    def test_level_checks_come_before_any_rank(self, monkeypatch):
        def no_rank(*args):
            raise AssertionError("a rank was computed")

        cases = []
        for p, n, error in ((11, 3, MalformedInput), (2, 0, MalformedInput), (2, 4, InsufficientWidth)):
            lat = st.Lattice(width=14, height=12, prime=p)
            # the build certifies full rank by a graph rank, so it runs before the patch
            cases.append((st.build_ground_state(lat), st.centered_annulus(lat, width=2, a_width=5), n, error))
        monkeypatch.setattr(st, "_column_graph", no_rank)  # every graph rank reads its columns here
        for state, part, n, error in cases:
            with pytest.raises(error):
                st.check_nested_levels(part, n)
            with pytest.raises(error):
                st.nested_annulus_table(state, part, n)

    def test_level_checks_build_no_category(self, monkeypatch):
        # p <= 9 is read off the prime: a --levels run checks its levels three times
        def no_category(p):
            raise AssertionError("a category was built")

        monkeypatch.setattr(st, "double_zn_category", no_category)
        for p in (3, 7, 11):
            part = st.centered_annulus(st.Lattice(width=14, height=12, prime=p), width=2, a_width=5)
            if p > 9:
                with pytest.raises(MalformedInput, match="two-digit labels only support p <= 9"):
                    st.check_nested_levels(part, 3)
            else:
                st.check_nested_levels(part, 3)


class TestDenseImport:
    def test_detector_region_orthogonal_sectors(self, toric12, toric12_sectors):
        lat, _, part = toric12
        ox, oy = part.origin
        region = tuple(sorted(
            {e for e, _ in lat.vertex_star(ox, oy)} | {e for e, _ in lat.plaquette_boundary(ox, oy)}
        ))
        ops = {sec: dense.region_density(state, region) for sec, state in toric12_sectors.items()}
        secs = sorted(ops)
        for i, a in enumerate(secs):
            for b in secs[i + 1:]:
                assert abs(dense.overlap(ops[a], ops[b])) < 1e-10
                relation, _ = st.reduction_relation(toric12_sectors[a], toric12_sectors[b], region)
                assert relation == "orthogonal"

    def test_flux_blind_subregion_equal(self, toric12, toric12_sectors):
        # the plaquette ring sees flux but not charge
        lat, _, part = toric12
        ox, oy = part.origin
        ring_edges = tuple(sorted(e for e, _ in lat.plaquette_boundary(ox, oy)))
        relation, _ = st.reduction_relation(
            toric12_sectors[(0, 0)], toric12_sectors[(1, 0)], ring_edges
        )
        assert relation == "equal"
        d = dense.trace_distance(
            dense.region_density(toric12_sectors[(0, 0)], ring_edges),
            dense.region_density(toric12_sectors[(1, 0)], ring_edges),
        )
        assert d < 1e-12

    def test_density_matches_rank_entropy(self, toric12, toric12_sectors):
        lat, _, part = toric12
        ox, oy = part.origin
        region = tuple(sorted(e for e, _ in lat.plaquette_boundary(ox, oy)))
        op = dense.region_density(toric12_sectors[(1, 1)], region)
        dense_entropy = dense.von_neumann_entropy(op)
        rank_entropy = st.region_entropy(toric12_sectors[(1, 1)], region)
        assert abs(dense_entropy - rank_entropy) < 1e-10

    def test_dense_cap(self, toric12, toric12_sectors):
        lat, _, part = toric12
        big = part.region_edges("ABC")
        with pytest.raises(DimensionCap):
            dense.region_density(toric12_sectors[(0, 0)], big)

    def test_dense_cap_is_the_byte_cap(self, toric12, toric12_sectors, monkeypatch):
        # 13 qubits: a 2^13 x 2^13 complex matrix is 1 GiB, over the 2^28-byte
        # cap that 12 qubits meet exactly; refused before the group is formed
        lat, _, part = toric12
        region = part.region_edges("AB")[:13]
        assert 16 * 4**12 == st.GENS_BYTES_CAP < 16 * 4**13

        def no_basis(state, region):
            raise AssertionError("restricted_canonical ran")

        monkeypatch.setattr(st, "restricted_canonical", no_basis)
        with pytest.raises(DimensionCap, match="cap"):
            dense.region_density(toric12_sectors[(0, 0)], region)
        with pytest.raises(AssertionError, match="restricted_canonical ran"):
            dense.region_density(toric12_sectors[(0, 0)], region[:12])
