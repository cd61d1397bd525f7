import math

import numpy as np
import pytest

from teelab import audit, ring
from teelab.errors import DimensionCap, InsufficientWidth, MalformedInput

import dense_oracles as dense
from dense_oracles import SiteInThinnedRegion
from oracles import ring_table_loop


def enumerate_supports(spec):
    """Exhaustive oracle: all configurations of every sector, as arrays."""
    q, n = spec.q, spec.n_sites
    digits = np.indices((q,) * n).reshape(n, -1).T
    return {a: digits[digits.sum(axis=1) % q == a] for a in range(q)}


class TestFamily:
    def test_q2_support_sizes(self):
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        fam = dense.build_family(spec)
        assert len(fam.states) == 2
        for state in fam.states:
            assert state.support_size == 2**7

    def test_q3_supports_disjoint(self):
        spec = ring.RingSpec(q=3, sites_a=1, sites_b1=1, sites_c=1, sites_b2=1)
        fam = dense.build_family(spec)
        supports = [set(map(tuple, s.enumerate_support())) for s in fam.states]
        assert all(len(s) == 27 for s in supports)
        assert not (supports[0] & supports[1])
        assert not (supports[0] & supports[2])
        assert not (supports[1] & supports[2])

    def test_enumeration_matches_implicit_support(self):
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        state = dense.RingSectorState(spec, 1)
        oracle = enumerate_supports(spec)[1]
        listed = sorted(map(tuple, state.enumerate_support()))
        assert listed == sorted(map(tuple, oracle))
        assert all(state.contains(cfg) for cfg in listed)

    def test_proper_subset_reductions_maximally_mixed(self):
        # every partial configuration on < N sites extends equally often
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        supports = enumerate_supports(spec)
        for a, support in supports.items():
            for sites in ([0], [0, 1, 2], list(range(7))):
                proj = support[:, sites]
                _, counts = np.unique(proj, axis=0, return_counts=True)
                assert (counts == 2 ** (7 - len(sites))).all()


class TestExactCmi:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_equals_log_q(self, q):
        spec = ring.RingSpec(q=q, sites_a=2, sites_b1=1, sites_c=2, sites_b2=1)
        assert ring.cmi_coefficient(spec) == 1
        assert abs(ring.exact_cmi(spec) - math.log(q)) < 1e-15
        assert abs(ring.saturation_margin(spec)) < 1e-15

    @pytest.mark.parametrize(
        "q,arcs",
        [
            (2, (2, 2, 2, 2)),
            (3, (2, 1, 2, 1)),
            (3, (3, 3, 3, 3)),
            (4, (2, 1, 2, 1)),
            (5, (1, 1, 1, 1)),
            (7, (1, 1, 1, 1)),
        ],
    )
    def test_counting_agrees_with_enumeration(self, q, arcs):
        # the enumeration oracle: uniform marginals with the counting
        # multiplicity imply S(R) = |R| log q and S(ring) = (N-1) log q
        spec = ring.RingSpec(q=q, sites_a=arcs[0], sites_b1=arcs[1], sites_c=arcs[2], sites_b2=arcs[3])
        supports = enumerate_supports(spec)
        n = spec.n_sites
        for a, support in supports.items():
            assert len(support) == q ** (n - 1)
            for tag in ("A", "B", "C"):
                sites = list(spec.region_sites(tag))
                proj = support[:, sites]
                _, counts = np.unique(proj, axis=0, return_counts=True)
                assert (counts == q ** (n - 1 - len(sites))).all()
        # with uniform marginals established, the counting entropies are exact
        s_b = dense.counting_entropy(spec, len(spec.region_sites("B")))
        assert abs(s_b - len(spec.region_sites("B")) * math.log(q)) == 0.0
        assert abs(ring.exact_cmi(spec) - math.log(q)) < 1e-15

    def test_dense_export_reproduces_counting(self):
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        fam = dense.dense_family(dense.build_family(spec))
        part = dense.ring_partition(spec)
        for label, op in fam.states.items():
            value = dense.conditional_mutual_information(op, part)
            assert abs(value - ring.exact_cmi(spec)) < 1e-10, label

    def test_dense_export_cap(self):
        spec = ring.RingSpec(q=3, sites_a=4, sites_b1=4, sites_c=4, sites_b2=4)
        with pytest.raises(DimensionCap):
            dense.dense_state(dense.RingSectorState(spec, 0))


class TestFusionShift:
    def setup_method(self):
        self.spec = ring.RingSpec(q=3, sites_a=2, sites_b1=1, sites_c=1, sites_b2=1)
        self.removed = dense.thinned_sites(self.spec, 1)

    def test_identity_shift(self):
        shift = dense.fusion_unitary(self.spec, 0, self.removed[0], self.removed)
        lu = shift.as_local_unitary()
        np.testing.assert_array_equal(lu.matrix, np.eye(3))

    def test_shift_moves_sector(self):
        state = dense.RingSectorState(self.spec, 0)
        shift = dense.fusion_unitary(self.spec, 1, self.removed[0], self.removed)
        assert shift.apply(state).sector == 1
        # dense cross-check: conjugation maps the sector-0 operator to sector 1
        op0 = dense.dense_state(state)
        op1 = dense.dense_state(state.shifted(1))
        moved = dense.apply_local_unitary(op0, shift.as_local_unitary())
        assert np.abs(moved.matrix - op1.matrix).max() < 1e-12

    def test_composition_is_group_action(self):
        s = dense.fusion_unitary(self.spec, 1, self.removed[0], self.removed)
        t = dense.fusion_unitary(self.spec, 2, self.removed[0], self.removed)
        assert s.compose(t).s == 0  # 1 + 2 = 0 mod 3
        state = dense.RingSectorState(self.spec, 1)
        assert s.compose(t).apply(state).sector == 1

    def test_site_retained_in_a_prime_rejected(self):
        retained = [s for s in self.spec.region_sites("A") if s not in self.removed]
        with pytest.raises(SiteInThinnedRegion):
            dense.fusion_unitary(self.spec, 1, retained[0], self.removed)

    def test_site_outside_a_rejected(self):
        b_site = self.spec.region_sites("B1")[0]
        with pytest.raises(MalformedInput):
            dense.fusion_unitary(self.spec, 1, b_site, self.removed)


class TestNestedTable:
    def test_q2_constant_ln2(self):
        spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
        trace = ring.nested_annulus_table(spec, n=2)
        assert trace.table.shape == (2, 4)
        np.testing.assert_allclose(trace.table, math.log(2), atol=1e-15)

    def test_monotone_with_equality(self):
        spec = ring.RingSpec(q=2, sites_a=5, sites_b1=1, sites_c=1, sites_b2=1)
        trace = ring.nested_annulus_table(spec, n=3)
        diffs = trace.table[:, 1:] - trace.table[:, :-1]
        assert np.abs(diffs).max() < 1e-15

    def test_q3_constant_ln3(self):
        spec = ring.RingSpec(q=3, sites_a=4, sites_b1=2, sites_c=2, sites_b2=2)
        trace = ring.nested_annulus_table(spec, n=2)
        np.testing.assert_allclose(trace.table, math.log(3), atol=1e-15)

    @pytest.mark.parametrize("q, arcs, n", [(2, (4, 1, 1, 1), 2), (3, (9, 2, 3, 1), 7), (53, (2002, 2, 2, 2), 2000)])
    def test_table_matches_per_level_loop(self, q, arcs, n):
        # the level column, read as one array expression, equals one exact_cmi
        # per thinned spec bit for bit
        spec = ring.RingSpec(q, *arcs)
        np.testing.assert_array_equal(ring.nested_annulus_table(spec, n).table, ring_table_loop(spec, n))

    def test_insufficient_width(self):
        spec = ring.RingSpec(q=2, sites_a=3, sites_b1=1, sites_c=1, sites_b2=1)
        with pytest.raises(InsufficientWidth):
            ring.nested_annulus_table(spec, n=2)

    def test_trace_feeds_audit(self):
        spec = ring.RingSpec(q=5, sites_a=6, sites_b1=2, sites_c=2, sites_b2=2)
        trace = ring.nested_annulus_table(spec, n=4)
        report = audit.assemble_bound(trace)
        assert report.passed
        assert trace.provenance == "ring_family"


class TestSpecValidation:
    def test_tiny_ring_rejected(self):
        with pytest.raises(MalformedInput):
            ring.RingSpec(q=2, sites_a=1, sites_b1=1, sites_c=1, sites_b2=0)

    def test_q1_rejected(self):
        with pytest.raises(MalformedInput):
            ring.RingSpec(q=1, sites_a=2, sites_b1=1, sites_c=1, sites_b2=1)

    def test_arcs_in_cyclic_order(self):
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=3, sites_c=1, sites_b2=2)
        arcs = spec.arcs()
        assert arcs["A"] == (0, 1)
        assert arcs["B1"] == (2, 3, 4)
        assert arcs["C"] == (5,)
        assert arcs["B2"] == (6, 7)
        assert spec.region_sites("B") == (2, 3, 4, 6, 7)
