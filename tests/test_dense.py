import math

import numpy as np
import pytest

from teelab import fusion, ring
from teelab.errors import DimensionCap, MalformedInput, PremiseViolated

import dense_oracles as dense
from dense_oracles import (
    DensityOperator,
    FactorSpace,
    InvalidOperator,
    LocalUnitary,
    Partition,
    SupportViolation,
    UnknownFactor,
)
from conftest import ghz_phase_family, ghz_vector, product_pair_family
from oracles import point_mass

LN2 = math.log(2)


def bell_state() -> DensityOperator:
    space = FactorSpace.of_dims([2, 2])
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    return DensityOperator.from_vector(space, vec)


class TestPartialTrace:
    def test_bell_pair_reduces_to_maximally_mixed(self):
        reduced = dense.partial_trace(bell_state(), [0])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(0)
        a = dense.random_density(FactorSpace.of_dims([3]), 1)
        b = dense.random_density(FactorSpace.of_dims([2]), 2)
        space = FactorSpace.of_dims([3, 2])
        rho = DensityOperator(space, np.kron(a.matrix, b.matrix))
        np.testing.assert_allclose(dense.partial_trace(rho, [0]).matrix, a.matrix, atol=1e-12)
        np.testing.assert_allclose(dense.partial_trace(rho, [1]).matrix, b.matrix, atol=1e-12)

    def test_ghz_keep_first_two(self):
        # hand contraction: |000>, |111> components survive diagonally
        space = FactorSpace.of_dims([2, 2, 2])
        rho = DensityOperator.from_vector(space, ghz_vector(3))
        reduced = dense.partial_trace(rho, [0, 1])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_composition(self):
        space = FactorSpace.of_dims([2, 3, 2, 2])
        rho = dense.random_density(space, 5)
        direct = dense.partial_trace(rho, [1, 3])
        via = dense.partial_trace(dense.partial_trace(rho, [0, 1, 3]), [1, 3])
        assert np.abs(direct.matrix - via.matrix).max() < 1e-12

    def test_unknown_factor(self):
        with pytest.raises(UnknownFactor):
            dense.partial_trace(bell_state(), [7])


class TestEntropy:
    def test_pure_state_zero(self):
        assert dense.von_neumann_entropy(bell_state()) < 1e-12

    def test_maximally_mixed(self):
        for d in (2, 3, 6):
            rho = DensityOperator(FactorSpace.of_dims([d]), np.eye(d) / d)
            assert abs(dense.von_neumann_entropy(rho) - math.log(d)) < 1e-12

    def test_half_zero_half_plus(self):
        # eigenvalues (2 +- sqrt 2)/4 by the quadratic formula
        m = 0.5 * np.array([[1, 0], [0, 0]]) + 0.25 * np.array([[1, 1], [1, 1]])
        rho = DensityOperator(FactorSpace.of_dims([2]), m)
        lam = np.array([(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4])
        expected = float(-(lam * np.log(lam)).sum())
        assert abs(dense.von_neumann_entropy(rho) - expected) < 1e-12

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.1, -0.1])
        rho = DensityOperator(FactorSpace.of_dims([2]), m)
        with pytest.raises(InvalidOperator, match="positivity"):
            dense.von_neumann_entropy(rho)

    def test_orthogonal_mixture_formula(self):
        # S(sum p_a rho_a) = sum p_a S(rho_a) + H(p) for orthogonal supports
        space = FactorSpace.of_dims([2, 2])
        up = np.zeros((4, 4))
        up[0, 0] = up[1, 1] = 0.5
        down = np.zeros((4, 4))
        down[2, 2] = down[3, 3] = 0.5
        for p in (0.5, 0.25, 0.9):
            mix = DensityOperator(space, p * up + (1 - p) * down)
            expected = math.log(2) + (-p * math.log(p) - (1 - p) * math.log(1 - p))
            assert abs(dense.von_neumann_entropy(mix) - expected) < 1e-9


class TestCmi:
    def test_product_state_zero(self):
        space = FactorSpace.of_dims([2, 2, 3])
        parts = [dense.random_density(FactorSpace.of_dims([d]), s) for s, d in enumerate(space.dims)]
        m = parts[0].matrix
        for q in parts[1:]:
            m = np.kron(m, q.matrix)
        rho = DensityOperator(space, m)
        part = Partition({0: "A", 1: "B", 2: "C"})
        assert abs(dense.conditional_mutual_information(rho, part)) < 1e-10

    def test_ghz_ln2(self):
        space = FactorSpace.of_dims([2, 2, 2])
        rho = DensityOperator.from_vector(space, ghz_vector(3))
        part = Partition({0: "A", 1: "B", 2: "C"})
        assert abs(dense.conditional_mutual_information(rho, part) - LN2) < 1e-10

    def test_ring_export_ln2(self):
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        fam = dense.dense_family(dense.build_family(spec))
        part = dense.ring_partition(spec)
        value = dense.conditional_mutual_information(fam.states["0"], part)
        assert abs(value - LN2) < 1e-10

    def test_ssa_on_seeded_randoms(self):
        part = Partition({0: "A", 1: "B", 2: "C"})
        for seed in range(30):
            rho = dense.random_density(FactorSpace.of_dims([2, 4, 3]), seed)
            assert dense.conditional_mutual_information(rho, part) >= -1e-9

    def test_monotone_under_discarding_a_factor(self):
        part_full = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        part_dropped = Partition({0: "A", 1: "ENV", 2: "B", 3: "C"})
        for seed in range(10):
            rho = dense.random_density(FactorSpace.of_dims([2, 2, 2, 2]), seed)
            full = dense.conditional_mutual_information(rho, part_full)
            dropped = dense.conditional_mutual_information(rho, part_dropped)
            assert full - dropped >= -1e-9

    def test_unitary_on_a_invariant(self):
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        rng = np.random.default_rng(11)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        lu = LocalUnitary((0, 1), u)
        for seed in range(5):
            rho = dense.random_density(FactorSpace.of_dims([2, 2, 2, 2]), seed)
            before = dense.conditional_mutual_information(rho, part)
            after = dense.conditional_mutual_information(dense.apply_local_unitary(rho, lu), part)
            assert abs(before - after) < 1e-9

    def test_vector_fast_path_matches_dense(self):
        space = FactorSpace.of_dims([2] * 5)
        rng = np.random.default_rng(2)
        vec = rng.normal(size=32) + 1j * rng.normal(size=32)
        vec /= np.linalg.norm(vec)
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C", 4: "C"})
        from_vec = dense.vector_cmi(space, vec, part)
        from_op = dense.conditional_mutual_information(DensityOperator.from_vector(space, vec), part)
        assert abs(from_vec - from_op) < 1e-10

    def test_vector_fast_path_large_ghz(self):
        # 18 qubits is far beyond the dense operator cap but fine as a vector
        n = 18
        space = FactorSpace.of_dims([2] * n)
        vec = ghz_vector(n)
        assert abs(dense.vector_region_entropy(space, vec, range(9)) - LN2) < 1e-12


class TestRandomDensity:
    def test_deterministic(self):
        space = FactorSpace.of_dims([2, 3])
        a = dense.random_density(space, 123)
        b = dense.random_density(space, 123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_valid_state(self):
        rho = dense.random_density(FactorSpace.of_dims([4, 2]), 0)
        lam = rho.eigenvalues()
        assert lam.min() > -1e-12
        assert abs(lam.sum() - 1.0) < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            dense.random_density(FactorSpace.of_dims([2] * 15), 0)


class TestCheckers:
    def setup_method(self):
        self.spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        self.fam = dense.dense_family(dense.build_family(self.spec))
        self.part = dense.ring_partition(self.spec)

    def test_ring_family_globally_distinguishable(self):
        report = dense.check_global_distinguishability(self.fam, self.part)
        assert report.passed
        assert report.worst == 0.0  # disjoint classical supports

    def test_duplicate_state_fails_global(self):
        dup = dense.SectorFamily(
            labels=("0", "1"),
            states={"0": self.fam.states["0"], "1": self.fam.states["0"]},
            base_label="0",
        )
        report = dense.check_global_distinguishability(dup, self.part)
        assert not report.passed
        # overlap is Tr(rho^2) of a uniform rank-128 state
        assert abs(report.violations[0][2] - 1 / 128) < 1e-12

    def test_ring_family_locally_indistinguishable(self):
        report = dense.check_local_indistinguishability(self.fam, self.part)
        assert report.passed
        assert report.worst == 0.0

    def test_product_family_fails_local(self):
        fam = product_pair_family()
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        report = dense.check_local_indistinguishability(fam, part)
        assert not report.passed
        assert report.worst == 1.0  # orthogonal reductions on AB

    def test_ghz_phase_family_passes_both(self):
        fam = ghz_phase_family()
        part = Partition({0: "A", 1: "B", 2: "C"})
        assert dense.check_global_distinguishability(fam, part).passed
        assert dense.check_local_indistinguishability(fam, part).passed


class TestFusionChecker:
    def setup_method(self):
        self.spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        self.fam = dense.dense_family(dense.build_family(self.spec))
        self.part = dense.ring_partition(self.spec)
        self.removed = dense.thinned_sites(self.spec, 1)
        self.thin = dense.ring_partition(self.spec, self.removed)
        cat = fusion.zn_category(2)
        self.fp = fusion.fusion_probabilities(cat)

    def test_ring_shift_on_removed_site_passes_exactly(self):
        shift = dense.fusion_unitary(self.spec, 1, self.removed[0], self.removed)
        report = dense.check_fusion_property(
            self.fam, self.part, self.thin, shift.as_local_unitary(), "1", self.fp
        )
        assert report.passed
        assert report.worst < 1e-12

    def test_identity_with_unit_label_trivial(self):
        lu = LocalUnitary((0,), np.eye(2))
        report = dense.check_fusion_property(self.fam, self.part, self.thin, lu, "0", self.fp)
        assert report.passed

    def test_sector_detectable_family_fails(self):
        # orthogonal product pair: flipping one retained A site is visible in A'BC
        fam = product_pair_family()
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        thin = Partition({0: "ENV", 1: "A", 2: "B", 3: "C"})
        flip = LocalUnitary((1,), np.array([[0, 1], [1, 0]], dtype=complex))
        cat = fusion.zn_category(2)
        fp = fusion.fusion_probabilities(cat)
        report = dense.check_fusion_property(fam, part, thin, flip, "1", fp)
        assert not report.passed
        assert report.worst > 0.999  # orthogonal supports: distance 1

    def test_support_violation(self):
        flip = LocalUnitary((3,), np.array([[0, 1], [1, 0]], dtype=complex))
        fam = product_pair_family()
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        thin = Partition({0: "ENV", 1: "A", 2: "B", 3: "C"})
        cat = fusion.zn_category(2)
        fp = fusion.fusion_probabilities(cat)
        with pytest.raises(SupportViolation):
            dense.check_fusion_property(fam, part, thin, flip, "1", fp)

    def test_thinning_must_only_move_a_to_env(self):
        fam = product_pair_family()
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        bad_thin = Partition({0: "A", 1: "A", 2: "ENV", 3: "C"})
        lu = LocalUnitary((0,), np.eye(2))
        with pytest.raises(MalformedInput, match="thinning"):
            dense.check_fusion_property(fam, part, bad_thin, lu, "0", self.fp)


class TestMixtureDecomposition:
    def test_ring_uniform(self):
        spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        fam = dense.dense_family(dense.build_family(spec))
        part = dense.ring_partition(spec)
        p = fusion.AnyonDistribution.uniform(fam.labels)
        report = dense.mixture_cmi_decomposition(fam, part, p)
        assert report.passed
        assert report.worst < 1e-10
        # the mixture over both sectors is the full product state: I = 0
        assert abs(report.details["cmi_mixture"]) < 1e-10
        assert abs(report.details["averaged_inequality_margin"]) < 1e-10

    def test_point_mass_reduces_to_single_sector(self):
        fam = ghz_phase_family()
        part = Partition({0: "A", 1: "B", 2: "C"})
        p = point_mass(fam.labels, "0")
        report = dense.mixture_cmi_decomposition(fam, part, p)
        assert report.passed
        assert abs(report.details["cmi_mixture"] - report.details["cmi_sectors"]["0"]) < 1e-10

    def test_ghz_phase_uniform(self):
        fam = ghz_phase_family()
        part = Partition({0: "A", 1: "B", 2: "C"})
        p = fusion.AnyonDistribution.uniform(fam.labels)
        report = dense.mixture_cmi_decomposition(fam, part, p)
        assert report.passed
        assert report.worst < 1e-10

    def test_premise_violated_for_bad_family(self):
        fam = product_pair_family()
        part = Partition({0: "A", 1: "A", 2: "B", 3: "C"})
        p = fusion.AnyonDistribution.uniform(fam.labels)
        with pytest.raises(PremiseViolated):
            dense.mixture_cmi_decomposition(fam, part, p)


class TestValidation:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(InvalidOperator, match="Hermitian"):
            DensityOperator(FactorSpace.of_dims([2]), m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidOperator, match="trace"):
            DensityOperator(FactorSpace.of_dims([2]), np.eye(2))

    def test_operator_cap(self):
        # the cap check precedes every shape check
        with pytest.raises(DimensionCap):
            DensityOperator(FactorSpace.of_dims([2] * 15), np.eye(2) / 2)

    def test_partition_tags(self):
        with pytest.raises(MalformedInput):
            Partition({0: "Q"})
