import dataclasses
import gc
import json
import math
import weakref
from functools import partial

import numpy as np
import pytest

from teelab import audit, fusion
from teelab.errors import (
    ConditionOneViolated,
    DegenerateDistribution,
    DimensionCap,
    InvalidCategory,
    MalformedInput,
)
from teelab.fusion import AnyonDistribution

from oracles import (
    DefectFusionSystem,
    associativity_residual_einsum,
    brute_force_associative,
    defect_fixed_point,
    label_index,
    point_mass,
    prob,
    star,
)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestLoadCategory:
    def test_toric_code_group_table(self, categories):
        cat, _, _ = categories["toric_code"]
        assert cat.labels == ("1", "e", "m", "eps")
        assert cat.unit == "1"
        assert cat.dual == {lab: lab for lab in cat.labels}

    def test_fibonacci_validates_and_oracle_agrees(self, categories):
        cat, _, _ = categories["fibonacci"]
        assert brute_force_associative(cat.N)
        assert cat.N[1, 1, 0] == 1 and cat.N[1, 1, 1] == 1

    def test_doubled_tau_channel_is_a_valid_ring(self):
        # tau x tau = 1 + 2 tau passes the same enumeration, so it must load
        doc = {
            "labels": ["1", "tau"],
            "N": {
                "1": {"1": {"1": 1}, "tau": {"tau": 1}},
                "tau": {"1": {"tau": 1}, "tau": {"1": 1, "tau": 2}},
            },
        }
        assert brute_force_associative(fusion.load_category(doc).N)

    def test_missing_channel_breaks_associativity(self):
        # Ising with the sigma x sigma -> psi channel removed
        doc = {
            "labels": ["1", "sigma", "psi"],
            "N": {
                "1": {"1": {"1": 1}, "sigma": {"sigma": 1}, "psi": {"psi": 1}},
                "sigma": {"1": {"sigma": 1}, "sigma": {"1": 1}, "psi": {"sigma": 1}},
                "psi": {"1": {"psi": 1}, "sigma": {"sigma": 1}, "psi": {"1": 1}},
            },
        }
        N = np.zeros((3, 3, 3), dtype=int)
        order = {"1": 0, "sigma": 1, "psi": 2}
        for a, row in doc["N"].items():
            for b, col in row.items():
                for c, m in col.items():
                    N[order[a], order[b], order[c]] = m
        assert not brute_force_associative(N)
        with pytest.raises(InvalidCategory) as exc:
            fusion.load_category(doc)
        # the first failing (a, b, c, d) in row-major order, with both sums as integers
        assert str(exc.value) == (
            "associativity fails at (sigma,sigma,psi,1): sum_e N[sigma,sigma,e] N[e,psi,1] = 0 "
            "but sum_f N[sigma,psi,f] N[sigma,f,1] = 1"
        )

    def test_missing_fields(self):
        with pytest.raises(MalformedInput):
            fusion.load_category({"labels": ["1"]})
        with pytest.raises(MalformedInput):
            fusion.load_category({"N": {}})

    def test_unknown_label_in_table(self):
        with pytest.raises(MalformedInput, match="unknown label"):
            fusion.load_category({"labels": ["1"], "N": {"x": {"1": {"1": 1}}}})

    def test_unknown_label_lookups(self, categories):
        cat, dims, fp = categories["ising"]
        lookups = (partial(label_index, cat), dims.of, partial(label_index, fp),
                   fusion.closed_form_fixed_point(dims).of)
        for lookup in lookups:
            with pytest.raises(MalformedInput, match="unknown label 'bogus'"):
                lookup("bogus")

    def test_no_unit(self):
        doc = {"labels": ["a", "b"], "N": {"a": {"a": {"b": 1}}, "b": {"b": {"a": 1}}}}
        with pytest.raises(InvalidCategory, match="unit"):
            fusion.load_category(doc)

    def test_declared_dual_contradicting_table(self):
        doc = {
            "labels": ["0", "1", "2"],
            "dual": {"0": "0", "1": "1", "2": "2"},
            "N": fusion.zn_category(3).N,
        }
        doc["N"] = {
            a: {b: {str((int(a) + int(b)) % 3): 1} for b in doc["labels"]} for a in doc["labels"]
        }
        with pytest.raises(InvalidCategory, match="dual"):
            fusion.load_category(doc)

    def test_dual_inferred_for_z3(self):
        cat = fusion.zn_category(3)
        assert cat.dual == {"0": "0", "1": "2", "2": "1"}

    def test_label_cap_admits_double_z7(self):
        # 49 labels: the validation arrays, charged 18 n^4 bytes, are 104 MB of
        # the cap, which admits up to 62; a file with the same table loads as
        # the built category does
        cat = fusion.double_zn_category(7)
        table = {
            a: {b: {cat.labels[int(cat.N[i, j].argmax())]: 1} for j, b in enumerate(cat.labels)}
            for i, a in enumerate(cat.labels)
        }
        loaded = fusion.load_category({"labels": list(cat.labels), "N": table})
        assert np.array_equal(loaded.N, cat.N) and loaded.unit == cat.unit
        assert fusion.CATEGORY_LABEL_BYTES * 62**4 <= fusion.CATEGORY_BYTES_CAP < fusion.CATEGORY_LABEL_BYTES * 63**4

    def test_label_cap_refuses_before_the_table(self):
        # 63 labels are over the cap; nothing of N is read, so an empty table
        # fails on the label count, not on a missing unit
        with pytest.raises(DimensionCap, match="63 labels"):
            fusion.load_category({"labels": [str(k) for k in range(63)], "N": {}})

    def test_multiplicity_bound_is_the_float64_exactness_bound(self):
        # two labels: 2 m^2 < 2^53 admits m = 2^26 - 1 and refuses m = 2^26
        # while the table is parsed, whatever else the table holds
        assert fusion.load_category(rank_two_document(2**26 - 1)).N[1, 1, 1] == 2**26 - 1
        for mult in (2**26, 2**40, 2**70):
            with pytest.raises(MalformedInput, match=r"past the exact float64 bound n m\^2 < 2\^53"):
                fusion.load_category(rank_two_document(mult))

    def test_group_categories_are_charged_before_the_table(self):
        # zn_category shares load_category's label charge, so Z_63 is refused
        # before its table (or the (63^2, 63^2) products) is allocated
        with pytest.raises(DimensionCap, match="63 labels"):
            fusion.zn_category(63)

    def test_json_text_and_file(self, tmp_path):
        doc = {"labels": ["0", "1"], "N": {"0": {"0": {"0": 1}, "1": {"1": 1}},
                                           "1": {"0": {"1": 1}, "1": {"0": 1}}}}
        from_text = fusion.load_category(json.dumps(doc))
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(doc))
        from_file = fusion.load_category(path)
        assert from_text.labels == from_file.labels == ("0", "1")


def rank_two_document(k) -> dict:
    """The ring x * x = 1 + k x on labels 1 and x, associative for every k."""
    return {
        "labels": ["1", "x"],
        "N": {"1": {"1": {"1": 1}, "x": {"x": 1}}, "x": {"1": {"x": 1}, "x": {"1": 1, "x": k}}},
    }


class TestAssociativityResidual:
    @pytest.mark.parametrize(
        "source",
        [pytest.param(lambda name=name: fusion.bundled_category(name), id=name)
         for name in fusion.bundled_category_names()]
        + [pytest.param(lambda: fusion.zn_category(13), id="z13")]
        + [pytest.param(lambda p=p: fusion.double_zn_category(p), id=f"double_z{p}") for p in (3, 5)],
    )
    def test_products_equal_the_einsum_oracle_bit_for_bit(self, source):
        # the printed `fusion_associative` value is unchanged by the products
        fp = fusion.fusion_probabilities(source())
        assert fp.associativity_residual.hex() == associativity_residual_einsum(fp.p).hex()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_products_agree_with_the_oracle_on_rank_two_rings(self, k):
        fp = fusion.fusion_probabilities(fusion.load_category(rank_two_document(k)))
        assert abs(fp.associativity_residual - associativity_residual_einsum(fp.p)) <= 1e-15


CACHED_SOURCES = [
    pytest.param(lambda: fusion.bundled_category("ising"), id="bundled_ising"),
    pytest.param(lambda: fusion.zn_category(3), id="z3"),
    pytest.param(lambda: fusion.double_zn_category(2), id="double_z2"),
]


class TestBuiltOnce:
    @pytest.mark.parametrize("source", CACHED_SOURCES)
    def test_category_and_spectra_are_the_same_objects(self, source):
        cat = source()
        dims = fusion.quantum_dimensions(cat)
        fp = fusion.fusion_probabilities(cat)
        assert source() is cat
        assert fusion.quantum_dimensions(cat) is dims
        assert fusion.fusion_probabilities(cat) is fp
        assert fusion.fixed_point_iterative(fp) is fusion.fixed_point_iterative(fp)

    @pytest.mark.parametrize("source", CACHED_SOURCES)
    def test_cached_category_is_read_only(self, source):
        cat = source()
        dims = fusion.quantum_dimensions(cat)
        fp = fusion.fusion_probabilities(cat)
        p_star = fusion.closed_form_fixed_point(dims)
        for array in (cat.N, dims.d, fp.p, p_star.probs,
                      fusion.fixed_point_iterative(fp).distribution.probs):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 2
        with pytest.raises(TypeError):
            cat.dual[cat.unit] = cat.labels[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat.dual = {}
        assert cat.dual[cat.unit] == cat.unit

    def test_spectra_live_and_die_with_their_category(self, tmp_path):
        # a category from a user's file is held by no module-level table
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"labels": ["0", "1"], "N": {
            "0": {"0": {"0": 1}, "1": {"1": 1}}, "1": {"0": {"1": 1}, "1": {"0": 1}}}}))
        cat = fusion.load_category(path)
        fp = fusion.fusion_probabilities(cat)
        fusion.fixed_point_iterative(fp)
        refs = [weakref.ref(cat), weakref.ref(fp)]
        del cat, fp
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_cached_spectra_equal_a_fresh_computation_bit_for_bit(self, clear_category_caches):
        sources = [lambda name=name: fusion.bundled_category(name)
                   for name in fusion.bundled_category_names()]
        sources += [lambda: fusion.zn_category(13), lambda: fusion.double_zn_category(3)]
        for source in sources:
            cat = source()
            dims = fusion.quantum_dimensions(cat)
            fp = fusion.fusion_probabilities(cat)
            fixed = fusion.fixed_point_iterative(fp)
            clear_category_caches()
            fresh = source()
            assert fresh is not cat and fresh.N.tobytes() == cat.N.tobytes()
            fresh_dims = fusion.quantum_dimensions(fresh)
            fresh_fp = fusion.fusion_probabilities(fresh)
            fresh_fixed = fusion.fixed_point_iterative(fresh_fp)
            assert fresh_fixed is not fixed
            assert (fresh_dims.d.tobytes(), fresh_dims.total) == (dims.d.tobytes(), dims.total)
            assert (fresh_fp.p.tobytes(), fresh_fp.row_sum_residual, fresh_fp.associativity_residual) == (
                fp.p.tobytes(), fp.row_sum_residual, fp.associativity_residual)
            assert fresh_fixed.distribution.probs.tobytes() == fixed.distribution.probs.tobytes()
            assert (fresh_fixed.p_min, fresh_fixed.iterations, fresh_fixed.residual) == (
                fixed.p_min, fixed.iterations, fixed.residual)

    @pytest.mark.parametrize(
        "name", ["../categories/z2", "../traces/adversarial_decreasing", "z2.json", "", ["z2"], None, 2]
    )
    def test_only_bundled_names_are_loaded(self, name):
        # no path outside the data directory is read, and an unhashable
        # value is a malformed input, not a TypeError from the cache
        with pytest.raises(MalformedInput, match="available: fibonacci, ising, toric_code, z2"):
            fusion.bundled_category(name)


class TestQuantumDimensions:
    def test_abelian_groups_all_one(self, categories):
        for name in ("z2", "z5", "toric_code"):
            _, dims, _ = categories[name]
            np.testing.assert_allclose(dims.d, 1.0, atol=1e-12)
        assert abs(categories["toric_code"][1].total - 2.0) < 1e-12

    def test_fibonacci_golden_ratio(self, categories):
        # oracle: largest root of x^2 = x + 1, solved independently
        root = max(np.roots([1.0, -1.0, -1.0]))
        _, dims, _ = categories["fibonacci"]
        assert abs(dims.of("tau") - root) < 1e-10
        assert abs(dims.total**2 - (5 + math.sqrt(5)) / 2) < 1e-10

    def test_ising_sqrt_two(self, categories):
        # oracle: characteristic polynomial of N_sigma is l(l^2 - 2)
        _, dims, _ = categories["ising"]
        assert abs(dims.of("sigma") - math.sqrt(2.0)) < 1e-10
        assert abs(dims.total - 2.0) < 1e-10

    @pytest.mark.parametrize(
        "source",
        [pytest.param(lambda name=name: fusion.bundled_category(name), id=name)
         for name in ("z2", "z3", "z4", "z5", "z6", "z7", "toric_code")]
        + [pytest.param(lambda: fusion.zn_category(13), id="z13"),
           pytest.param(lambda: fusion.double_zn_category(3), id="double_z3")],
    )
    def test_pointed_categories_are_exact(self, source):
        # every label's fusion matrix is a permutation, row sum 1: d = 1.0,
        # fusion is deterministic, and the Taylor sweep's columns are p itself
        cat = source()
        dims = fusion.quantum_dimensions(cat)
        fp = fusion.fusion_probabilities(cat)
        L = cat.n_labels
        assert dims.d.tolist() == [1.0] * L
        assert set(np.unique(fp.p).tolist()) == {0.0, 1.0}
        cls, C, terms = audit._fusion_classes(fp)
        assert (C, terms) == (L, [])
        assert np.array_equal(cls[:L], np.arange(L))

    def test_units_exact_and_other_labels_by_power_iteration(self, categories):
        for name, iterated in (("fibonacci", ("tau",)), ("ising", ("sigma",))):
            cat, dims, _ = categories[name]
            for label in cat.labels:
                a = label_index(cat, label)
                if label in iterated:
                    assert dims.of(label) == fusion._perron_radius(cat.N[a])[0], (name, label)
                else:
                    assert dims.of(label) == 1.0, (name, label)

    def test_closed_form_is_exact_for_groups(self, categories):
        # D^2 is summed, not squared back from D: sqrt(2)**2 is 2.0000000000000004
        for name, value in (("z2", 0.5), ("z4", 0.25), ("z5", 0.2)):
            _, dims, _ = categories[name]
            assert fusion.closed_form_fixed_point(dims).probs.tolist() == [value] * len(dims.labels)

    def test_dimension_identity_all_bundled(self, categories):
        for name, (cat, dims, _) in categories.items():
            lhs = np.einsum("abc,c->ab", cat.N, dims.d)
            assert np.abs(lhs - np.outer(dims.d, dims.d)).max() < 1e-10, name

    def test_frobenius_symmetry_all_bundled(self, categories):
        # N[s,a,b] == N[b, dual(a), s]
        for name, (cat, _, _) in categories.items():
            dual = [cat.dual_index(i) for i in range(cat.n_labels)]
            for s in range(cat.n_labels):
                for a in range(cat.n_labels):
                    for b in range(cat.n_labels):
                        assert cat.N[s, a, b] == cat.N[b, dual[a], s], name


class TestFusionProbabilities:
    def test_abelian_deterministic(self, categories):
        # every probability is 0 or 1 (up to the spectral tolerance of d_a)
        for name in ("z2", "z7", "toric_code"):
            cat, _, fp = categories[name]
            np.testing.assert_allclose(fp.p, cat.N.astype(float), atol=1e-12)

    def test_ising_even_split(self, categories):
        _, _, fp = categories["ising"]
        assert abs(prob(fp, "sigma", "sigma", "1") - 0.5) < 1e-12
        assert abs(prob(fp, "sigma", "sigma", "psi") - 0.5) < 1e-12

    def test_fibonacci_inverse_golden(self, categories):
        _, _, fp = categories["fibonacci"]
        assert abs(prob(fp, "tau", "tau", "tau") - 1 / GOLDEN) < 1e-10
        assert abs(prob(fp, "tau", "tau", "1") - 1 / GOLDEN**2) < 1e-10

    def test_rows_and_associativity_all_bundled(self, categories):
        for name, (_, _, fp) in categories.items():
            assert fp.row_sum_residual < 1e-12, name
            assert fp.associativity_residual < 1e-12, name

    def test_negative_probability_is_malformed(self):
        # rows that sum to 1 with a negative entry are no distribution
        p = np.array([np.eye(2), np.eye(2)[::-1]])
        p[0, 0] = [1.5, -0.5]
        with pytest.raises(MalformedInput, match="negative fusion probability"):
            fusion.FusionProbabilities(("0", "1"), p)
        p[0, 0] = [1.0 + fusion.STRUCT_TOL, -fusion.STRUCT_TOL]  # within tolerance
        fusion.FusionProbabilities(("0", "1"), p)


class TestStar:
    def test_unit_is_neutral(self, categories):
        rng = np.random.default_rng(7)
        for name, (cat, _, fp) in categories.items():
            q = rng.dirichlet(np.ones(cat.n_labels))
            q = AnyonDistribution(cat.labels, q)
            out = star(point_mass(cat.labels, cat.unit), q, fp)
            np.testing.assert_allclose(out.probs, q.probs, atol=1e-12)

    def test_toric_group_multiplication(self, categories):
        cat, _, fp = categories["toric_code"]
        de = point_mass(cat.labels, "e")
        dm = point_mass(cat.labels, "m")
        out = star(de, dm, fp)
        np.testing.assert_allclose(out.probs, point_mass(cat.labels, "eps").probs)

    def test_fibonacci_tau_tau(self, categories):
        cat, _, fp = categories["fibonacci"]
        dt = point_mass(cat.labels, "tau")
        out = star(dt, dt, fp)
        np.testing.assert_allclose(out.probs, [1 / GOLDEN**2, 1 / GOLDEN], atol=1e-10)

    def test_associativity_100_random_triples(self, categories):
        for name, (cat, _, fp) in categories.items():
            rng = np.random.default_rng(42)
            for _ in range(100):
                p, q, r = (
                    AnyonDistribution(cat.labels, rng.dirichlet(np.ones(cat.n_labels)))
                    for _ in range(3)
                )
                left = star(star(p, q, fp), r, fp)
                right = star(p, star(q, r, fp), fp)
                assert np.abs(left.probs - right.probs).max() < 1e-12, name


class TestFixedPoint:
    def test_groups_give_uniform(self, categories):
        for name in ("z2", "z3", "z4", "z5", "z6", "z7", "toric_code"):
            cat, _, fp = categories[name]
            fx = fusion.fixed_point_iterative(fp)
            np.testing.assert_allclose(fx.distribution.probs, 1.0 / cat.n_labels, atol=1e-12)
            assert fx.residual < 1e-12

    def test_fibonacci_against_exact_eigenproblem(self, categories):
        # oracle: stationary x of the 2x2 chain solved by hand gives
        # x = 1/(d^2 + 1) on the unit label
        _, dims, fp = categories["fibonacci"]
        d = dims.of("tau")
        expected = np.array([1 / (d**2 + 1), d**2 / (d**2 + 1)])
        fx = fusion.fixed_point_iterative(fp)
        np.testing.assert_allclose(fx.distribution.probs, expected, atol=1e-10)
        np.testing.assert_allclose(fx.distribution.probs, [0.27639320, 0.72360680], atol=1e-8)

    def test_ising_quarters(self, categories):
        _, dims, fp = categories["ising"]
        fx = fusion.fixed_point_iterative(fp)
        np.testing.assert_allclose(fx.distribution.probs, [0.25, 0.5, 0.25], atol=1e-10)
        closed = fusion.closed_form_fixed_point(dims)
        np.testing.assert_allclose(closed.probs, [0.25, 0.5, 0.25], atol=1e-10)

    def test_iterative_matches_closed_form_all_bundled(self, categories):
        for name, (_, dims, fp) in categories.items():
            fx = fusion.fixed_point_iterative(fp)
            closed = fusion.closed_form_fixed_point(dims)
            assert np.abs(fx.distribution.probs - closed.probs).max() < 1e-10, name
            assert fx.residual < 1e-12, name

    @pytest.mark.parametrize("name", ["ising", "fibonacci", "z5"])
    def test_uniqueness_from_20_random_starts(self, categories, name):
        cat, _, fp = categories[name]
        uniform = AnyonDistribution.uniform(cat.labels)
        target = fusion.fixed_point_iterative(fp).distribution.probs
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = AnyonDistribution(cat.labels, rng.dirichlet(np.ones(cat.n_labels)))
            for _ in range(2000):
                q = star(uniform, q, fp)
            assert np.abs(q.probs - target).max() < 1e-10

    def test_condition_one_violation(self):
        # two disconnected group blocks: no string connects the blocks
        labels = ("a0", "a1", "b0", "b1")
        p = np.zeros((4, 4, 4))
        for s in range(2):
            for a in range(2):
                p[s, a, (s + a) % 2] = 1.0
                p[s + 2, a + 2, (s + a) % 2 + 2] = 1.0
                p[s, a + 2, a + 2] = 1.0  # cross terms act trivially
                p[s + 2, a, a] = 1.0
        fp = fusion.FusionProbabilities(labels=labels, p=p)
        with pytest.raises(ConditionOneViolated):
            fusion.fixed_point_iterative(fp)


class TestFixedPointIdentity:
    def test_toric_uniform_exact_zero(self, categories):
        cat, _, fp = categories["toric_code"]
        report = fusion.verify_fixed_point_identity(fp, AnyonDistribution.uniform(cat.labels))
        assert report.residual == 0.0

    def test_ising_closed_form(self, categories):
        _, dims, fp = categories["ising"]
        report = fusion.verify_fixed_point_identity(fp, fusion.closed_form_fixed_point(dims))
        assert report.residual < 1e-12

    def test_ising_uniform_defect(self, categories):
        # oracle (direct sum): sum_s p[s,sigma,sigma]/3 = 2/3, so the defect
        # is 1/3 at (sigma, sigma), the worst pair
        cat, _, fp = categories["ising"]
        report = fusion.verify_fixed_point_identity(fp, AnyonDistribution.uniform(cat.labels))
        assert abs(report.residual - 1.0 / 3.0) < 1e-12
        assert report.worst_pair == ("sigma", "sigma")


class TestBoundConstant:
    def test_toric_value(self):
        dist = AnyonDistribution.uniform(("1", "e", "m", "eps"))
        assert abs(fusion.bound_constant(dist) - (1 + 32 * math.log(16))) < 1e-12

    def test_single_label(self):
        dist = AnyonDistribution(("1",), np.array([1.0]))
        assert fusion.bound_constant(dist) == 1.0

    def test_ising_value(self, categories):
        _, dims, _ = categories["ising"]
        K = fusion.bound_constant(fusion.closed_form_fixed_point(dims))
        assert abs(K - (1 + 32 * math.log(12))) < 1e-12

    def test_degenerate(self):
        dist = AnyonDistribution(("a", "b"), np.array([1.0, 0.0]))
        with pytest.raises(DegenerateDistribution):
            fusion.bound_constant(dist)


class TestLowerBound:
    def test_toric_limit_and_finite_n(self):
        dist = AnyonDistribution.uniform(("1", "e", "m", "eps"))
        K = fusion.bound_constant(dist)
        assert abs(fusion.tee_lower_bound("1", dist, 10**4, K) - (math.log(4) - K / 100)) < 1e-12
        assert abs(fusion.tee_lower_bound("1", dist, 10**10, K) - math.log(4)) < 1e-3

    def test_strictly_increasing_in_n(self):
        dist = AnyonDistribution.uniform(("1", "e", "m", "eps"))
        K = fusion.bound_constant(dist)
        values = [fusion.tee_lower_bound("1", dist, n, K) for n in (1, 2, 5, 10, 100, 10**6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gap_is_exactly_K_over_sqrt_n(self):
        dist = AnyonDistribution.uniform(("0", "1"))
        K = fusion.bound_constant(dist)
        for n in (1, 7, 144):
            gap = math.log(2) - fusion.tee_lower_bound("0", dist, n, K)
            assert abs(gap - K / math.sqrt(n)) < 1e-12


class TestDefectFusion:
    def test_toggling_strings_give_half_half(self):
        # strings {1,e,m,eps} on two defect sectors; e and m toggle them
        strings = ("1", "e", "m", "eps")
        sectors = ("sig+", "sig-")
        p = np.zeros((4, 2, 2))
        toggle = np.array([[0.0, 1.0], [1.0, 0.0]])
        stay = np.eye(2)
        p[0] = stay
        p[1] = toggle
        p[2] = toggle
        p[3] = stay
        sys = DefectFusionSystem(string_labels=strings, sector_labels=sectors, p=p)
        out = defect_fixed_point(sys)
        np.testing.assert_allclose(out.p_star, [0.5, 0.5], atol=1e-12)
        assert out.residual < 1e-12

    def test_group_case_reduces_to_uniform(self, categories):
        cat, _, fp = categories["z4"]
        sys = DefectFusionSystem(
            string_labels=cat.labels, sector_labels=cat.labels, p=fp.p
        )
        out = defect_fixed_point(sys)
        np.testing.assert_allclose(out.p_star, 0.25, atol=1e-12)
        assert out.residual < 1e-12

    def test_ising_closed_form_round_trip(self, categories):
        _, dims, fp = categories["ising"]
        closed = fusion.closed_form_fixed_point(dims)
        sys = DefectFusionSystem(
            string_labels=fp.labels, sector_labels=fp.labels, p=fp.p, q_star=closed.probs
        )
        out = defect_fixed_point(sys)
        np.testing.assert_allclose(out.p_star, closed.probs, atol=1e-10)
        assert out.residual < 1e-10
