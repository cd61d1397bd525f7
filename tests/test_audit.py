import json
import math
from importlib import resources

import numpy as np
import pytest

from teelab import audit, fusion, ring
from teelab.audit import AuditTrace
from teelab.errors import EpsilonOutOfRange, MalformedInput, PremiseViolated
from teelab.fusion import AnyonDistribution, FusionProbabilities

from oracles import taylor_bound_sweep_loop

LN2 = math.log(2)


def constant_trace(categories, name, value, levels, a0=None):
    cat, dims, fp = categories[name]
    table = np.full((cat.n_labels, levels), float(value))
    return AuditTrace(
        labels=cat.labels,
        table=table,
        fp=fp,
        p_star=fusion.closed_form_fixed_point(dims),
        a0=a0 or cat.unit,
    )


def offset_trace(categories, name, offsets, a0=None):
    """I_i^(a) = log(1/p*_a) + offsets[i]: satisfies every premise when the
    offsets are nonnegative and nondecreasing."""
    cat, dims, fp = categories[name]
    p_star = fusion.closed_form_fixed_point(dims)
    base = np.log(1.0 / p_star.probs)
    table = base[:, None] + np.asarray(offsets, dtype=float)[None, :]
    return AuditTrace(labels=cat.labels, table=table, fp=fp, p_star=p_star, a0=a0 or cat.unit)


class TestMixtureEntropyBound:
    def test_toric_constant_uniform_equality(self, categories):
        trace = constant_trace(categories, "toric_code", 2 * LN2, 4)
        p = AnyonDistribution.uniform(trace.labels)
        # 2 ln 2 = ln 4 = H(uniform over 4): margin exactly 0
        assert abs(audit.check_mixture_entropy_bound(trace, 0, p)) < 1e-15

    def test_point_mass_margin_is_table_entry(self, categories):
        trace = constant_trace(categories, "ising", 0.7, 3)
        p = AnyonDistribution.point_mass(trace.labels, "sigma")
        assert abs(audit.check_mixture_entropy_bound(trace, 1, p) - 0.7) < 1e-15

    def test_ring_trace_uniform_equality(self):
        spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
        trace = ring.nested_annulus_table(spec, n=2)
        p = AnyonDistribution.uniform(trace.labels)
        for level in range(trace.n_levels):
            assert abs(audit.check_mixture_entropy_bound(trace, level, p)) < 1e-12


class TestFusionStep:
    def test_point_mass_reduces_to_two_level_comparison(self, categories):
        # p = delta_b with an Abelian category: margin = I_{i+1}(b) - I_i(s x b)
        trace = constant_trace(categories, "z4", 1.3, 3)
        p = AnyonDistribution.point_mass(trace.labels, "1")
        for s in trace.labels:
            assert abs(audit.check_fusion_step(trace, 0, p, s)) < 1e-12

    def test_unit_string_gives_average_increment(self, categories):
        trace = offset_trace(categories, "ising", [0.0, 0.1, 0.3])
        p_star = trace.p_star
        margin = audit.check_fusion_step(trace, 1, p_star, "1")
        # s = 1 leaves the distribution alone: margin = sum p*_a (I_2 - I_1)
        expected = float(p_star.probs @ (trace.level(2) - trace.level(1)))
        assert abs(margin - expected) < 1e-12

    def test_matches_monotonicity_path(self, categories):
        # unit string + point mass reduces numerically to the per-label
        # monotonicity margin: the two code paths agree to 1e-12
        trace = offset_trace(categories, "fibonacci", [0.0, 0.25, 0.5])
        for b in trace.labels:
            bi = trace.labels.index(b)
            p = AnyonDistribution.point_mass(trace.labels, b)
            via_step = audit.check_fusion_step(trace, 0, p, "1")
            via_table = float(trace.table[bi, 1] - trace.table[bi, 0])
            assert abs(via_step - via_table) < 1e-12

    def test_nonnegative_on_monotone_ising_table(self, categories):
        trace = offset_trace(categories, "ising", [0.0, 0.1, 0.2, 0.4])
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = AnyonDistribution(trace.labels, rng.dirichlet(np.ones(3)))
            for s in trace.labels:
                for i in range(trace.n_levels - 1):
                    assert audit.check_fusion_step(trace, i, p, s) >= -1e-9


class TestPerturbedStepBound:
    def test_eps_zero_margin_is_average_increment(self, categories):
        trace = offset_trace(categories, "ising", [0.0, 0.2, 0.2])
        margin = audit.check_perturbed_step_bound(trace, 0, "1", "sigma", 0.0)
        expected = float(trace.p_star.probs @ (trace.level(1) - trace.level(0)))
        assert abs(margin - expected) < 1e-12

    def test_toric_constant_eps_max_margin_two_eps_squared(self, categories):
        # uniform p* makes the bracket vanish: margin = 2 eps^2 exactly
        trace = constant_trace(categories, "toric_code", 2 * LN2, 5)
        eps = trace.p_min / 2
        for b, c in (("1", "e"), ("m", "eps")):
            margin = audit.check_perturbed_step_bound(trace, 1, b, c, eps)
            assert abs(margin - 2 * eps**2) < 1e-15

    def test_ising_raised_sigma_row(self, categories):
        # monotone table: the sigma row gains 0.1 nat going up one level;
        # the expected margin is frozen by direct arithmetic
        cat, dims, fp = categories["ising"]
        p_star = fusion.closed_form_fixed_point(dims)
        table = np.full((3, 3), 1.0)
        table[1, 1:] += 0.1
        trace = AuditTrace(labels=cat.labels, table=table, fp=fp, p_star=p_star, a0="1")
        eps = 0.05
        margin = audit.check_perturbed_step_bound(trace, 0, "1", "sigma", eps)
        lhs = p_star.of("sigma") * 0.1
        bracket = 0.0 + math.log(p_star.of("sigma") / p_star.of("1"))
        expected = lhs - (eps * trace.p_min * bracket - 2 * eps**2)
        assert abs(margin - expected) < 1e-12
        assert margin >= -1e-9

    def test_eps_out_of_range(self, categories):
        trace = constant_trace(categories, "toric_code", 1.0, 3)
        with pytest.raises(EpsilonOutOfRange):
            audit.check_perturbed_step_bound(trace, 0, "1", "e", trace.p_min)


def test_unknown_label_is_malformed_input():
    spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
    trace = ring.nested_annulus_table(spec, n=2)
    good = trace.labels[0]
    with pytest.raises(MalformedInput, match="unknown label 'bogus'"):
        audit.check_average_level_bound(trace, 0, "bogus")
    for b, c in (("bogus", good), (good, "bogus")):
        with pytest.raises(MalformedInput, match="unknown label 'bogus'"):
            audit.check_perturbed_step_bound(trace, 0, b, c, 0.0)


class TestAssembleBound:
    def test_toric_constant_n4_final_margin_K_over_2(self, categories):
        trace = constant_trace(categories, "toric_code", 2 * LN2, 6)  # n = 4
        report = audit.assemble_bound(trace)
        assert report.passed
        K = fusion.bound_constant(trace.p_star)
        # final: 2 ln 2 >= ln 4 - K/2, so the margin is exactly K/2
        assert abs(report.checks["final_bound"]["margin"] - K / 2) < 1e-12
        assert abs(report.K - (1 + 32 * math.log(16))) < 1e-12

    def test_toric_constant_intermediate_margins_closed_form(self, categories):
        trace = constant_trace(categories, "toric_code", 2 * LN2, 6)
        report = audit.assemble_bound(trace)
        n, eps = report.n, report.eps
        assert abs(eps - trace.p_min / (2 * math.sqrt(n))) < 1e-15
        assert abs(report.alpha - 1 / (n * trace.p_min * eps + 1)) < 1e-15
        # uniform p* and a constant table: every delta_i = 0
        assert abs(report.checks["average_step_bounds"]["margin"] - 2 * eps**2) < 1e-12
        assert abs(report.checks["chain_sum"]["margin"] - (2 * LN2 + 2 * n * eps**2)) < 1e-12
        # floors: I_{n+1} >= ln(1/p*_b) - 0, margin = 2 ln 2 - ln 4 = 0
        assert abs(report.checks["level_floor_bounds"]["margin"]) < 1e-12

    def test_ring_q3_n2(self):
        spec = ring.RingSpec(q=3, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
        trace = ring.nested_annulus_table(spec, n=2)
        report = audit.assemble_bound(trace)
        assert report.passed
        assert abs(report.checks["final_bound"]["margin"] - report.K / math.sqrt(2)) < 1e-12

    def test_decreasing_table_raises_at_monotonicity(self, categories):
        trace = constant_trace(categories, "toric_code", 2 * LN2, 5)
        bad = AuditTrace(
            labels=trace.labels,
            table=trace.table - 0.2 * np.arange(5)[None, :],
            fp=trace.fp,
            p_star=trace.p_star,
            a0=trace.a0,
        )
        with pytest.raises(PremiseViolated, match="monotonicity"):
            audit.assemble_bound(bad)

    def test_premise_failure_marks_dependents_unevaluated(self, categories):
        trace = constant_trace(categories, "toric_code", 2 * LN2, 5)
        bad = AuditTrace(
            labels=trace.labels,
            table=trace.table - 0.2 * np.arange(5)[None, :],
            fp=trace.fp,
            p_star=trace.p_star,
            a0=trace.a0,
        )
        try:
            audit.assemble_bound(bad)
            assert False, "should have raised"
        except PremiseViolated as exc:
            assert exc.report is not None
            assert "final_bound" in exc.report.not_evaluated
            assert not exc.report.checks["monotonicity"]["passed"]

    def test_bundled_adversarial_trace(self):
        path = resources.files("teelab.data.traces").joinpath("adversarial_decreasing.json")
        trace = audit.load_trace(json.loads(path.read_text()))
        with pytest.raises(PremiseViolated, match="monotonicity"):
            audit.assemble_bound(trace)

    def test_deterministic_reports(self, categories):
        trace = offset_trace(categories, "ising", [0.0, 0.1, 0.2, 0.3])
        a = audit.assemble_bound(trace).to_dict()
        b = audit.assemble_bound(trace).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_eps_alpha_overrides(self, categories):
        trace = constant_trace(categories, "toric_code", 2 * LN2, 5)
        report = audit.assemble_bound(trace, eps=trace.p_min / 4, alpha=0.5)
        assert report.eps == trace.p_min / 4
        assert report.alpha == 0.5

    @pytest.mark.parametrize("eps, alpha", [
        (-0.25, None),  # n pmin eps + 1 = 0: the default has no denominator
        (-0.125, None),  # default alpha = 2
        (0.05, -0.5),
        (0.05, 1.0 + 1e-12),
    ])
    def test_alpha_outside_unit_interval_refused(self, categories, eps, alpha):
        trace = constant_trace(categories, "z2", LN2, 10)  # n = 8, pmin = 1/2
        with pytest.raises(MalformedInput, match="alpha"):
            audit.assemble_bound(trace, eps=eps, alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_interval_is_closed(self, categories, alpha):
        trace = constant_trace(categories, "z2", LN2, 6)
        assert audit.assemble_bound(trace, eps=-0.1, alpha=alpha).alpha == alpha

    def test_premises_make_no_per_point_calls(self, categories, monkeypatch):
        # the averaged level and perturbed step premises are array programs:
        # the scalar checks define the points but are not called per point
        def per_point(*args, **kwargs):
            raise AssertionError("per-point premise check called")

        monkeypatch.setattr(audit, "check_average_level_bound", per_point)
        monkeypatch.setattr(audit, "check_perturbed_step_bound", per_point)
        spec = ring.RingSpec(q=13, sites_a=7, sites_b1=2, sites_c=2, sites_b2=2)
        assert audit.assemble_bound(ring.nested_annulus_table(spec, n=5)).passed
        trace = offset_trace(categories, "fibonacci", [0.0, 0.05, 0.1, 0.2])
        assert audit.assemble_bound(trace, b="tau").passed

    def test_nonuniform_fixed_point_trace(self, categories):
        trace = offset_trace(categories, "fibonacci", [0.0, 0.05, 0.1, 0.2])
        report = audit.assemble_bound(trace, b="tau")
        assert report.passed

    def test_needs_n_at_least_one(self, categories):
        cat, dims, fp = categories["z2"]
        with pytest.raises(MalformedInput):
            AuditTrace(
                labels=cat.labels,
                table=np.ones((2, 2)),
                fp=fp,
                p_star=fusion.closed_form_fixed_point(dims),
                a0="0",
            )


class TestTaylorSweep:
    def test_all_bundled_categories_pass(self, categories):
        for name, (_, dims, fp) in categories.items():
            p_star = fusion.closed_form_fixed_point(dims)
            report = audit.taylor_bound_sweep(p_star, fp, eps_points=41)
            assert report.passed, (name, report)
            assert report.worst_taylor >= -1e-9
            assert report.worst_concavity >= -1e-9
            assert report.worst_combined >= -1e-9

    def test_group_combined_margin_closed_form(self, categories):
        # for a group category every p_{.,s} is a permutation of p, so the
        # combined bound reads 0 >= eps*0 - 2 eps^2 / pmin at each grid point
        _, dims, fp = categories["toric_code"]
        p_star = fusion.closed_form_fixed_point(dims)
        report = audit.taylor_bound_sweep(p_star, fp, eps_points=3)
        # worst combined margin occurs at eps = 0 and equals 0
        assert abs(report.worst_combined) < 1e-12

    def test_random_trials_extend_grid(self, categories):
        _, dims, fp = categories["ising"]
        p_star = fusion.closed_form_fixed_point(dims)
        base = audit.taylor_bound_sweep(p_star, fp, eps_points=5)
        more = audit.taylor_bound_sweep(p_star, fp, trials=10, eps_points=5, seed=1)
        assert more.evaluations == base.evaluations + 10 * len(fp.labels) ** 2
        assert more.passed

    @pytest.mark.parametrize("name", fusion.bundled_category_names())
    def test_matches_loop_oracle_on_bundled_categories(self, categories, name):
        _, dims, fp = categories[name]
        p_star = fusion.closed_form_fixed_point(dims)
        for trials in (0, 400):
            for seed in (1, 2, 3):
                fast = audit.taylor_bound_sweep(p_star, fp, trials=trials, seed=seed)
                assert fast == taylor_bound_sweep_loop(p_star, fp, trials=trials, seed=seed)

    def test_sweep_makes_no_dense_einsum(self, categories, monkeypatch):
        # the fused distributions come from the fusion tensor's nonzeros, not
        # from a dense (G, L) . (L, L, L) einsum per label pair
        _, dims, fp = categories["ising"]
        p_star = fusion.closed_form_fixed_point(dims)
        expected = taylor_bound_sweep_loop(p_star, fp, trials=5, seed=1)

        def dense(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", dense)
        assert audit.taylor_bound_sweep(p_star, fp, trials=5, seed=1) == expected

    def test_one_log_per_class_column(self, categories, monkeypatch):
        # the L + L^2 columns (p and every p_{.,s}) fall into C classes of
        # equal bits; each label pair takes the log of each of the C - L fused
        # classes once, and the label columns' four values are logged once
        # per sweep.  ising (L = 3, C = 5) and fibonacci (L = 2, C = 4) have
        # fused classes, so the per-pair term is what this bound checks
        G = 41 + 400
        log = np.log
        for name, want_classes in (("ising", 5), ("fibonacci", 4)):
            _, dims, fp = categories[name]
            p_star = fusion.closed_form_fixed_point(dims)
            L = len(fp.labels)
            _, C, _ = audit._fusion_classes(fp)
            assert C == want_classes > L, name
            logged = []

            def counting(x, *args, **kwargs):
                logged.append(np.size(x))
                return log(x, *args, **kwargs)

            monkeypatch.setattr(np, "log", counting)
            audit.taylor_bound_sweep(p_star, fp, trials=400, seed=1)
            monkeypatch.setattr(np, "log", log)
            assert sum(logged) <= L * L * G * (C - L) + 3 * L * G + L, (name, sum(logged))

    def test_label_columns_logged_once_per_sweep(self, categories, monkeypatch):
        # a column of p holds p*_a, p*_b + eps, p*_c - eps or (p*_b + eps) - eps;
        # their x log x is taken once per sweep, and z7 has no fused class
        _, dims, fp = categories["z7"]
        p_star = fusion.closed_form_fixed_point(dims)
        L, G = 7, 41 + 400
        logged = []
        log = np.log

        def counting(x, *args, **kwargs):
            logged.append(np.size(x))
            return log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counting)
        audit.taylor_bound_sweep(p_star, fp, trials=400, seed=1)
        assert sum(logged) <= 3 * L * G + L, sum(logged)

    def test_diagonal_pair_where_eps_does_not_round_trip(self, categories):
        # on z6's 2-point grid (1/6 + eps) - eps is not 1/6, so the b = c pairs
        # read the (p*_b + eps) - eps column, not p*_b; the worst concavity
        # margin, 0.0, sits on such a pair (with p*_b there it reads 2.2e-16)
        _, dims, fp = categories["z6"]
        p_star = fusion.closed_form_fixed_point(dims)
        eps = np.linspace(-p_star.probs.min() / 2, p_star.probs.min() / 2, 2)
        assert ((p_star.probs[0] + eps) - eps != p_star.probs[0]).any()
        fast = audit.taylor_bound_sweep(p_star, fp, eps_points=2)
        assert fast == taylor_bound_sweep_loop(p_star, fp, eps_points=2)
        assert fast.worst_concavity == 0.0 and fast.worst_case[0] == fast.worst_case[1]

    @pytest.mark.parametrize("name", ["fibonacci", "ising"])
    def test_fused_classes_match_loop_oracle(self, categories, name):
        # tau x tau and sigma x sigma split, so these sweeps fuse classes past
        # the L columns of p; an off-center p* makes every column distinct
        cat, _, fp = categories[name]
        L = cat.n_labels
        assert audit._fusion_classes(fp)[1] > L
        weights = np.arange(1.0, L + 1.0)
        p_star = AnyonDistribution(cat.labels, weights / weights.sum())
        fast = audit.taylor_bound_sweep(p_star, fp, trials=7, eps_points=9, seed=4)
        assert fast == taylor_bound_sweep_loop(p_star, fp, trials=7, eps_points=9, seed=4)

    def test_negative_seed_is_malformed(self, categories):
        # refused before numpy's generator sees it, with or without trials
        _, dims, fp = categories["z2"]
        p_star = fusion.closed_form_fixed_point(dims)
        for trials in (0, 5):
            with pytest.raises(MalformedInput, match="seed"):
                audit.taylor_bound_sweep(p_star, fp, trials=trials, seed=-1)

    def test_random_tensor_fails_concavity(self):
        # a row-stochastic tensor that is no fusion algebra breaks concavity:
        # the sweep is not true by construction
        rng = np.random.default_rng(0)
        p = rng.random((4, 4, 4))
        p /= p.sum(axis=2, keepdims=True)
        q = rng.random(4)
        labels = ("a", "b", "c", "d")
        fp = FusionProbabilities(labels, p)
        p_star = AnyonDistribution(labels, q / q.sum())
        fast = audit.taylor_bound_sweep(p_star, fp)
        assert fast == taylor_bound_sweep_loop(p_star, fp)
        assert not fast.passed
        assert fast.worst_concavity == pytest.approx(-0.1257, abs=1e-4)

    def test_worst_case_is_first_of_exact_ties(self):
        # every fusion lands on label 0, so concavity and the combined bound
        # hold with room; the Taylor margin is exactly 0 at eps = 0 for every
        # (b, c) and positive elsewhere: the first pair in loop order wins
        labels = ("x", "y", "z")
        p = np.zeros((3, 3, 3))
        p[:, :, 0] = 1.0
        fp = FusionProbabilities(labels, p)
        p_star = AnyonDistribution(labels, np.array([0.5, 0.3, 0.2]))
        fast = audit.taylor_bound_sweep(p_star, fp, eps_points=3)
        assert fast == taylor_bound_sweep_loop(p_star, fp, eps_points=3)
        assert fast.worst_taylor == 0.0
        assert fast.worst_case == ("x", "x", 0.0)


class TestTracePersistence:
    def test_round_trip(self, tmp_path, categories):
        trace = offset_trace(categories, "ising", [0.0, 0.1, 0.2])
        path = tmp_path / "trace.json"
        audit.save_trace(trace, path)
        loaded = audit.load_trace(path)
        assert loaded.labels == trace.labels
        np.testing.assert_allclose(loaded.table, trace.table, atol=0)
        np.testing.assert_allclose(loaded.fp.p, trace.fp.p, atol=0)
        assert loaded.a0 == trace.a0

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["0"], "a0": "0"}))
        with pytest.raises(MalformedInput, match="misses fields"):
            audit.load_trace(path)

    def test_unnormalized_probabilities_rejected(self, categories):
        cat, dims, fp = categories["z2"]
        doc = {
            "labels": list(cat.labels),
            "a0": "0",
            "I": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            "fusion_probabilities": (fp.p * 2).tolist(),
            "p_star": [0.5, 0.5],
        }
        with pytest.raises(MalformedInput, match="not normalized"):
            audit.load_trace(doc)


class TestNumericalFloor:
    def test_tiny_negative_margin_passes_with_annotation(self, categories):
        # a 1e-10 dip is within the numerical floor: pass, but annotated
        cat, dims, fp = categories["z2"]
        p_star = fusion.closed_form_fixed_point(dims)
        table = np.full((2, 4), LN2)
        table[:, 2] -= 1e-10
        trace = AuditTrace(labels=cat.labels, table=table, fp=fp, p_star=p_star, a0="0")
        report = audit.assemble_bound(trace)
        assert report.passed
        assert report.checks["monotonicity"]["note"] == "numerical-floor"
