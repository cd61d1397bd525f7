import csv
import functools
import importlib.util
import json
import math
import re
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from teelab import audit, cli, fusion, ring, stabilizer
from teelab.errors import ConfigError

from oracles import components_union_find, forest_joins_union_find, sector_family


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestFusionCommand:
    def test_fibonacci_report(self, tmp_path):
        code, report = run_json(["fusion", "--category", "fibonacci"], tmp_path)
        assert code == 0
        assert report["all_passed"]
        data = report["data"]
        assert abs(data["quantum_dimensions"]["tau"] - (1 + math.sqrt(5)) / 2) < 1e-9
        assert abs(data["p_star"]["tau"] - 0.7236068) < 1e-6
        assert data["K"] > 1.0
        assert abs(data["lower_bound_limit"]["bits"] * math.log(2) -
                   data["lower_bound_limit"]["nats"]) < 1e-12

    def test_category_file(self, tmp_path):
        doc = {"labels": ["0", "1"], "N": {"0": {"0": {"0": 1}, "1": {"1": 1}},
                                           "1": {"0": {"1": 1}, "1": {"0": 1}}}}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(["fusion", "--category-file", str(path)], tmp_path)
        assert code == 0 and report["all_passed"]

    def test_needs_exactly_one_source(self, capsys):
        assert cli.main(["fusion"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_base_label_is_config_error(self, capsys):
        assert cli.main(["fusion", "--category", "z2", "--a0", "bogus"]) == 2
        assert "unknown label 'bogus'" in capsys.readouterr().err

    def test_oversize_category_file_exits_2_before_the_table(self, tmp_path, capsys):
        # a valid Z_150 group table passes every check up to associativity,
        # whose two (n^2, n^2) products would take about 4 GB each: it is
        # refused from its label count, before even the n^3 table (27 MB) is
        # built
        n = 150
        labels = [str(k) for k in range(n)]
        doc = {"labels": labels, "N": {a: {b: {str((int(a) + int(b)) % n): 1} for b in labels} for a in labels}}
        path = tmp_path / "z150.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="150 labels"):
                cli.run({"scenario": "fusion", "category_file": str(path)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24, peak
        assert cli.main(["fusion", "--category-file", str(path)]) == 2
        assert "byte cap" in capsys.readouterr().err

    @pytest.mark.parametrize("mult", [2**70, 2**40, True], ids=["2^70", "2^40", "true"])
    def test_unexact_or_boolean_multiplicity_exits_2(self, mult, tmp_path, capsys):
        # 2^70 overflows int64 and 2^40 fits it but not the float64 products'
        # exactness bound; a JSON true is not an integer multiplicity
        doc = {"labels": ["1", "x"], "N": {"1": {"1": {"1": 1}, "x": {"x": 1}},
                                           "x": {"1": {"x": 1}, "x": {"1": 1, "x": mult}}}}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["fusion", "--category-file", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"labels": ["1"], "N": {"1": [1]}}',
        '{"labels": ["1"], "N": {"1": {"1": [1]}}}',
        '"labels N"',
        '{"labels": 5, "N": {}}',
    ], ids=["list-row", "list-cell", "string-document", "number-labels"])
    def test_non_map_category_document_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(text)
        assert cli.main(["fusion", "--category-file", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_stage_timings_outside_canonical_report(self, tmp_path):
        code, report = run_json(["fusion", "--category", "ising", "--trials", "3"], tmp_path)
        assert code == 0
        assert set(report["timings"]["stages"]) == {"spectra", "sweep"}
        assert "timings" not in json.loads(cli.report_bytes(report))


class TestRingCommand:
    def test_q3_with_enumeration(self, tmp_path):
        code, report = run_json(["ring", "--q", "3", "--arcs", "2,1,1,1", "--enumerate"], tmp_path)
        assert code == 0
        assert abs(report["data"]["cmi"]["nats"] - math.log(3)) < 1e-12
        # the closed-form CMI is log q by construction, so enumeration is the one check
        assert [(c["name"], c["passed"]) for c in report["results"]] == [("enumeration_agrees", True)]

    def test_enumeration_detects_a_nonuniform_marginal(self, monkeypatch):
        # a "region" of every site sees only its sector's q^(n-1) configurations
        spec = ring.RingSpec(q=3, sites_a=2, sites_b1=1, sites_c=1, sites_b2=1)
        assert cli._ring_enumeration_agrees(spec)
        region_sites = ring.RingSpec.region_sites
        every = tuple(range(spec.n_sites))
        monkeypatch.setattr(ring.RingSpec, "region_sites",
                            lambda self, tag: every if tag == "C" else region_sites(self, tag))
        assert not cli._ring_enumeration_agrees(spec)

    def test_levels_run_the_audit(self, tmp_path):
        code, report = run_json(["ring", "--q", "2", "--arcs", "5,1,1,1", "--levels", "3"], tmp_path)
        assert code == 0
        assert report["data"]["audit"]["passed"]

    def test_oversize_q_with_levels_exits_2_before_the_table(self, capsys):
        # zn_category(63), the first q over the label charge, is charged as a
        # 63-label category file is: refused before its table and
        # (63^2, 63^2) products are allocated
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="63 labels"):
                cli.run({"scenario": "ring", "q": 63, "levels": 1, "arcs": [3, 1, 1, 1]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24, peak
        assert cli.main(["ring", "--q", "63", "--levels", "1", "--arcs", "3,1,1,1"]) == 2
        assert "byte cap" in capsys.readouterr().err

    def test_largest_admitted_q_checks_its_table_within_the_cap(self):
        # Z_62, the largest table the label charge admits, is built and
        # checked under the cap that charged it
        assert fusion.CATEGORY_LABEL_BYTES * 62**4 <= fusion.CATEGORY_BYTES_CAP
        fusion.zn_category.cache_clear()
        tracemalloc.start()
        try:
            report = cli.run({"scenario": "ring", "q": 62, "levels": 1, "arcs": [3, 1, 1, 1]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fusion.zn_category.cache_clear()
        assert report["data"]["audit"]["passed"]
        assert fusion.CATEGORY_LABEL_BYTES * 62**4 * 0.9 < peak <= fusion.CATEGORY_BYTES_CAP, peak

    def test_levels_stage_timings_outside_canonical_report(self, tmp_path):
        code, report = run_json(["ring", "--q", "3", "--arcs", "5,1,1,1", "--levels", "3"], tmp_path)
        assert code == 0
        assert set(report["timings"]["stages"]) == {"table", "audit"}
        assert "timings" not in json.loads(cli.report_bytes(report))
        code, plain = run_json(["ring", "--q", "3"], tmp_path)
        assert code == 0 and "stages" not in plain["timings"]


class TestStabilizerCommand:
    def test_small_toric_code(self, tmp_path):
        code, report = run_json(
            ["stabilizer", "--p", "2", "--size", "10", "--widths", "2"], tmp_path
        )
        assert code == 0
        assert abs(report["data"]["gamma"]["nats"] - math.log(2)) < 1e-12
        assert report["data"]["certificates"]["all"]["coefficient"] == 2
        assert list(report["data"]["certificates"]) == ["all"] and "sectors" not in report["data"]

    def test_oversize_lattice_is_config_error(self, capsys, tmp_path):
        # the cap is on the O(E) sparse storage: 5000 x 5000 is refused before
        # anything is allocated, 64 x 64 runs
        assert cli.main(["stabilizer", "--p", "2", "--size", "5000"]) == 2
        assert "cap" in capsys.readouterr().err
        code, report = run_json(["stabilizer", "--p", "2", "--size", "64", "--widths", "2"], tmp_path)
        assert code == 0
        assert report["data"]["certificates"]["all"]["coefficient"] == 2

    def test_assumptions_limited_only_by_storage_cap(self, capsys, monkeypatch, tmp_path):
        # restricted bases are computed on the regions' own columns, so a
        # 64 x 64 assumption run passes; an oversize lattice still fails
        # before anything is built
        code, report = run_json(
            ["stabilizer", "--p", "2", "--size", "64", "--widths", "2", "--assumptions"], tmp_path
        )
        assert code == 0
        checks = {c["name"]: c["passed"] for c in report["results"] if c["name"].startswith("assumption_")}
        assert checks == {
            "assumption_global_distinguishability": True,
            "assumption_local_indistinguishability": True,
            "assumption_fusion": True,
        }

        def no_build(lat):
            raise AssertionError("build_ground_state ran")

        monkeypatch.setattr(stabilizer, "build_ground_state", no_build)
        assert cli.main(["stabilizer", "--p", "2", "--size", "5000", "--assumptions"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_stage_timings_outside_canonical_report(self, tmp_path):
        code, report = run_json(
            ["stabilizer", "--p", "2", "--size", "10", "--widths", "2", "--a-width", "3", "--levels", "1"],
            tmp_path,
        )
        assert code == 0
        timings = report["timings"]
        assert set(timings["stages"]) == {"build", "entropies", "table", "audit"}
        n_edges = stabilizer.Lattice(width=10, height=10, prime=2).n_edges
        assert timings["gens_bytes"] == 16 * n_edges  # the column graph: two int32 per column
        assert "timings" not in json.loads(cli.report_bytes(report))

    def test_wide_a_assumptions_pass(self, tmp_path):
        # fusion strings start at A's west boundary, hx0 - a_width, so with
        # a_width > widths both endpoints still leave the thinned A'
        code, report = run_json(
            ["stabilizer", "--p", "2", "--size", "14", "--widths", "2", "--a-width", "3", "--assumptions"],
            tmp_path,
        )
        assert code == 0
        assert all(c["passed"] for c in report["results"])

    def test_no_run_builds_sector_states(self, monkeypatch, tmp_path):
        # ranks never read a frame, and the assumption checks read the two
        # sector strings by linearity: plain CMI, --levels, --assumptions and
        # selftest runs build no sector state
        def no_sector(*args, **kwargs):
            raise AssertionError("a sector state was built")

        for name in ("create_sector", "conjugate_by_string"):
            monkeypatch.setattr(stabilizer, name, no_sector)
        for extra in ([], ["--a-width", "3", "--levels", "1"], ["--assumptions"]):
            code, _ = run_json(["stabilizer", "--p", "3", "--size", "10", "--widths", "2", *extra], tmp_path)
            assert code == 0, extra
        code, report = run_json(["selftest"], tmp_path)
        assert code == 0 and report["data"]["checks_run"] == 15

    def test_assumptions_report_matches_the_sector_family_path(self, monkeypatch):
        # --assumptions builds no sector state and no fusion string, and its
        # report is byte for byte the one verify_assumptions gives on the
        # built sector family
        config = {"scenario": "stabilizer", "p": 3, "size": 12, "widths": 2, "assumptions": True}

        def family_path(ground, part):
            return stabilizer.verify_assumptions(sector_family(ground, part), part)

        with monkeypatch.context() as patch:
            patch.setattr(stabilizer, "verify_sector_assumptions", family_path)
            family_report = cli.report_bytes(cli.run(dict(config)))

        def refused(*args, **kwargs):
            raise AssertionError("a sector state or fusion string was built")

        for name in ("create_sector", "conjugate_by_string", "fusion_string"):
            monkeypatch.setattr(stabilizer, name, refused)
        report = cli.run(dict(config))
        names = {c["name"] for c in report["results"]}
        assert {"assumption_global_distinguishability", "assumption_fusion"} <= names
        assert all(c["passed"] for c in report["results"])
        assert cli.report_bytes(report) == family_report

    @pytest.mark.parametrize("config", [
        {"p": 3, "width": 310, "height": 10, "widths": 2, "a_width": 302, "levels": 300},
        {"p": 3, "size": 16, "widths": 2, "assumptions": True},
    ], ids=["levels-strip", "assumptions"])
    def test_reports_match_the_union_find_kernel(self, config, monkeypatch):
        # the Borůvka join masks and component labels give the report that
        # Kruskal's union-find gives, byte for byte
        config = {"scenario": "stabilizer", **config}
        fast = cli.report_bytes(cli.run(config))
        calls = []

        def counted(oracle):
            def run(*args):
                calls.append(oracle.__name__)
                return oracle(*args)
            return run

        monkeypatch.setattr(stabilizer, "_forest_joins", counted(forest_joins_union_find))
        monkeypatch.setattr(stabilizer, "_components", counted(components_union_find))
        assert cli.report_bytes(cli.run(config)) == fast
        assert calls  # the oracle kernel ran

    def test_assumptions_run_labels_each_input_once(self, monkeypatch):
        # one --assumptions run: the column graph is built and checked once
        # for the one generator matrix, each partition finds its letters' edges
        # once, in one box, and the only labelling over every row is the
        # build's full-rank check: a labelling of more than half the rows
        config = {"scenario": "stabilizer", "p": 3, "size": 30, "widths": 2, "assumptions": True}
        want = cli.report_bytes(cli.run(dict(config)))
        calls = {"graph": 0, "boxes": 0, "wide": 0}
        partitions = []

        def counted(name, fn):
            def run(*args):
                calls[name] += 1
                return fn(*args)
            return run

        def letters(part):
            partitions.append(part)
            return letter_masks(part)

        def components(u, v, n):
            calls["wide"] += n > n_edges // 2
            return label(u, v, n)

        n_edges = stabilizer.Lattice(width=30, height=30, prime=3).n_edges
        letter_masks, label = stabilizer.AnnulusPartition.letter_masks.func, stabilizer._components
        prop = functools.cached_property(letters)
        prop.__set_name__(stabilizer.AnnulusPartition, "letter_masks")
        monkeypatch.setattr(stabilizer.AnnulusPartition, "letter_masks", prop)
        check = stabilizer._check_graph_commutation
        monkeypatch.setattr(stabilizer, "_check_graph_commutation", counted("graph", check))
        monkeypatch.setattr(stabilizer.Lattice, "edges_in_box", counted("boxes", stabilizer.Lattice.edges_in_box))
        monkeypatch.setattr(stabilizer, "_components", components)
        assert cli.report_bytes(cli.run(dict(config))) == want
        assert len(partitions) == len({id(part) for part in partitions}) == 2  # the annulus and A'BC's
        assert calls == {"graph": 1, "boxes": 2, "wide": 1}

    def test_config_without_sector_runs_all_sectors(self, tmp_path):
        # an old config field that nothing reads any more: the one certificate
        # that every sector shares is reported
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3, "size": 10, "widths": 2, "all_sectors": False}))
        code, report = run_json(["stabilizer", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert list(report["data"]["certificates"]) == ["all"] and "sectors" not in report["data"]


def no_build(lat):
    raise AssertionError("build_ground_state ran")


@pytest.mark.parametrize(
    "command, cfg, flags",
    [
        ("stabilizer", {"p": 2, "hole": "x"}, []),
        ("stabilizer", {"p": 2, "levels": "x"}, []),
        ("stabilizer", {"p": 2, "a_width": "x"}, []),
        ("stabilizer", {"p": 2, "width": "x"}, []),
        ("stabilizer", {"p": 2}, ["--a-width", "0"]),
        ("stabilizer", {"p": 2}, ["--levels", "0"]),
        ("fusion", {"category": "z2", "n": "x"}, []),
        ("fusion", {"category": "z2", "trials": "x"}, []),
        ("fusion", {"category": "z2", "seed": "x"}, []),
        ("ring", {"q": 2, "levels": "x"}, []),
        # a non-integral float or a bool is no integer, even where int() would take it
        ("stabilizer", {"p": 3.9, "size": 10}, []),
        ("stabilizer", {"p": 3, "size": 10.5}, []),
        ("stabilizer", {"p": 3, "size": 10, "widths": True}, []),
        ("fusion", {"category": "z2", "trials": 0.5}, []),
        # only bundled names: no path outside the data directory, no unhashable value
        ("fusion", {"category": "../categories/z2"}, []),
        ("fusion", {"category": ["z2"]}, []),
    ],
)
def test_malformed_config_value_is_config_error(command, cfg, flags, tmp_path, capsys, monkeypatch):
    # exit 2 with a message, not 1 with a traceback, and before any build; a
    # zero A width or level count reaches the library's checks
    monkeypatch.setattr(stabilizer, "build_ground_state", no_build)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path), *flags]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--widths", "1"], ["--widths", "2", "--a-width", "1"]])
def test_assumptions_without_a_thinning_step_refused_before_build(flags, capsys, monkeypatch):
    # property 3 reduces to A'BC, one thinning step into A, so an A one
    # plaquette wide is refused as --levels refuses too few thinnings: exit 2
    # before the ground state is built
    monkeypatch.setattr(stabilizer, "build_ground_state", no_build)
    assert cli.main(["stabilizer", "--p", "3", "--size", "12", *flags, "--assumptions"]) == 2
    assert "thinning steps exceed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p", "1000000007"], "overflow"),
        (["--p", "4294967311"], "overflow"),
        (["--p", "59", "--assumptions"], "label tables"),
        (["--p", "11", "--size", "14", "--a-width", "5", "--levels", "3"], "p <= 9"),
        (["--p", "211", "--assumptions"], "label tables"),
    ],
)
def test_large_prime_is_config_error_before_build(flags, message, capsys, monkeypatch):
    # int64 residue sums, the assumption checks' (p^2, p^2) label tables and
    # the two-digit sector labels of a nested table each bound p
    monkeypatch.setattr(stabilizer, "build_ground_state", no_build)
    assert cli.main(["stabilizer", "--size", "12", "--widths", "2", *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p", [3, "3", 3.0])
def test_integral_config_numbers_parse(p, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "size": 10}))
    code, report = run_json(["stabilizer", "--config", str(cfg)], tmp_path)
    assert code == 0 and report["data"]["p"] == 3


def test_large_prime_reports_one_certificate(tmp_path):
    # every sector shares the one certificate, so the report does not grow
    # with p^2 and a plain run over all sectors of a large prime is small
    code, report = run_json(["stabilizer", "--p", "1009", "--size", "12", "--widths", "2"], tmp_path)
    assert code == 0
    assert report["data"]["certificates"]["all"]["coefficient"] == 2
    assert len(cli.report_bytes(report)) < 10_000


def test_sector_flag_is_gone(capsys):
    # every sector shares the one certificate, so no flag picks one
    with pytest.raises(SystemExit) as exc:
        cli.main(["stabilizer", "--p", "2", "--sector", "1,1"])
    assert exc.value.code == 2
    assert "--sector" in capsys.readouterr().err


class TestAuditCommand:
    def test_ring_trace_roundtrip(self, tmp_path):
        spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
        trace = ring.nested_annulus_table(spec, n=2)
        path = tmp_path / "trace.json"
        audit.save_trace(trace, path)
        code, report = run_json(["audit", "--trace", str(path)], tmp_path)
        assert code == 0
        assert report["data"]["report"]["passed"]

    def test_adversarial_trace_fails_with_exit_1(self, tmp_path, capsys):
        src = resources.files("teelab.data.traces").joinpath("adversarial_decreasing.json")
        path = tmp_path / "bad.json"
        path.write_text(src.read_text())
        out = tmp_path / "report.json"
        code = cli.main(["audit", "--trace", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "monotonicity" in err
        report = json.loads(out.read_text())
        assert "premise_violated" in report["data"]

    def test_missing_trace_is_config_error(self, capsys):
        assert cli.main(["audit", "--trace", "does-not-exist.json"]) == 2

    def test_negative_fusion_probability_is_config_error(self, tmp_path, capsys):
        # the rows still sum to 1: a negative entry is malformed input (exit 2),
        # not a premise verdict on the chain
        src = resources.files("teelab.data.traces").joinpath("adversarial_decreasing.json")
        doc = json.loads(src.read_text())
        doc["fusion_probabilities"][0][0] = [1.5, -0.5, 0.0, 0.0]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["audit", "--trace", str(path)]) == 2
        assert "negative fusion probability" in capsys.readouterr().err

    def test_stage_timings_outside_canonical_report(self, tmp_path):
        spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
        path = tmp_path / "trace.json"
        audit.save_trace(ring.nested_annulus_table(spec, n=2), path)
        code, report = run_json(["audit", "--trace", str(path)], tmp_path)
        assert code == 0
        assert set(report["timings"]["stages"]) == {"table", "audit"}
        assert "timings" not in json.loads(cli.report_bytes(report))

    @pytest.mark.parametrize("cfg", [
        {"eps": -0.03999999999999999},  # n pmin eps + 1 == 0: no default alpha
        {"eps": -0.04},  # default alpha about -1e16
        {"eps": -0.01},  # default alpha 4/3
        {"alpha": -1.0},
        {"alpha": 1.5},
    ])
    def test_alpha_outside_unit_interval_is_config_error(self, cfg, tmp_path, capsys):
        # the alpha combination is convex: a weight outside [0, 1] is a
        # malformed input (exit 2), not a crash and not a failed chain (exit 1)
        spec = ring.RingSpec(q=2, sites_a=52, sites_b1=2, sites_c=2, sites_b2=2)
        trace = tmp_path / "trace.json"
        audit.save_trace(ring.nested_annulus_table(spec, n=50), trace)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trace": str(trace), **cfg}))
        assert cli.main(["audit", "--config", str(path)]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("field, index, value", [
        ("p_star", (0,), math.nan),
        ("I", (1, 2), math.nan),
        ("I", (0, 3), math.inf),
        ("fusion_probabilities", (1, 0, 1), math.nan),
    ])
    def test_non_finite_trace_is_config_error(self, tmp_path, capsys, field, index, value):
        spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
        path = tmp_path / "trace.json"
        audit.save_trace(ring.nested_annulus_table(spec, n=2), path)
        doc = json.loads(path.read_text())
        row = doc[field]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
        path.write_text(json.dumps(doc))
        assert cli.main(["audit", "--trace", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    b'{"labels": ["1"], "N": {"1": {"1": {"1": 1' + b"0" * 5000 + b"}}}}",
    b'{"labels": ["\xff"]}',
], ids=["5001-digit integer", "invalid UTF-8"])
@pytest.mark.parametrize("flag", ["category-file", "trace", "config"])
def test_unreadable_json_file_is_config_error(text, flag, tmp_path, capsys):
    # json.loads raises a plain ValueError past the integer digit limit, and
    # read_text a UnicodeDecodeError, neither of them a JSONDecodeError
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    command = {"category-file": "fusion", "trace": "audit", "config": "selftest"}[flag]
    assert cli.main([command, f"--{flag}", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"eps": "x"},
    {"eps": math.nan},
    {"eps": -math.inf},
    {"eps": [0.1]},
    {"eps": True},
    {"alpha": "x"},
    {"alpha": math.nan},
])
def test_malformed_audit_number_is_config_error(cfg, tmp_path, capsys):
    # exit 2 with a message, not a traceback (exit 1), and a NaN eps must not
    # get past the |eps| <= pmin/2 test
    spec = ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1)
    trace = tmp_path / "trace.json"
    audit.save_trace(ring.nested_annulus_table(spec, n=2), trace)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trace": str(trace), **cfg}))
    assert cli.main(["audit", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_configs_identical_canonical_reports(self, tmp_path):
        _, a = run_json(["ring", "--q", "2", "--arcs", "2,2,2,2"], tmp_path, "a.json")
        _, b = run_json(["ring", "--q", "2", "--arcs", "2,2,2,2"], tmp_path, "b.json")
        assert cli.report_bytes(a) == cli.report_bytes(b)
        assert a["input_hash"] == b["input_hash"]

    def test_bits_are_nats_over_ln2_at_serialization(self, tmp_path):
        _, report = run_json(["ring", "--q", "5", "--arcs", "1,1,1,1"], tmp_path)
        cmi = report["data"]["cmi"]
        assert abs(cmi["bits"] - cmi["nats"] / math.log(2)) < 1e-15



# Every subcommand under each flag that changes what it checks; "{trace}" is
# a passing ring trace and "{bad}" the bundled adversarial one.
EVERY_SCENARIO = [
    ["fusion", "--category", "z2", "--taylor-points", "3"],
    ["fusion", "--category", "ising", "--trials", "2", "--seed", "5", "--n", "10", "--a0", "sigma"],
    ["ring", "--q", "3", "--arcs", "2,1,1,1"],
    ["ring", "--q", "3", "--arcs", "2,1,1,1", "--enumerate"],
    ["ring", "--q", "2", "--arcs", "5,1,1,1", "--levels", "3"],
    ["ring", "--q", "2", "--arcs", "5,1,1,1", "--levels", "3", "--enumerate"],
    ["stabilizer", "--p", "2", "--size", "10"],
    ["stabilizer", "--p", "3", "--width", "14", "--height", "12", "--widths", "2", "--hole", "2", "--assumptions"],
    ["stabilizer", "--p", "2", "--size", "10", "--a-width", "3", "--levels", "1"],
    ["audit", "--trace", "{trace}"],
    ["audit", "--trace", "{bad}", "--eps", "0.01", "--alpha", "0.5"],
    ["sweep", "--grid-scenario", "ring", "--q", "2,3"],
    ["sweep", "--grid-scenario", "ring", "--q", "2", "--levels", "1,2", "--config", "{arcs}"],
    ["sweep", "--grid-scenario", "stabilizer", "--p", "2,3", "--size", "10"],
    ["selftest"],
]


@pytest.mark.parametrize("argv", EVERY_SCENARIO, ids=" ".join)
def test_no_report_passes_with_no_checks(tmp_path, argv):
    # all([]) is True, so a report with no results would pass having checked nothing
    paths = {"trace": tmp_path / "trace.json", "bad": tmp_path / "bad.json", "arcs": _arcs_config(tmp_path)}
    audit.save_trace(ring.nested_annulus_table(ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1), n=2),
                     paths["trace"])
    paths["bad"].write_text(resources.files("teelab.data.traces").joinpath("adversarial_decreasing.json").read_text())
    code, report = run_json([arg.format(**paths) for arg in argv], tmp_path)
    assert code in (0, 1)
    for one in report.get("reports", [report]):
        assert one["results"], one["scenario"]


def test_plain_ring_run_over_the_enumeration_cap_is_config_error(capsys):
    # 7^8 configurations: with no --levels there would be nothing left to check
    assert cli.main(["ring", "--q", "7", "--arcs", "2,2,2,2"]) == 2
    assert "checks nothing" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="refused"):
        cli.run({"scenario": "ring", "q": 7})

def readme_cli_examples() -> list[list[str]]:
    """The `teelab ...` lines of README's `## CLI` block as argument lists,
    with bracketed optional parts and trailing comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    return [re.sub(r"\[[^]]*\]", "", line).split()[1:] for line in lines if line.startswith("teelab ")]


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    assert len(examples) >= 8
    parser = cli._build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: teelab {' '.join(argv)}")


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # five sites: q = 7 enumerates 7^5 configurations, under the cap
        cfg.write_text(json.dumps({"q": 2, "arcs": [2, 1, 1, 1]}))
        code, report = run_json(["ring", "--config", str(cfg), "--q", "7"], tmp_path)
        assert code == 0
        assert report["scenario"]["q"] == 7
        assert abs(report["data"]["cmi"]["nats"] - math.log(7)) < 1e-12

    def test_bad_config_file(self, capsys):
        assert cli.main(["ring", "--config", "nope.json"]) == 2


class TestSweep:
    def test_ring_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--grid-scenario", "ring", "--q", "2,3,4,5",
            "--out", str(out), "--csv", str(csv_path),
        ])
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row, q in zip(rows, (2, 3, 4, 5)):
            assert abs(float(row["I_nats"]) - math.log(q)) < 1e-12
            assert abs(float(row["margin_nats"])) < 1e-12

    def test_stabilizer_sweep(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = cli.main([
            "sweep", "--grid-scenario", "stabilizer", "--p", "2,3",
            "--widths", "2", "--size", "10", "--out", str(out),
        ])
        assert code == 0
        bundle = json.loads(out.read_text())
        assert len(bundle["reports"]) == 2
        assert bundle["all_passed"]

    def test_grid_point_failure_recorded_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        # size 10 cannot host a width-9 annulus: that point fails, the sweep runs
        code = cli.main([
            "sweep", "--grid-scenario", "stabilizer", "--p", "2",
            "--widths", "2,9", "--size", "10", "--out", str(out),
        ])
        assert code == 1
        bundle = json.loads(out.read_text())
        assert len(bundle["reports"]) == 2
        assert [r["all_passed"] for r in bundle["reports"]] == [True, False]

    @pytest.mark.parametrize("flags", [[], ["--csv", "sweep.csv"]])
    def test_empty_axis_is_config_error(self, flags, tmp_path, capsys, monkeypatch):
        # an empty axis has no grid point: refused, not an all-passed sweep
        # of zero reports or a crash writing the CSV header
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "sweep_config.json"
        config.write_text(json.dumps({"grid_scenario": "stabilizer", "p": [2], "size": []}))
        assert cli.main(["sweep", "--config", str(config), *flags]) == 2
        assert "sweep axis 'size' is empty" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestOutputTarget:
    @pytest.mark.parametrize("argv", [
        ["ring", "--q", "3", "--out", "{missing}/report.json"],
        ["sweep", "--grid-scenario", "ring", "--q", "2,3", "--csv", "{missing}/sweep.csv"],
        ["sweep", "--grid-scenario", "ring", "--q", "2,3", "--out", "{missing}/sweep.json", "--csv", "sweep.csv"],
        ["selftest", "--out", "{tmp}"],
    ])
    def test_unwritable_target_refused_before_any_run(self, argv, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("a scenario ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run", no_run)
        argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failed_write_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the target's directory goes away while the scenario runs
        target = tmp_path / "gone"
        target.mkdir()
        run = cli.run

        def run_then_remove(config):
            report = run(config)
            target.rmdir()
            return report

        monkeypatch.setattr(cli, "run", run_then_remove)
        assert cli.main(["ring", "--q", "3", "--out", str(target / "report.json")]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, tmp_path):
        code, report = run_json(["selftest"], tmp_path)
        assert code == 0
        assert report["all_passed"]


class TestLevelSweep:
    def test_audit_bound_column_increases_with_n(self, tmp_path):
        csv_path = tmp_path / "levels.csv"
        code = cli.main([
            "sweep", "--grid-scenario", "ring", "--q", "2", "--levels", "1,4,9,16",
            "--config", str(_arcs_config(tmp_path)),
            "--out", str(tmp_path / "sweep.json"), "--csv", str(csv_path),
        ])
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        bounds = [float(r["audit_bound_nats"]) for r in rows]
        assert bounds == sorted(bounds)
        assert all(b < a for a, b in zip(bounds, bounds[1:])) is False  # strictly increasing
        assert all(y > x for x, y in zip(bounds, bounds[1:]))


def _arcs_config(tmp_path):
    cfg = tmp_path / "arcs.json"
    cfg.write_text(json.dumps({"arcs": [18, 1, 1, 1]}))
    return cfg


class TestSweepOrder:
    def test_reports_follow_grid_order(self, tmp_path):
        out = tmp_path / "sweep.json"
        cfg = tmp_path / "arcs.json"
        cfg.write_text(json.dumps({"arcs": [2, 1, 1, 1]}))  # q = 7 enumerates 7^5 configurations
        code = cli.main(["sweep", "--grid-scenario", "ring", "--q", "2,3,5,7",
                         "--config", str(cfg), "--out", str(out)])
        assert code == 0
        bundle = json.loads(out.read_text())
        # one report per grid point, in grid order
        assert [r["scenario"]["q"] for r in bundle["reports"]] == [2, 3, 5, 7]


class TestFusionTaylorSweep:
    def test_sweep_included_and_seed_matters_for_trials(self, tmp_path):
        code, report = run_json(
            ["fusion", "--category", "ising", "--trials", "7", "--seed", "11"], tmp_path
        )
        assert code == 0
        sweep = next(c for c in report["results"] if c["name"] == "taylor_sweep")
        assert sweep["passed"]
        assert sweep["evaluations"] == 9 * 41 + 9 * 7

    @pytest.mark.parametrize("flags", [["--taylor-points", "0"], ["--taylor-points", "-3"], ["--trials", "-1"]])
    def test_empty_or_negative_grid_is_config_error(self, capsys, flags):
        # an empty grid would pass the sweep vacuously with 0 evaluations
        assert cli.main(["fusion", "--category", "z2", *flags]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--trials", "5"], []])
    def test_negative_seed_is_config_error(self, capsys, flags):
        # numpy's generator would raise a bare ValueError on a negative seed
        assert cli.main(["fusion", "--category", "z7", "--seed", "-1", *flags]) == 2
        assert "seed" in capsys.readouterr().err

    def test_oversize_grid_is_config_error(self, capsys):
        # refused before the sweep allocates its arrays
        assert cli.main(["fusion", "--category", "z7", "--trials", "10000000"]) == 2
        assert "cap" in capsys.readouterr().err


def load_workloads(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return workloads, root


@pytest.mark.parametrize("workload", ["fusion_audit", "sector_algebra"])
def test_benchmark_reports_do_not_depend_on_the_category_caches(
    workload, monkeypatch, clear_category_caches
):
    # cold caches, warm caches, and cold again after cache_clear() give the same bytes
    workloads, root = load_workloads(monkeypatch)
    plan = workloads.scenarios(workload, 0, root)
    assert all(sc.entry == "run" for sc in plan)

    def reports():
        return [cli.report_bytes(cli.run(sc.config)) for sc in plan]

    clear_category_caches()
    first = reports()
    again = reports()
    clear_category_caches()
    assert first == again == reports()
