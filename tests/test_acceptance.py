"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from teelab import audit, cli, fusion, ring, stabilizer as st
from teelab.errors import PremiseViolated

import dense_oracles as dense
from conftest import ghz_phase_family

LN2 = math.log(2)


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def toric_lab():
    """Shared p=2 12x12 widths-2 setup (criteria 1, 3, 4)."""
    lat = st.Lattice(width=12, height=12, prime=2)
    ground = st.build_ground_state(lat)
    part = st.centered_annulus(lat, width=2)
    return lat, ground, part, st.sector_family(ground, part)


def test_criterion_01_toric_code_saturation():
    start = time.perf_counter()  # timed end to end, state construction included
    lat = st.Lattice(width=12, height=12, prime=2)
    part = st.centered_annulus(lat, width=2)
    sectors = st.sector_family(st.build_ground_state(lat), part)
    coefficients = set()
    for sec, state in sectors.items():
        value, cert = st.annulus_cmi_certificate(state, part)
        coefficients.add(cert.coefficient)
        assert value == 2 * LN2, sec  # zero tolerance: integer rank arithmetic
    gamma = 2 * LN2 / 2
    elapsed = time.perf_counter() - start
    verdict(
        1,
        coefficients == {2} and gamma == LN2 and elapsed < 10.0,
        f"p=2 12x12 widths 2: I = 2 ln 2 exactly on all 4 sectors, gamma = ln 2 = log D "
        f"({elapsed:.2f}s < 10s)",
    )


def test_criterion_02_qudit_generalization():
    start = time.perf_counter()
    for p in (3, 5):
        lat = st.Lattice(width=12, height=12, prime=p)
        ground = st.build_ground_state(lat)
        part = st.centered_annulus(lat, width=2)
        for c in range(p):
            for f in range(p):
                state = st.create_sector(ground, (c, f), origin=part.origin)
                assert st.annulus_cmi(state, part) == 2 * math.log(p), (p, c, f)
    elapsed = time.perf_counter() - start
    verdict(
        2,
        elapsed < 60.0,
        f"p=3 and p=5, 12x12 widths 2: I = 2 ln p exactly across all p^2 sectors ({elapsed:.2f}s < 60s)",
    )


def test_criterion_03_anyon_in_the_hole(toric_lab):
    _, _, part, sectors = toric_lab
    vacuum = st.annulus_cmi(sectors[(0, 0)], part)
    equal = all(st.annulus_cmi(state, part) == vacuum for state in sectors.values())
    verdict(3, equal, "every nontrivial Abelian sector gives exactly the vacuum I (d_a = 1)")


def test_criterion_04_assumptions_and_negative_geometries(toric_lab):
    lat, ground, part, sectors = toric_lab
    positive = st.verify_assumptions(sectors, part)

    # negative geometry 1: annulus displaced so the string anchor sits in A
    displaced = st.AnnulusPartition(lattice=lat, origin=(6, 6), hole=(5, 5, 8, 8), width=3)
    anchored = {sec: st.create_sector(ground, sec, origin=(3, 6)) for sec in sectors}
    neg1 = st.verify_assumptions(anchored, displaced)
    neg1_ok = (
        not neg1.indistinguishability.passed
        and {v[0] for v in neg1.indistinguishability.violations} == {"AB"}
        and all(v[4] for v in neg1.indistinguishability.violations)
        and neg1.distinguishability.passed
    )

    # negative geometry 2: fusion string endpoint stranded inside A'
    lat3 = st.Lattice(width=14, height=12, prime=2)
    part3 = st.centered_annulus(lat3, width=3)
    fam3 = st.sector_family(st.build_ground_state(lat3), part3)
    neg2 = st.verify_assumptions(fam3, part3, st.FusionStringRule(endpoint="inside_a_prime"))
    neg2_ok = (
        not neg2.fusion.passed
        and {v[0] for v in neg2.fusion.violations} == {(0, 1), (1, 0), (1, 1)}
        and all(v[3] for v in neg2.fusion.violations)
    )
    verdict(
        4,
        positive.passed and neg1_ok and neg2_ok,
        "properties 1-3 pass exactly at p=2 widths 2; displaced-anchor geometry fails "
        "local indistinguishability on AB with detecting-loop witnesses; stranded-endpoint "
        "geometry fails fusion for every nontrivial string",
    )


def test_criterion_05_ring_saturation():
    start = time.perf_counter()
    for q in (2, 3, 5):
        spec = ring.RingSpec(q=q, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
        assert ring.exact_cmi(spec) == math.log(q)
        assert ring.saturation_margin(spec) == 0.0
    # exhaustive enumeration confirmation for q <= 5, N <= 8
    for q, arcs in ((2, (2, 2, 2, 2)), (3, (2, 2, 2, 2)), (5, (1, 1, 1, 1))):
        spec = ring.RingSpec(q=q, sites_a=arcs[0], sites_b1=arcs[1], sites_c=arcs[2], sites_b2=arcs[3])
        n = spec.n_sites
        digits = np.indices((q,) * n).reshape(n, -1).T
        for a in range(q):
            support = digits[digits.sum(axis=1) % q == a]
            assert len(support) == q ** (n - 1)
            for tag in ("A", "B", "C"):
                sites = list(spec.region_sites(tag))
                _, counts = np.unique(support[:, sites], axis=0, return_counts=True)
                assert (counts == q ** (n - 1 - len(sites))).all()
    elapsed = time.perf_counter() - start
    verdict(
        5,
        elapsed < 5.0,
        f"ring q in {{2,3,5}}: I = ln q with margin exactly 0, enumeration confirms "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_06_fixed_point_identity(categories):
    worst_residual = 0.0
    worst_agreement = 0.0
    names = [f"z{n}" for n in range(2, 8)] + ["ising", "fibonacci"]
    for name in names:
        _, dims, fp = categories[name]
        fixed = fusion.fixed_point_iterative(fp)
        closed = fusion.closed_form_fixed_point(dims)
        worst_residual = max(worst_residual, fixed.residual)
        worst_agreement = max(worst_agreement, float(np.abs(fixed.distribution.probs - closed.probs).max()))
    verdict(
        6,
        worst_residual < 1e-12 and worst_agreement < 1e-10,
        f"fixed-point identity residual < 1e-12 (worst {worst_residual:.2e}) and "
        f"iterative/closed-form agreement < 1e-10 (worst {worst_agreement:.2e}) "
        f"on Z_2..Z_7, Ising, Fibonacci",
    )


def test_criterion_07_taylor_sweep(categories):
    worst = 0.0
    for name, (_, dims, fp) in categories.items():
        report = audit.taylor_bound_sweep(fusion.closed_form_fixed_point(dims), fp, eps_points=41)
        worst = min(worst, report.worst_taylor, report.worst_concavity, report.worst_combined)
        assert report.passed, name
    verdict(
        7,
        worst >= -1e-9,
        f"Taylor and concavity bounds hold over all bundled categories x all (b,c) x "
        f"41-point eps grid (worst margin {worst:.2e} >= -1e-9)",
    )


def test_criterion_08_bound_constant_arithmetic():
    p_star = fusion.AnyonDistribution.uniform(("1", "e", "m", "eps"))
    K = fusion.bound_constant(p_star)
    k_exact = abs(K - (1 + 32 * math.log(16))) < 1e-12
    ns = [1, 2, 10, 100, 10**4, 10**6, 10**8, 10**10]
    values = [fusion.tee_lower_bound("1", p_star, n, K) for n in ns]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    converged = abs(values[-1] - math.log(4)) < 1e-3
    verdict(
        8,
        k_exact and increasing and converged,
        f"K = 1 + 32 ln 16 to 1e-12; bound strictly increasing in n and within 1e-3 of "
        f"ln 4 at n = 1e10 (gap {math.log(4) - values[-1]:.2e})",
    )


def test_criterion_09_proof_replay():
    # ring traces, q <= 5, n <= 4
    for q in (2, 3, 4, 5):
        for n in (1, 2, 4):
            spec = ring.RingSpec(q=q, sites_a=n + 2, sites_b1=2, sites_c=2, sites_b2=2)
            report = audit.assemble_bound(ring.nested_annulus_table(spec, n))
            assert report.passed, (q, n)
    # stabilizer traces, p <= 3, n <= 3
    for p, n, size in ((2, 1, (10, 10)), (2, 3, (14, 12)), (3, 3, (14, 10))):
        lat = st.Lattice(width=size[0], height=size[1], prime=p)
        part = st.centered_annulus(lat, width=2, a_width=n + 2)
        report = audit.assemble_bound(st.nested_annulus_table(st.build_ground_state(lat), part, n))
        assert report.passed, (p, n)
    # the bundled adversarial decreasing table must trip the premise detector
    doc = json.loads(
        resources.files("teelab.data.traces").joinpath("adversarial_decreasing.json").read_text()
    )
    with pytest.raises(PremiseViolated, match="monotonicity"):
        audit.assemble_bound(audit.load_trace(doc))
    verdict(
        9,
        True,
        "assembled bound passes on ring traces (q <= 5, n <= 4) and stabilizer traces "
        "(p <= 3, n <= 3); the bundled adversarial decreasing table raises PremiseViolated",
    )


def test_criterion_10_ssa_and_mixture():
    part = dense.Partition({0: "A", 1: "B", 2: "C"})
    dims_cycle = [(2, 2, 2), (2, 3, 4), (4, 4, 4), (3, 3, 3), (4, 2, 3)]
    worst = 0.0
    for seed in range(500):
        space = dense.FactorSpace.of_dims(dims_cycle[seed % len(dims_cycle)])
        rho = dense.random_density(space, seed)
        worst = min(worst, dense.conditional_mutual_information(rho, part))
    ssa_ok = worst >= -1e-9

    spec = ring.RingSpec(q=2, sites_a=2, sites_b1=2, sites_c=2, sites_b2=2)
    fam = dense.dense_family(ring.build_family(spec))
    rep_ring = dense.mixture_cmi_decomposition(
        fam, dense.ring_partition(spec), fusion.AnyonDistribution.uniform(fam.labels)
    )
    ghz = ghz_phase_family()
    rep_ghz = dense.mixture_cmi_decomposition(
        ghz,
        dense.Partition({0: "A", 1: "B", 2: "C"}),
        fusion.AnyonDistribution.uniform(ghz.labels),
    )
    verdict(
        10,
        ssa_ok and rep_ring.worst < 1e-9 and rep_ghz.worst < 1e-9,
        f"500 seeded random 3-factor states satisfy I >= -1e-9 (worst {worst:.2e}); "
        f"mixture decomposition defect < 1e-9 on ring ({rep_ring.worst:.2e}) and "
        f"GHZ-phase ({rep_ghz.worst:.2e}) families",
    )


def test_criterion_11_positive_stabilizer_certificate(tmp_path, monkeypatch):
    # the final bound's rhs log(1/p*) - K/sqrt(n) is positive for the p = 2
    # toric code (K = 1 + 32 ln 16) only from n of about 4200 levels on
    traces, table = [], st.nested_annulus_table

    def recorded(*args):
        traces.append(table(*args))
        return traces[-1]

    monkeypatch.setattr(st, "nested_annulus_table", recorded)
    out = tmp_path / "report.json"
    argv = ["stabilizer", "--p", "2", "--width", "5012", "--height", "10", "--widths", "2",
            "--a-width", "5002", "--levels", "5000", "--out", str(out)]
    code = cli.main(argv)
    report = json.loads(out.read_text())
    audit_check = next(c for c in report["results"] if c["name"] == "audit_passed")
    rhs = report["data"]["audit"]["checks"]["final_bound"]["rhs"]
    (trace,) = traces
    saturated = bool((trace.table == 2 * LN2).all())  # zero tolerance: integer rank arithmetic
    verdict(
        11,
        code == 0 and audit_check["passed"] and saturated and rhs > 0,
        f"p = 2 strip, n = 5000: exit {code}, audit passed {audit_check['passed']}, "
        f"coefficient 2 at all {trace.table.shape[1]} levels: {saturated}, final rhs {rhs:+.4f}",
    )
