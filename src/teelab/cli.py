"""Command-line entry point: scenario orchestration and JSON/CSV reports.

Subcommands: fusion, ring, stabilizer, audit, sweep, selftest.  A scenario is
described by a JSON config document; flags override config-file fields.  All
internal values are nats; reports carry a parallel bits rendering of headline
numbers.  Exit code 0 iff every check passed, 1 on a failing check (named on
stderr), 2 on a config error.

Reports are deterministic for a fixed config, seed, and tool version; the
canonical report form (everything except the "timings" block) is byte-stable
and is what the input hash covers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, audit, ring, stabilizer
from . import fusion as fu
from .errors import ConfigError, PremiseViolated, TeeLabError

REPORT_SCHEMA = "teelab-report/v1"
LN2 = math.log(2)


def _both_bases(nats: float) -> dict:
    return {"nats": nats, "bits": nats / LN2}


def canonical_report(report: dict) -> dict:
    """The deterministic part of a report (everything but timings)."""
    return {k: v for k, v in report.items() if k != "timings"}


def report_bytes(report: dict) -> bytes:
    return json.dumps(canonical_report(report), sort_keys=True, indent=2).encode()


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _report_header(config: dict) -> dict:
    """The fields that open every report: schema, tool, scenario and input hash."""
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "teelab", "version": __version__},
        "scenario": config,
        "input_hash": _config_hash(config),
    }


def _check(name: str, passed: bool, **extra) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(extra)
    return entry


def _int(value, name: str, default=...):
    """A config value as an int, `default` if absent (None); ConfigError if
    malformed or required.  A float counts only when integral, a bool never."""
    if value is None:
        if default is ...:
            raise ConfigError(f"missing {name!r}")
        return default
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name!r} must be an integer, got {value!r}") from exc


def _float(value, name: str):
    """A config value as a finite float, None if absent; ConfigError if malformed."""
    if value is None:
        return None
    try:
        if isinstance(value, bool):
            raise ValueError
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name!r} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{name!r} must be finite, got {value!r}")
    return out


@contextmanager
def _stage(timings: dict, name: str):
    """Record the seconds spent in the block under timings["stages"][name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings.setdefault("stages", {})[name] = time.perf_counter() - start


# ---------------------------------------------------------------------------
# scenarios


def _spectra(cat: fu.FusionCategory):
    """The category's dimensions, fusion probabilities, iterated and
    closed-form fixed points, and the largest difference between the two."""
    dims = fu.quantum_dimensions(cat)
    fp = fu.fusion_probabilities(cat)
    fixed = fu.fixed_point_iterative(fp)
    closed = fu.closed_form_fixed_point(dims)
    return dims, fp, fixed, closed, float(np.abs(fixed.distribution.probs - closed.probs).max())


def _fusion_scenario(cfg: dict, timings: dict) -> tuple[list[dict], dict]:
    name = cfg.get("category")
    path = cfg.get("category_file")
    if bool(name) == bool(path):
        raise ConfigError("fusion needs exactly one of 'category' or 'category_file'")
    cat = fu.bundled_category(name) if name else fu.load_category(Path(path))
    with _stage(timings, "spectra"):
        dims, fp, fixed, closed, agreement = _spectra(cat)
        identity = fu.verify_fixed_point_identity(fp, closed)
    K = fu.bound_constant(closed)
    a0 = cfg.get("a0", cat.unit)
    n = _int(cfg.get("n"), "n", 100)
    bound = fu.tee_lower_bound(a0, closed, n, K)
    limit = math.log(1.0 / closed.of(a0))
    with _stage(timings, "sweep"):
        sweep = audit.taylor_bound_sweep(
            closed,
            fp,
            trials=_int(cfg.get("trials"), "trials", 0),
            eps_points=_int(cfg.get("taylor_points"), "taylor_points", 41),
            seed=_int(cfg.get("seed"), "seed", 0),
        )
    checks = [
        _check("fusion_rows_normalized", fp.row_sum_residual < 1e-12, value=fp.row_sum_residual),
        _check("fusion_associative", fp.associativity_residual < 1e-12, value=fp.associativity_residual),
        _check("fixed_point_residual", fixed.residual < 1e-12, value=fixed.residual),
        _check("closed_form_agrees", agreement < 1e-10, value=agreement),
        _check("fixed_point_identity", identity.residual < 1e-12, value=identity.residual,
               worst_pair=list(identity.worst_pair)),
        _check("fixed_point_positive", fixed.p_min > 0.0, value=fixed.p_min),
        _check("taylor_sweep", sweep.passed,
               worst_taylor=sweep.worst_taylor,
               worst_concavity=sweep.worst_concavity,
               worst_combined=sweep.worst_combined,
               evaluations=sweep.evaluations),
    ]
    data = {
        "category": cat.name,
        "labels": list(cat.labels),
        "quantum_dimensions": {lab: dims.of(lab) for lab in cat.labels},
        "total_dimension": dims.total,
        "p_star": {lab: closed.of(lab) for lab in cat.labels},
        "iterations": fixed.iterations,
        "K": K,
        "a0": a0,
        "n": n,
        "lower_bound": _both_bases(bound),
        "lower_bound_limit": _both_bases(limit),
        "log_total_dimension": _both_bases(math.log(dims.total)),
    }
    return checks, data


def _ring_scenario(cfg: dict, timings: dict) -> tuple[list[dict], dict]:
    q = _int(cfg.get("q"), "q")
    arcs = cfg.get("arcs", [2, 2, 2, 2])
    if not isinstance(arcs, (list, tuple)) or len(arcs) != 4:
        raise ConfigError(f"ring needs four 'arcs', got {arcs!r}")
    a, b1, c, b2 = (_int(x, "arcs") for x in arcs)
    levels = _int(cfg.get("levels"), "levels", None)
    spec = ring.RingSpec(q=q, sites_a=a, sites_b1=b1, sites_c=c, sites_b2=b2)
    cmi = ring.exact_cmi(spec)
    checks = []
    data = {
        "q": q,
        "arcs": [a, b1, c, b2],
        "cmi": _both_bases(cmi),
        "gamma": _both_bases(cmi / 2),
        "bound_log_labels": _both_bases(math.log(q)),
    }
    # the closed-form CMI is log q by construction, so a run without a table
    # checks its entropies by enumeration or is refused: it would check nothing
    if cfg.get("enumerate") or levels is None:
        total = q**spec.n_sites
        if total > 4_000_000:
            plain = "" if cfg.get("enumerate") else "; without it a ring run with no levels checks nothing"
            raise ConfigError(f"enumeration over {total} configurations refused{plain}")
        ok = _ring_enumeration_agrees(spec)
        checks.append(_check("enumeration_agrees", ok))
    if levels is not None:
        with _stage(timings, "table"):
            trace = ring.nested_annulus_table(spec, levels)
        checks.append(_audit_check(trace, data, timings))
    return checks, data


def _audit_check(trace: audit.AuditTrace, data: dict, timings: dict) -> dict:
    """The audit_passed check of a nested table; its audit report goes into data."""
    try:
        with _stage(timings, "audit"):
            rep = audit.assemble_bound(trace)
    except PremiseViolated as exc:
        return _check("audit_passed", False, error=str(exc))
    data["audit"] = rep.to_dict()
    return _check("audit_passed", rep.passed, final_margin=rep.checks["final_bound"]["margin"])


def _ring_enumeration_agrees(spec: ring.RingSpec) -> bool:
    """Exhaustive enumeration oracle: marginals of every region are uniform
    with the counting multiplicity, so entropies equal the closed forms.

    Configurations are the cells of a (q,)*n uint8 array of their sectors,
    site k on axis k (the caller admits q^n <= 4,000,000 with n >= 4, so
    q <= 44).  Each region, the empty one for the sectors, counts sector *
    q^|R| + projection (its sites as a base-q int32 number) over all
    q^(|R|+1) values, so a value that never occurs counts 0, one block of
    q^(n-1) configurations per first-site digit at a time."""
    q, n = spec.q, spec.n_sites
    sector = np.zeros((), dtype=np.uint8)
    for _ in range(n):
        sector = sector[..., None] + np.arange(q, dtype=np.uint8)
        sector %= q
    digit = np.arange(q, dtype=np.int32)
    regions = [()] + [spec.region_sites(tag) for tag in ("A", "B", "C")]
    projections = [  # sites[k] is digit k, on axis sites[k]
        np.broadcast_to(sum(digit.reshape((q,) + (1,) * (n - 1 - site)) * q**k for k, site in enumerate(sites)),
                        sector.shape)
        for sites in regions
    ]
    counts = [np.zeros(q ** (len(sites) + 1), dtype=np.int64) for sites in regions]
    for first in range(q):
        block = sector[first].reshape(-1).astype(np.intp)
        for sites, projection, count in zip(regions, projections, counts):
            key = block * q ** len(sites)
            key += projection[first].reshape(-1)
            count += np.bincount(key, minlength=len(count))
    return all((count == q ** (n - 1 - len(sites))).all() for sites, count in zip(regions, counts))


def _stabilizer_scenario(cfg: dict, timings: dict) -> tuple[list[dict], dict]:
    p = _int(cfg.get("p"), "p")
    width = _int(cfg.get("width"), "width", _int(cfg.get("size"), "size", 12))
    height = _int(cfg.get("height"), "height", width)
    bar = _int(cfg.get("widths"), "widths", 2)
    hole = _int(cfg.get("hole"), "hole", 3)
    a_width = _int(cfg.get("a_width"), "a_width", None)
    levels = _int(cfg.get("levels"), "levels", None)
    # a bad geometry, prime or level count is refused before the build
    lat = stabilizer.Lattice(width=width, height=height, prime=p)
    part = stabilizer.centered_annulus(lat, width=bar, hole_size=hole, a_width=a_width)
    if levels is not None:
        stabilizer.check_nested_levels(part, levels)
    if cfg.get("assumptions"):
        stabilizer.check_label_tables(p)
        part.thin(1)  # property 3 reduces to A' BC, one thinning step in
    with _stage(timings, "build"):
        ground = stabilizer.build_ground_state(lat)
    timings["gens_bytes"] = ground.gens.nbytes
    # sector states differ from the ground state only in their frame, which ranks
    # never read: one certificate, reported once under "all", is every sector's,
    # and the assumption checks read the sector strings by linearity.  A nested
    # table's last level is the full partition, so with levels the certificate is
    # read from the table's ranks.
    with _stage(timings, "entropies"):
        if levels is None:
            value, cert = stabilizer.annulus_cmi_certificate(ground, part)
        else:
            value, cert, nested = stabilizer.nested_annulus_certificate(ground, part, levels)
    gamma = value / 2
    checks = [
        _check("cmi_saturates_2_log_D", cert.coefficient == 2, coefficients=[cert.coefficient]),
        _check("gamma_ge_log_D", gamma - math.log(p) >= -1e-12,
               margin=gamma - math.log(p)),
    ]
    data = {
        "p": p,
        "lattice": [width, height],
        "bar_width": bar,
        "a_width": part.a_width,
        "cmi": _both_bases(value),
        "gamma": _both_bases(gamma),
        "log_total_dimension": _both_bases(math.log(p)),
        "certificates": {"all": {"coefficient": cert.coefficient, "ranks": cert.ranks, "sizes": cert.sizes}},
    }
    if cfg.get("assumptions"):
        with _stage(timings, "assumptions"):
            rep = stabilizer.verify_sector_assumptions(ground, part)
        checks.extend(
            _check(f"assumption_{r.name}", r.passed, violations=len(r.violations))
            for r in (rep.distinguishability, rep.indistinguishability, rep.fusion)
        )
    if levels is not None:
        with _stage(timings, "table"):
            trace = stabilizer.nested_annulus_table(ground, part, levels, nested)
        checks.append(_audit_check(trace, data, timings))
    return checks, data


def _audit_scenario(cfg: dict, timings: dict) -> tuple[list[dict], dict]:
    path = cfg.get("trace")
    if not path:
        raise ConfigError("audit needs 'trace' (path to a trace JSON file)")
    if not Path(path).exists():
        raise ConfigError(f"trace file {path} does not exist")
    with _stage(timings, "table"):
        trace = audit.load_trace(path)
    eps = _float(cfg.get("eps"), "eps")
    alpha = _float(cfg.get("alpha"), "alpha")
    premise = {}
    try:
        with _stage(timings, "audit"):
            rep = audit.assemble_bound(trace, b=cfg.get("b"), eps=eps, alpha=alpha)
    except PremiseViolated as exc:
        rep, premise = exc.report, {"premise_violated": str(exc)}
    checks = [
        _check(f"audit_{name}", entry["passed"], margin=entry["margin"], note=entry["note"])
        for name, entry in rep.checks.items()
    ]
    return checks, {"trace": str(path), "report": rep.to_dict(), **premise}


def _selftest_scenario(cfg: dict, timings: dict) -> tuple[list[dict], dict]:
    checks = []
    for name in fu.bundled_category_names():
        *_, fixed, _, agree = _spectra(fu.bundled_category(name))
        checks.append(_check(f"fusion_{name}", fixed.residual < 1e-12 and agree < 1e-10,
                             residual=fixed.residual, agreement=agree))
    for q in (2, 3):
        spec = ring.RingSpec(q=q, sites_a=2, sites_b1=1, sites_c=1, sites_b2=1)
        checks.append(_check(f"ring_q{q}", _ring_enumeration_agrees(spec)))
    # ranks never read a frame, so the ground state's certificate is every sector's
    lat = stabilizer.Lattice(width=10, height=10, prime=2)
    value, cert = stabilizer.annulus_cmi_certificate(
        stabilizer.build_ground_state(lat), stabilizer.centered_annulus(lat, width=2)
    )
    checks.append(_check("stabilizer_10x10", cert.coefficient == 2, cmi=value))
    trace = ring.nested_annulus_table(ring.RingSpec(q=2, sites_a=4, sites_b1=1, sites_c=1, sites_b2=1), n=2)
    rep = audit.assemble_bound(trace)
    checks.append(_check("audit_ring_trace", rep.passed))
    bad = resources.files("teelab.data.traces").joinpath("adversarial_decreasing.json")
    try:
        audit.assemble_bound(audit.load_trace(json.loads(bad.read_text())))
        checks.append(_check("audit_detects_decreasing_table", False))
    except PremiseViolated:
        checks.append(_check("audit_detects_decreasing_table", True))
    K = fu.bound_constant(fu.AnyonDistribution.uniform(("1", "e", "m", "eps")))
    checks.append(_check("bound_constant", abs(K - (1 + 32 * math.log(16))) < 1e-12, K=K))
    return checks, {"checks_run": len(checks)}


_SCENARIOS = {
    "fusion": _fusion_scenario,
    "ring": _ring_scenario,
    "stabilizer": _stabilizer_scenario,
    "audit": _audit_scenario,
    "selftest": _selftest_scenario,
}


def run(config: dict) -> dict:
    """Execute one scenario and assemble its report."""
    kind = config.get("scenario")
    if kind not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {kind!r}; choose from {sorted(_SCENARIOS)}")
    timings: dict = {}
    t0 = time.perf_counter()
    try:
        checks, data = _SCENARIOS[kind](config, timings)
    except ConfigError:
        raise
    except TeeLabError as exc:
        raise ConfigError(f"{kind} scenario rejected its inputs: {exc}") from exc
    elapsed = time.perf_counter() - t0
    return {
        **_report_header(config),
        "results": checks,
        "data": data,
        "all_passed": all(c["passed"] for c in checks),
        "timings": {"wall_seconds": elapsed, **timings},
    }


# ---------------------------------------------------------------------------
# sweeps


def _grid_points(cfg: dict) -> list[dict]:
    base_kind = cfg.get("grid_scenario")
    if base_kind not in ("stabilizer", "ring"):
        raise ConfigError("sweep needs grid_scenario 'stabilizer' or 'ring'")
    axes: list[tuple[str, list]] = []
    for key in ("p", "widths", "q", "levels", "size"):
        if key in cfg and isinstance(cfg[key], list):
            if not cfg[key]:
                raise ConfigError(f"sweep axis {key!r} is empty")
            axes.append((key, cfg[key]))
    if not axes:
        raise ConfigError("sweep needs at least one list-valued parameter")
    points = [dict()]
    for key, values in axes:
        points = [dict(pt, **{key: v}) for pt in points for v in values]
    axis_keys = {key for key, _ in axes} | {"scenario", "grid_scenario", "csv"}
    out = []
    for pt in points:
        merged = {k: v for k, v in cfg.items() if k not in axis_keys}
        merged.update(pt)
        merged["scenario"] = base_kind
        out.append(merged)
    return out


def _sweep_row(report: dict) -> dict:
    cfg = report["scenario"]
    data = report.get("data", {})
    row = {k: cfg.get(k, "") for k in ("scenario", "p", "widths", "q", "levels", "size", "arcs")}
    row["I_nats"] = data.get("cmi", {}).get("nats", "")
    row["gamma_nats"] = data.get("gamma", {}).get("nats", "")
    if cfg.get("scenario") == "stabilizer" and "log_total_dimension" in data:
        # gamma against log D
        row["bound_nats"] = data["log_total_dimension"]["nats"]
        row["margin_nats"] = data["gamma"]["nats"] - row["bound_nats"]
    elif cfg.get("scenario") == "ring" and "bound_log_labels" in data:
        # I(A:C|B) against log |A|
        row["bound_nats"] = data["bound_log_labels"]["nats"]
        row["margin_nats"] = data["cmi"]["nats"] - row["bound_nats"]
    else:
        row["bound_nats"] = ""
        row["margin_nats"] = ""
    audit_block = data.get("audit")
    if audit_block:
        row["audit_bound_nats"] = audit_block["checks"]["final_bound"]["rhs"]
        row["audit_margin_nats"] = audit_block["checks"]["final_bound"]["margin"]
    else:
        row["audit_bound_nats"] = ""
        row["audit_margin_nats"] = ""
    row["all_passed"] = report["all_passed"]
    return row


def run_sweep(config: dict) -> tuple[list[dict], list[dict]]:
    """One report per grid point plus CSV summary rows; point failures are recorded, not fatal."""

    def one(point):
        try:
            return run(point)
        except TeeLabError as exc:
            return {
                **_report_header(point),
                "results": [_check("scenario_error", False, error=str(exc))],
                "data": {},
                "all_passed": False,
                "timings": {"wall_seconds": 0.0},
            }

    reports = [one(pt) for pt in _grid_points(config)]
    return reports, [_sweep_row(r) for r in reports]


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teelab",
        description="Exact verification of the topological entanglement entropy lower bound.",
    )
    parser.add_argument("--version", action="version", version=f"teelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("fusion", help="fusion algebra of a category: dims, fixed point, K")
    sp.add_argument("--category", help="bundled category name")
    sp.add_argument("--category-file", dest="category_file", help="path to a category JSON file")
    sp.add_argument("--a0", help="base label for the lower bound (default: unit)")
    sp.add_argument("--n", type=int, help="number of thinning levels in the bound (default 100)")
    sp.add_argument("--taylor-points", dest="taylor_points", type=int,
                    help="eps grid size for the perturbation sweep (default 41)")
    sp.add_argument("--trials", type=int, help="extra seeded random eps samples per label pair")
    common(sp)

    sp = sub.add_parser("ring", help="constrained-ring family: exact saturation of log |A|")
    sp.add_argument("--q", type=int, help="sector count (cyclic group order)")
    sp.add_argument("--arcs", help="four arc sizes A,B1,C,B2 (default 2,2,2,2)")
    sp.add_argument("--levels", type=int, help="emit a nested-annulus table with n levels and audit it")
    sp.add_argument("--enumerate", action="store_true", default=None,
                    help="cross-check the counting entropies by exhaustive enumeration, "
                         "which a run without --levels always does")
    common(sp)

    sp = sub.add_parser("stabilizer", help="qudit toric code: exact annulus CMI and assumptions")
    sp.add_argument("--p", type=int, help="qudit prime")
    sp.add_argument("--size", type=int, help="square lattice size (plaquettes)")
    sp.add_argument("--width", type=int, help="lattice width (plaquettes)")
    sp.add_argument("--height", type=int, help="lattice height (plaquettes)")
    sp.add_argument("--widths", type=int, help="annulus bar width (default 2)")
    sp.add_argument("--hole", type=int, help="hole size (default 3)")
    sp.add_argument("--a-width", dest="a_width", type=int, help="wider A bar for nested tables")
    sp.add_argument("--assumptions", action="store_true", default=None,
                    help="verify the three sector-family properties")
    sp.add_argument("--levels", type=int, help="emit a nested-annulus table with n levels and audit it")
    common(sp)

    sp = sub.add_parser("audit", help="replay the inequality chain on a trace file")
    sp.add_argument("--trace", help="path to a trace JSON file")
    sp.add_argument("--eps", type=float, help="override the perturbation epsilon")
    sp.add_argument("--alpha", type=float, help="override the combination weight alpha")
    sp.add_argument("--b", help="base label (default: the trace's)")
    common(sp)

    sp = sub.add_parser("sweep", help="grid of ring/stabilizer runs with a CSV summary")
    sp.add_argument("--grid-scenario", dest="grid_scenario", choices=("stabilizer", "ring"))
    sp.add_argument("--p", help="comma list of primes")
    sp.add_argument("--widths", help="comma list of bar widths")
    sp.add_argument("--q", help="comma list of ring orders")
    sp.add_argument("--levels", help="comma list of level counts")
    sp.add_argument("--size", help="comma list of lattice sizes")
    sp.add_argument("--csv", help="write the sweep summary CSV here")
    common(sp)

    sp = sub.add_parser("selftest", help="quick end-to-end battery over all modules")
    common(sp)

    return parser


_INT_LISTS = ("p", "widths", "q", "levels", "size")


def _merge_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    config["scenario"] = args.command
    for key, value in vars(args).items():
        if key in ("command", "config", "out") or value is None:
            continue
        config[key] = value
    lists = _INT_LISTS if args.command == "sweep" else ("arcs",) if args.command == "ring" else ()
    for key in lists:
        if isinstance(config.get(key), str):
            config[key] = [_int(x, key) for x in config[key].split(",")]
    return config


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        csv_path = config.get("csv") if args.command == "sweep" else None
        for path in filter(None, (args.out, csv_path)):
            if not isinstance(path, str) or Path(path).is_dir() or not Path(path).parent.is_dir():
                raise ConfigError(f"cannot write {path!r}: not a file in an existing directory")
        if args.command == "sweep":
            reports, rows = run_sweep(config)
            report = {
                **_report_header(config),
                "reports": reports,
                "all_passed": all(r["all_passed"] for r in reports),
            }
        else:
            reports = [run(config)]
            report = reports[0]
        try:
            _emit(report, args.out)
            if csv_path:
                with open(csv_path, "w", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                    writer.writeheader()
                    writer.writerows(rows)
        except OSError as exc:
            raise ConfigError(f"cannot write the report: {exc}") from exc
        if not report["all_passed"]:
            failing = next(c["name"] for r in reports for c in r["results"] if not c["passed"])
            print(f"teelab: check failed: {failing}", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"teelab: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
