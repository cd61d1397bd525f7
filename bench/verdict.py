"""Verdict gate: each report against the expected values committed in expected.json.

The gate recomputes what it can from the report's own integer data and
trusts no check that is true by construction: `entropy_integer_multiples`
is hard-coded to true and `sector_independence` cannot fail, because ranks
never see phases, so neither is read.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import scenario_id

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

EXACT = 1e-12  # values that are exact multiples of log p or log q


def _close(got, want: float, rel: float = 1e-9) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rel * max(1.0, abs(want))


def _check_passed(report: dict, name: str) -> bool:
    return any(c["name"] == name and c["passed"] for c in report["results"])


def mismatches(report: dict) -> list[str]:
    """Every way the report differs from its expected verdict and headline values."""
    sid = scenario_id(report["scenario"])
    want = EXPECTED.get(sid)
    if want is None:
        return [f"{sid}: no expected values"]
    data = report.get("data", {})
    errs = []
    if report.get("all_passed") is not want["all_passed"]:
        errs.append(f"all_passed is {report.get('all_passed')}, expected {want['all_passed']}")
    for name in want.get("checks", ()):
        if not _check_passed(report, name):
            errs.append(f"check {name} missing or failed")
    kind = report["scenario"]["scenario"]
    if kind == "stabilizer":
        log_p = math.log(want["p"])
        certs = data.get("certificates") or {}
        if not certs:
            errs.append("no CMI certificates")
        for sector, cert in certs.items():
            r = cert["ranks"]
            if r["B"] + r["ABC"] - r["AB"] - r["BC"] != 2:
                errs.append(f"sector {sector}: B + ABC - AB - BC != 2 for ranks {r}")
            if r != want["ranks"] or cert["sizes"] != want["sizes"]:
                errs.append(f"sector {sector}: ranks {r} / sizes {cert['sizes']} differ from expected")
        if abs(data.get("gamma", {}).get("nats", math.inf) - log_p) > EXACT:
            errs.append(f"gamma {data.get('gamma')} != log {want['p']}")
        if "final_margin" in want:
            got = data.get("audit", {}).get("checks", {}).get("final_bound", {}).get("margin")
            if not _close(got, want["final_margin"]):
                errs.append(f"audit final margin {got} != {want['final_margin']}")
    elif kind == "ring":
        log_q = math.log(want["q"])
        if abs(data.get("cmi", {}).get("nats", math.inf) - log_q) > EXACT:
            errs.append(f"cmi {data.get('cmi')} != log {want['q']}")
        if abs(data.get("gamma", {}).get("nats", math.inf) - log_q / 2) > EXACT:
            errs.append(f"gamma {data.get('gamma')} != log {want['q']} / 2")
    elif kind == "fusion":
        for key in ("total_dimension", "K"):
            if not _close(data.get(key), want[key]):
                errs.append(f"{key} {data.get(key)} != {want[key]}")
        for key in ("lower_bound", "lower_bound_limit"):
            got = data.get(key, {}).get("nats")
            if not _close(got, want[key]):
                errs.append(f"{key} {got} != {want[key]}")
    elif kind == "audit":
        violated = data.get("premise_violated", "")
        if want["premise_violated"] not in violated:
            errs.append(f"premise_violated {violated!r} does not name {want['premise_violated']}")
        if not any(c["name"] == f"audit_{want['premise_violated']}" and not c["passed"]
                   for c in report["results"]):
            errs.append(f"audit_{want['premise_violated']} is not reported as failed")
    elif kind == "selftest":
        if len(report["results"]) != want["checks_run"] or not all(c["passed"] for c in report["results"]):
            errs.append(f"selftest: {sum(c['passed'] for c in report['results'])} of "
                        f"{len(report['results'])} passed, expected all {want['checks_run']}")
    return [f"{sid}: {e}" for e in errs]
