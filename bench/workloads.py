"""The benchmark's three workloads, as configs for the public `teelab.cli` entry points.

Each workload is a list of scenarios.  A scenario calls `cli.run(config)` or
`cli.run_sweep(config)` and yields one report per `cli.run` call.  The seed
shuffles the scenario order and becomes every fusion config's `seed`; the
geometry never depends on it, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("lattice_cmi", "sector_algebra", "fusion_audit")

ADVERSARIAL_TRACE = Path("src/teelab/data/traces/adversarial_decreasing.json")


@dataclass(frozen=True)
class Scenario:
    entry: str  # "run" or "run_sweep"
    config: dict
    reports: int  # number of cli.run calls, hence reports, it makes


def scenario_id(config: dict) -> str:
    """Stable name of one `cli.run` config: its kind and sorted fields, seed left out."""
    parts = [config["scenario"]]
    for key in sorted(config):
        if key in ("scenario", "seed"):
            continue
        value = config[key]
        if key == "trace":
            value = Path(value).name
        parts.append(f"{key}={json.dumps(value, separators=(',', ':'))}")
    return " ".join(parts)


# The scenario each workload's `slowest_scenario_s` times: fixed by name, so
# the metric keeps its meaning even if another scenario becomes slower.
KEY_SCENARIO = {
    "lattice_cmi": "stabilizer p=2 size=24 widths=2",
    "sector_algebra": "stabilizer assumptions=true p=3 size=12 widths=2",
    "fusion_audit": "fusion category=\"z7\" trials=400",
}


def scenarios(workload: str, seed: int, root: Path) -> list[Scenario]:
    """The workload's scenarios in the order the seed gives them."""
    if workload == "lattice_cmi":
        # one sweep; the seed orders its grid points
        sizes = [16, 20, 24]
        random.Random(seed).shuffle(sizes)
        return [Scenario("run_sweep", {
            "scenario": "sweep", "grid_scenario": "stabilizer",
            "p": [2], "widths": [2], "size": sizes,
        }, reports=3)]
    if workload == "sector_algebra":
        out = [
            Scenario("run", {"scenario": "stabilizer", "p": 3, "size": 12, "widths": 2,
                             "assumptions": True}, 1),
            Scenario("run", {"scenario": "stabilizer", "p": 3, "size": 14, "widths": 2,
                             "a_width": 5, "levels": 3}, 1),
        ]
    elif workload == "fusion_audit":
        out = [
            Scenario("run", {"scenario": "fusion", "category": name, "trials": 400, "seed": seed}, 1)
            for name in ("fibonacci", "ising", "toric_code", "z2", "z3", "z4", "z5", "z6", "z7")
        ]
        # --levels 50 needs at least 52 A sites
        out += [
            Scenario("run", {"scenario": "ring", "q": q, "arcs": [52, 2, 2, 2], "levels": 50}, 1)
            for q in (2, 7, 13)
        ]
        out += [
            Scenario("run", {"scenario": "ring", "q": 3, "arcs": [2, 1, 1, 1], "enumerate": True}, 1),
            Scenario("run", {"scenario": "audit", "trace": str(root / ADVERSARIAL_TRACE)}, 1),
            Scenario("run", {"scenario": "selftest"}, 1),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out
