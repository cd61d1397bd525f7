"""One pass of one workload in a fresh interpreter; prints a JSON result line.

Usage (run.py starts it):
    python3 bench/worker.py --workload NAME --seed N [--traced] [--spans FILE]
    python3 bench/worker.py --setup-only

Set-up ends when teelab, imported from the checkout's `src`, has loaded
every bundled category; `ready_at` is read from the system-wide monotonic
clock, so the parent can subtract the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATION_SHARE = 0.15  # calibration time per second of scenario time


def setup():
    sys.path.insert(0, str(SRC))
    import teelab
    from teelab import cli, fusion

    if Path(teelab.__file__).resolve().parent != SRC / "teelab":
        raise SystemExit(f"teelab imported from {teelab.__file__}, not from {SRC}")
    for name in fusion.bundled_category_names():
        fusion.bundled_category(name)
    return cli


def run_pass(cli, workload: str, seed: int, traced: bool, spans_path: str | None) -> dict:
    import verdict
    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer

    plan = workloads.scenarios(workload, seed, ROOT)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    # Times each cli.run call from outside, also the calls run_sweep makes,
    # and runs calibration work before each (untraced passes only).
    host = None if traced else HostSpeed()
    run_times: list[tuple[str, float]] = []
    inner_run = cli.run

    def calibrate():
        host.sample(CALIBRATION_SHARE * (run_times[-1][1] if run_times else 0.0))

    def timed_run(config):
        if host:
            calibrate()
        start = time.perf_counter()
        try:
            return inner_run(config)
        finally:
            run_times.append((workloads.scenario_id(config), time.perf_counter() - start))

    cli.run = timed_run

    outcomes = []
    start = time.perf_counter()
    for i, sc in enumerate(plan):
        if tracer:
            tracer.scenario = i
        try:
            result = getattr(cli, sc.entry)(sc.config)
            outcomes.append((sc, result[0] if sc.entry == "run_sweep" else [result], None))
        except Exception:  # a raising scenario is an error to count, not a reason to stop
            outcomes.append((sc, [], traceback.format_exc(limit=3)))
    wall = time.perf_counter() - start
    if host:
        wall -= host.spent
        calibrate()

    attempted = sum(sc.reports for sc in plan)
    errors = []
    failed = 0
    for sc, reports, exc in outcomes:
        if exc is not None:
            errors.append(f"{sc.config}: raised {exc}")
        elif len(reports) != sc.reports:
            errors.append(f"{sc.config}: {len(reports)} reports, expected {sc.reports}")
        for rep in reports:
            bad = verdict.mismatches(rep)
            errors += bad
            failed += bool(bad)
        failed += sc.reports - min(len(reports), sc.reports)
    key = [t for sid, t in run_times if sid == workloads.KEY_SCENARIO[workload]]
    if len(key) != 1:
        errors.append(f"key scenario {workloads.KEY_SCENARIO[workload]} ran {len(key)} times")
    out = {
        "wall_s": wall,
        "slowest_scenario_s": key[0] if len(key) == 1 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    if host:
        out["calibration_blocks"] = host.blocks
    if tracer:
        out["layers"] = tracer.layer_metrics()
        if spans_path:
            tracer.dump(spans_path)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    cli = setup()
    result = {"ready_at": time.monotonic()}
    if not args.setup_only:
        result.update(run_pass(cli, args.workload, args.seed, args.traced, args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
