"""teelab benchmark: time to an exact verdict on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is lattice_cmi, sector_algebra, fusion_audit, or `all` for each in turn.
Run it from the root of a checkout; teelab is imported from `src/`.

Every pass of a workload runs in a fresh interpreter (bench/worker.py), one
process with no thread pool.  With `--trace 0` the run makes set-up-only
starts and then whole passes while another pass still fits in S seconds
(at least one), and reports the end-to-end metrics of BENCHMARK.json as
medians; the two scenario times are scaled to the reference host's speed.
With `--trace 1` it makes one untraced and two traced passes and reports the
per-layer metrics; the work counts of the two traced passes must be equal.  Every report goes through the verdict gate (bench/verdict.py).
The last line of standard output is the JSON result; the exit code is 0 only
if every verdict matched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import factor as speed_factor  # noqa: E402
from workloads import KEY_SCENARIO, WORKLOADS  # noqa: E402

SETUP_ONLY_STARTS = 8
RUN_LIMIT_S = 170.0
SPANS_DIR = ROOT / ".bench_out"


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # One process, no thread pool: sweeps run sequentially, BLAS on one thread.
    env.pop("TEELAB_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its result.

    `setup_s` is the worker's `ready_at` minus the moment it was started;
    both are read from the same system-wide monotonic clock.
    """
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    result["elapsed_s"] = time.monotonic() - started
    return result


def _pass_args(workload: str, seed: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed)]


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list[dict], dict]:
    """Untraced passes for `seconds`; returns the passes and the end-to-end metrics.

    `wall_s` and `slowest_scenario_s` are medians as measured, scaled to the
    reference host's speed by the calibration blocks the passes timed between
    their scenarios (bench/hostspeed.py).  `setup_s` and `peak_rss_mb` are
    medians as measured.
    """
    start = time.monotonic()
    setups = [_spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_ONLY_STARTS)]
    passes = []
    while True:
        passes.append(_spawn(_pass_args(workload, seed), deadline))
        longest = max(p["elapsed_s"] for p in passes)
        if time.monotonic() - start + longest > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_scenario_s": statistics.median(p["slowest_scenario_s"] or 0.0 for p in passes),
    }
    blocks = [b for p in passes for b in p["calibration_blocks"]]
    factor = speed_factor(blocks)
    metrics = {name: value * factor for name, value in raw.items()}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    speed = f"; host speed factor {factor:.3f} from {len(blocks)} calibration blocks"
    notes = {
        "wall_s": f"median of {len(passes)} passes, as measured {raw['wall_s']:.3f}{speed}",
        "slowest_scenario_s": f"{KEY_SCENARIO[workload]}, as measured {raw['slowest_scenario_s']:.3f}",
        "setup_s": f"median of {len(setups)} interpreter starts, as measured",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    return passes, {"values": metrics, "notes": notes}


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("self_s")


def trace(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict]:
    """One untraced and two traced passes; returns the passes and the per-layer metrics."""
    SPANS_DIR.mkdir(exist_ok=True)
    plain = _spawn(_pass_args(workload, seed), deadline)
    traced = [
        _spawn(_pass_args(workload, seed) + [
            "--traced", "--spans", str(SPANS_DIR / f"{workload}-seed{seed}-pass{k}.spans.json")
        ], deadline)
        for k in (1, 2)
    ]
    first, second = (t["layers"] for t in traced)
    for name in sorted(first):
        if not _is_time(name) and first[name] != second.get(name):
            traced[0]["errors"].append(
                f"work count {name} differs across two traced passes: {first[name]} != {second.get(name)}")
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced) if _is_time(name) else first[name]
        for name in first
    }
    metrics["trace_overhead_s"] = statistics.median(t["wall_s"] for t in traced) - plain["wall_s"]
    notes = {
        "trace_overhead_s": f"traced wall_s {statistics.median(t['wall_s'] for t in traced):.3f} s "
                            f"minus untraced {plain['wall_s']:.3f} s",
    }
    return [plain, *traced], {"values": metrics, "notes": notes}


def run_workload(workload: str, seed: int, seconds: int, traced: bool, spec: list[dict],
                 deadline: float) -> dict:
    if traced:
        passes, measured = trace(workload, seed, deadline)
    else:
        passes, measured = measure(workload, seed, seconds, deadline)
    values, notes = measured["values"], measured["notes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        errors.append(f"metrics not measured: {missing}")

    mode = "traced" if traced else "untraced"
    print(f"teelab benchmark: workload {workload}, seed {seed}, {mode}, "
          f"{len(passes)} passes, each in a fresh interpreter")
    for m in spec:
        value = values.get(m["name"], float("nan"))
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {m['name']:<42} {shown} {m['unit']:<6} {notes.get(m['name'], '')}")
    print(f"  {'error_rate':<42} {failed / attempted:>14.6f} {'ratio':<6} "
          f"{failed} of {attempted} scenarios failed the verdict gate")
    if traced:
        print("  wait time: not recorded; every layer runs in one thread, so none waits on another")
        print("  .cells, .rows, .evaluations, .iterations and gens_mb are computed counts")
    for e in errors:
        print(f"bench: {e}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "teelab" / "__init__.py").is_file():
        print(f"bench: no teelab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = start + RUN_LIMIT_S * (len(results) + 1)
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[args.workload]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
