"""The benchmark tracer wraps teelab functions by name; every name must exist,
and every work counter must evaluate on a real call."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from teelab import fusion, stabilizer

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = load_tracer()
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"teelab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def small_calls() -> dict:
    """One small real call, (args, kwargs), per counted function."""
    cat = fusion.bundled_category("z2")
    dims = fusion.quantum_dimensions(cat)
    fp = fusion.fusion_probabilities(cat)
    mat = np.array([[1, 2], [2, 4]], dtype=np.int64)
    return {
        "gfp.rank_mod_p": ((mat, 3), {}),
        "gfp.left_nullspace_mod_p": ((mat, 3), {}),
        "gfp.phased_rref": (([(np.array([1, 0]), 0)], 1, 3), {}),
        "stabilizer.build_ground_state": ((stabilizer.Lattice(width=4, height=4, prime=2),), {}),
        "audit.taylor_bound_sweep": ((fusion.closed_form_fixed_point(dims), fp), {"eps_points": 3}),
        "fusion.fixed_point_iterative": ((fp,), {}),
    }


def test_counters_count_real_calls():
    # a counter reads its call's arguments or result; a refactor that renames
    # what it reads would otherwise only show under `bench/run.py --trace 1`
    tracer = load_tracer()
    traced = {f"{module}.{name}" for module, names in tracer.TRACED.items() for name in names}
    assert set(tracer.COUNTERS) <= traced
    calls = small_calls()
    assert set(calls) == set(tracer.COUNTERS)
    t = tracer.Tracer()
    for name, (args, kwargs) in calls.items():
        module, func = name.split(".")
        t._wrap(name, getattr(importlib.import_module(f"teelab.{module}"), func))(*args, **kwargs)
    counts = {t.names[span[0]]: span[5] for span in t.spans}  # (name index, ..., count)
    assert all(isinstance(c, int) and c > 0 for c in counts.values()), counts
    metrics = t.layer_metrics()
    assert metrics["stabilizer.gens_mb"] == 16 * 40 / 2**20  # the 4 x 4 lattice's column graph
    for name in calls:
        assert metrics[f"{name}.calls"] == 1, name
