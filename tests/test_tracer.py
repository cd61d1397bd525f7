"""The benchmark tracer wraps teelab functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"teelab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
