"""Span tracing of teelab's public functions, installed from outside the program.

`install` replaces each traced function by a timing wrapper wherever a
teelab module binds it, so a name re-bound by `from .gfp import ...` inside
`stabilizer` is wrapped there too.  A span is (name, start, end, parent,
scenario, count); `count` is the work the call was given or did, computed
from its arguments or result.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# Public functions traced per module.  Hot helpers called per row or per
# group element (pauli_mul, pauli_pow) are left out: a wrapper there would
# cost more than the work it times.
TRACED = {
    "cli": ("run", "run_sweep"),
    "stabilizer": (
        "build_ground_state", "centered_annulus", "create_sector", "conjugate_by_string",
        "region_rank", "annulus_cmi_certificate", "restricted_canonical",
        "reduction_relation", "fusion_string", "verify_assumptions", "nested_annulus_table",
    ),
    "gfp": ("rank_mod_p", "left_nullspace_mod_p", "phased_rref", "combine_rows"),
    "audit": ("taylor_bound_sweep", "assemble_bound", "load_trace"),
    "fusion": (
        "bundled_category", "quantum_dimensions", "fusion_probabilities",
        "fixed_point_iterative", "closed_form_fixed_point", "verify_fixed_point_identity",
        "bound_constant", "tee_lower_bound",
    ),
    "ring": ("exact_cmi", "saturation_margin", "nested_annulus_table"),
}

MODULES = tuple(TRACED)


def _cells(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    return int(np.prod(np.shape(mat)))


# Computed work counts: name of the counter, and how to get it from a call.
COUNTERS = {
    "gfp.rank_mod_p": ("cells", lambda a, k, r: _cells(a, k)),
    "gfp.left_nullspace_mod_p": ("cells", lambda a, k, r: _cells(a, k)),
    "gfp.phased_rref": ("rows", lambda a, k, r: len(a[0] if a else k["rows"])),
    "stabilizer.build_ground_state": ("gens_bytes", lambda a, k, r: int(r.gens.nbytes)),
    "audit.taylor_bound_sweep": ("evaluations", lambda a, k, r: int(r.evaluations)),
    "fusion.fixed_point_iterative": ("iterations", lambda a, k, r: int(r.iterations)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent span, scenario, count)
        self._stack: list[int] = []
        self.scenario = -1

    def install(self) -> None:
        """Wrap every traced function in every teelab module that binds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("teelab")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"teelab.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name, (None, None))[1]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.scenario, 0)
            if counter is not None:
                spans[slot] = spans[slot][:5] + (counter(args, kwargs, result),)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive seconds, calls and counts per function, and self seconds per module.

        Inclusive time counts a span only when no ancestor has the same name.
        A module's self time is the time when its span is the innermost one,
        i.e. its span time not covered by spans of other modules it called.
        """
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {f"{mod}.self_s": 0.0 for mod in MODULES}
        for name in names:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = 0
        for i, (idx, start, end, parent, _, count) in enumerate(spans):
            name = names[idx]
            out[f"{name}.calls"] += 1
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] += count
            out[f"{name.split('.')[0]}.self_s"] += (end - start) - child[i]
            anc = parent
            while anc >= 0 and spans[anc][0] != idx:
                anc = spans[anc][3]
            if anc < 0:
                out[f"{name}.s"] += end - start
        out["stabilizer.gens_mb"] = out.pop("stabilizer.build_ground_state.gens_bytes") / 2**20
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "scenario", "count"],
                "names": self.names,
                "counters": {name: c for name, (c, _) in COUNTERS.items()},
                "spans": self.spans,
            }, fh, separators=(",", ":"))
