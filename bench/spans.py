"""In-memory span tracer that wraps drumtest functions at module attributes.

A wrapped function records one span per call: name, start, end, parent span
and op id. Spans stay in memory until the run ends. A layer's self time is
its span's duration minus the durations of its direct child spans (one
thread, so children never overlap). Names that do not exist any more are
reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# Library functions, by defining module. Each is wrapped at every drumtest
# module attribute that holds it, so calls are seen whichever module the
# caller reaches the function through.
FUNCTIONS = {
    "simulate": ["simulate", "build_universe", "type_matrix_for"],
    "geometry": ["compute_patches"],
    "model": ["estimate_rho"],
    "io": ["read_panel", "read_rho", "read_budgets", "read_universe",
           "write_panel", "write_rho"],
    "representations": ["enumerate_orders", "build_static_A", "kron_dynamic"],
    "inference": ["run_test", "run_test_eu"],
    "checks": ["check_stability", "check_d_monotonicity", "check_H", "cone_membership",
               "bm_extension_feasible", "hierarchy_feasible", "check_sarpd"],
    "counterfactuals": ["bound_functional", "kron_counterfactual_cone"],
    "cli": ["main"],
}

# Solver entry points, wrapped only at the module named, so each layer's own
# solver calls are counted apart.
SOLVERS = {
    "geometry": ["linprog"],
    "inference": ["nnls"],
    "checks": ["linprog", "nnls"],
    "counterfactuals": ["linprog"],
}

SPAN_NAMES = sorted(f"{m}.{f}" for table in (FUNCTIONS, SOLVERS)
                    for m, fs in table.items() for f in fs)


class Tracer:
    """Wraps the names above while installed; records spans into ``spans``.

    A span is ``[name, start, end, parent_index, op_id]`` with times from
    ``time.perf_counter``. ``op`` is the op id stamped on new spans.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._patches = []

    def install(self):
        if self._patches:
            return
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "drumtest" or name.startswith("drumtest.")]
        for mod_name, names in FUNCTIONS.items():
            home = importlib.import_module(f"drumtest.{mod_name}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fname}")
                    continue
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, f"{mod_name}.{fname}")
        for mod_name, names in SOLVERS.items():
            mod = importlib.import_module(f"drumtest.{mod_name}")
            for fname in names:
                if getattr(mod, fname, None) is None:
                    self.missing.append(f"{mod_name}.{fname}")
                else:
                    self._patch(mod, fname, f"{mod_name}.{fname}")

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _patch(self, mod, attr, span_name):
        original = getattr(mod, attr)
        spans, stack = self.spans, self._stack
        keyed = span_name == "geometry.compute_patches"

        def traced(*args, **kwargs):
            span = [span_name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.op]
            if keyed and args:
                span.append(_budget_key(args[0]))
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = original
        setattr(mod, attr, traced)
        self._patches.append((mod, attr, original))

    def summary(self, ops: set, n_units: int) -> dict:
        """Per-name {calls, ms, self_ms} summed over spans whose op id is in
        ``ops`` and divided by ``n_units``."""
        child_ms = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out = {name: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
        for k, (name, start, end, parent, op, *_) in enumerate(self.spans):
            if op not in ops:
                continue
            ms = (end - start) * 1e3
            row = out[name]
            row["calls"] += 1
            row["ms"] += ms
            row["self_ms"] += ms - child_ms[k]
        scale = 1.0 / max(n_units, 1)
        return {name: {k: v * scale for k, v in row.items()} for name, row in out.items()}

    def distinct_budget_sets_per_call(self, ops: set) -> float:
        """Distinct budget lists over compute_patches calls in ``ops``; 0 when
        there were no calls."""
        keys = [span[5] for span in self.spans
                if span[0] == "geometry.compute_patches" and span[4] in ops and len(span) > 5]
        return len(set(keys)) / len(keys) if keys else 0.0

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, *_ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _budget_key(budgets):
    """Hashable description of a budget list passed to compute_patches."""
    try:
        return tuple((tuple(b.prices), b.expenditure) for b in budgets)
    except (TypeError, AttributeError):
        return repr(budgets)
