"""Span tracer installed from outside npivband around its public functions.

Each wrapped call records a span (name, start, end, parent) in memory. A
span's self time is its duration minus the durations of its direct children;
runs are single-threaded, so children never overlap. Wrappers replace every
binding of the original function in the loaded npivband modules, which also
catches names imported with ``from .module import name``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _varfield_bytes(args, result) -> int:
    field = args[0]
    return sum(field.influence[j].nbytes + field.scores[j].nbytes for j in field.j_values)


def _result_bytes(args, result) -> int:
    return int(result.nbytes)


#: (module, attribute, metric prefix, bytes counter); a class attribute is "Class.method".
TARGETS = (
    ("npivband.basis", "design_matrix", "basis.design_matrix", None),
    ("npivband.estimator", "fit", "estimator.fit", None),
    ("npivband.estimator", "influence_rows", "estimator.influence_rows", None),
    ("npivband.estimator", "VarianceField.__init__", "estimator.VarianceField", _varfield_bytes),
    ("npivband.estimator", "VarianceField.scaled_contrast_rows", "estimator.scaled_contrast_rows", _result_bytes),
    ("npivband.bootstrap", "draw_multipliers", "bootstrap.draw_multipliers", None),
    ("npivband.bootstrap", "sup_t_contrast", "bootstrap.sup_t_contrast", None),
    ("npivband.bootstrap", "sup_t_single", "bootstrap.sup_t_single", None),
    ("npivband.bootstrap", "quantile", "bootstrap.quantile", None),
    ("npivband.adaptive", "run_selection", "adaptive.run_selection", None),
    ("npivband.ucb", "band_deriv", "ucb.band_deriv", None),
    ("npivband.ucb", "band_undersmoothed", "ucb.band_undersmoothed", None),
    ("npivband.ucb", "band_robustness", "ucb.band_robustness", None),
    ("npivband.extensions", "fit_additive", "extensions.fit_additive", None),
    ("npivband.extensions", "fit_partially_linear", "extensions.fit_partially_linear", None),
    ("npivband.extensions", "component_band", "extensions.component_band", None),
    ("npivband.simgen", "generate", "simgen.generate", None),
    ("npivband.simgen", "run_mc", "simgen.run_mc", None),
    ("npivband.cli", "main", "cli.main", None),
)

#: Per-layer metric names in the order BENCHMARK.json lists them.
METRICS = (
    "basis.design_matrix.calls", "basis.design_matrix.s",
    "estimator.fit.calls", "estimator.fit.s", "estimator.influence_rows.s",
    "estimator.VarianceField.s", "estimator.VarianceField.bytes",
    "estimator.scaled_contrast_rows.s", "estimator.scaled_contrast_rows.bytes",
    "bootstrap.draw_multipliers.calls", "bootstrap.draw_multipliers.s",
    "bootstrap.sup_t_contrast.calls", "bootstrap.sup_t_contrast.s",
    "bootstrap.sup_t_single.calls", "bootstrap.sup_t_single.s",
    "bootstrap.quantile.s",
    "adaptive.run_selection.s",
    "ucb.band_deriv.calls", "ucb.band_deriv.s",
    "ucb.band_undersmoothed.calls", "ucb.band_undersmoothed.s",
    "ucb.band_robustness.s",
    "extensions.fit_additive.s", "extensions.fit_partially_linear.s", "extensions.component_band.s",
    "simgen.generate.s", "simgen.run_mc.s", "cli.main.s",
)

UNITS = {"calls": "count", "s": "s", "bytes": "bytes"}


class Tracer:
    def __init__(self) -> None:
        # Span i is (name, start, end, parent index or -1, bytes).
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count_bytes=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0)
            if count_bytes is not None:
                spans[idx] = (name, start, end, parent, count_bytes(args, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets npivband no longer has."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "npivband" and m is not None]
        missing = []
        for module_name, attr, name, count_bytes in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or not hasattr(cls, method):
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, method, self.wrap(name, getattr(cls, method), count_bytes))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(name, original, count_bytes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        return missing

    def summary(self, n_ops: int, counted_spans: int, counted_ops: int) -> dict[str, float]:
        """Per-operation metrics by name.

        Self seconds average over all ``n_ops`` operations. Calls and bytes
        average over the first ``counted_ops`` operations, whose spans are
        the first ``counted_spans``: a fixed set of seeded operations, so the
        counts repeat exactly for a seed however long the run.
        """
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, nbytes) in enumerate(self.spans):
            seconds[f"{name}.s"] += (end - start) - child_time[i]
            if i < counted_spans:
                counts[f"{name}.calls"] += 1
                counts[f"{name}.bytes"] += nbytes
        out = {}
        for metric in METRICS:
            if metric.endswith(".s"):
                out[metric] = seconds.get(metric, 0.0) / n_ops
            else:
                out[metric] = counts.get(metric, 0.0) / counted_ops
        return out


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Seconds one traced call adds to a call of an empty function."""
    def empty():
        return None

    traced = Tracer().wrap("empty", empty)
    start = time.perf_counter()
    for _ in range(calls):
        empty()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - plain, 0.0) / calls
