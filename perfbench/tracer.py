"""In-memory spans around the calls into each ``qthresh`` module.

The benchmark never edits ``src/``.  Instead, a traced op process wraps the
public functions of each module and the evaluators' ``__call__``/``batch``
methods, and rebinds every name that refers to an original: ``from
.functions import materialize_table`` copies the name into ``evaluate`` and
``influence``, so patching ``qthresh.functions`` alone would miss their calls.
A name that a later version of the program drops is skipped, and its metrics
read 0.

A span is ``[name, start, end, parent, amount, repeat]``; ``amount`` is the
work one call did (cells, rows, samples, checks), taken from its result.
:func:`op_sums` turns the spans of one op into the per-layer sums.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _table_cells(args, result, f):
    # Only enumeration counts: a function that already has a table returns it.
    return int(result.size) if getattr(f, "table", None) is None else 0


def _rows(args, result, f):
    return int(len(result))


def _size(args, result, f):
    return int(result.size)


def _samples(args, result, f):
    return int(result.samples)


def _checks(args, result, f):
    return int(sum(r.checks for r in result))


# (module, public name, amount taken from the result)
FUNCTIONS = [
    ("functions", "parse_function_file", None),
    ("functions", "build_tribes", None),
    ("functions", "indicator", None),
    ("functions", "materialize_table", _table_cells),
    ("functions", "evaluate_batch", _rows),
    ("functions", "tribe_size_counts", None),
    ("measures", "mix_t", None),
    ("measures", "mix_st", None),
    ("measures", "sample_uniform", None),
    ("measures", "sample_uniform_batch", None),
    ("evaluate", "product_weights", _size),
    ("evaluate", "exact_probability", None),
    ("evaluate", "mc_probability", _samples),
    ("evaluate", "tribes_prob_zero", None),
    ("evaluate", "variance_of_indicator", None),
    ("influence", "influence_bkkkl", None),
    ("influence", "influence_variance", None),
    ("influence", "influence_h", None),
    ("influence", "phi_k", None),
    ("influence", "influence_profile", None),
    ("influence", "keller_diagnostic", None),
    ("threshold", "rm_derivative_exact", None),
    ("threshold", "derivative_lower_bound_ratio", None),
    ("threshold", "line_width", None),
    ("threshold", "region_measure", None),
    ("threshold", "sweep_scaling", None),
    ("verification", "run_suites", _checks),
]

EVALUATORS = ["ExactEvaluator", "ClosedFormEvaluator", "MonteCarloEvaluator"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._materialized: set = set()

    def wrap(self, name: str, fn, amount=None):
        spans, stack = self.spans, self._stack
        params = list(inspect.signature(fn).parameters)
        f_pos = params.index("f") if "f" in params else None
        is_materialize = name == "functions.materialize_table"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if amount is not None:
                f = kwargs.get("f", args[f_pos] if f_pos is not None and f_pos < len(args) else None)
                span[4] = amount(args, result, f)
                if is_materialize and span[4]:
                    span[5] = int(self._seen(f))
            return result

        return traced

    def _seen(self, f) -> bool:
        key = (f.q, f.n, f.kind, getattr(f, "family", None), getattr(f, "indicator_of", None))
        try:
            seen = key in self._materialized
            self._materialized.add(key)
        except TypeError:
            return False
        return seen

    def install(self) -> None:
        """Wrap every traced name in all loaded ``qthresh`` modules."""
        modules = [m for k, m in sys.modules.items() if k == "qthresh" or k.startswith("qthresh.")]
        for layer, attr, amount in FUNCTIONS:
            home = sys.modules.get(f"qthresh.{layer}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            traced = self.wrap(f"{layer}.{attr}", original, amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        evaluate = sys.modules["qthresh.evaluate"]
        for cls_name in EVALUATORS:
            cls = getattr(evaluate, cls_name, None)
            for meth in ("__call__", "batch"):
                if cls is not None and meth in vars(cls):
                    amount = _rows if meth == "batch" else None
                    setattr(cls, meth, self.wrap(f"evaluate.{cls_name}.{meth}", vars(cls)[meth], amount))


# ---------------------------------------------------------------------------
# Per-layer sums of one op's spans


def _names(layer_prefix: str) -> set[str]:
    return {f"{layer}.{attr}" for layer, attr, _ in FUNCTIONS if f"{layer}.{attr}".startswith(layer_prefix)}


PROBES = {f"evaluate.{c}.__call__" for c in EVALUATORS}
CLOSED = {"evaluate.ClosedFormEvaluator.__call__", "evaluate.ClosedFormEvaluator.batch"}
MIX = {"measures.mix_t", "measures.mix_st"}
MATERIALIZE = "functions.materialize_table"

# Inclusive time: spans of the set with no ancestor in the same set.
INCLUSIVE = {
    "functions.materialize_s": {MATERIALIZE},
    "functions.parse_s": {"functions.parse_function_file"},
    "functions.evaluate_batch_s": {"functions.evaluate_batch"},
    "measures.mix_s": MIX,
    "measures.sample_s": {"measures.sample_uniform", "measures.sample_uniform_batch"},
    "evaluate.exact_s": {"evaluate.exact_probability"},
    "evaluate.mc_s": {"evaluate.mc_probability"},
    "evaluate.closed_s": CLOSED,
    "evaluate.tribe_size_counts_s": {"functions.tribe_size_counts"},
    "influence.s": _names("influence."),
    "threshold.rm_derivative_s": {"threshold.rm_derivative_exact"},
    "threshold.sweep_s": {"threshold.sweep_scaling"},
    "verification.s": {"verification.run_suites"},
}
# Self time: span duration minus the time its child spans cover.
SELF = {
    "evaluate.exact_self_s": "evaluate.exact_probability",
    "evaluate.mc_sampling_s": "evaluate.mc_probability",
    "threshold.line_width_self_s": "threshold.line_width",
    "cli.self_s": "cli.main",
}
COUNTS = {
    "measures.mix_calls": MIX,
    "evaluate.probes": PROBES,
    "influence.coord_calls": {
        "influence.influence_bkkkl", "influence.influence_variance", "influence.influence_h", "influence.phi_k",
    },
    "threshold.line_width_calls": {"threshold.line_width"},
}
AMOUNTS = {
    "functions.materialize_cells": MATERIALIZE,
    "functions.evaluate_batch_rows": "functions.evaluate_batch",
    "evaluate.product_weights_cells": "evaluate.product_weights",
    "evaluate.mc_samples": "evaluate.mc_probability",
    "evaluate.closed_rows": "evaluate.ClosedFormEvaluator.batch",
    "verification.checks": "verification.run_suites",
}
# Ratios of two per-pass sums; 0 when the denominator is 0.
RATIOS = {
    "functions.materialize_repeat_ratio": ("functions.materialize_repeats", "functions.materialize_calls"),
    "threshold.probes_per_width": ("threshold.width_probes", "threshold.line_width_calls"),
}
TIMES = {*INCLUSIVE, *SELF, "cli.import_s"}
# Every per-layer metric.  The benchmark adds cli.import_s and cli.output_bytes
# from the op process, and trace.overhead_s from the pass times.
METRICS = sorted(TIMES | {*COUNTS, *AMOUNTS, *RATIOS}
                 | {"functions.materialize_calls", "threshold.region_scalar_probes", "cli.output_bytes"})


def unit(name: str) -> str:
    if name in TIMES:
        return "s"
    return "ratio" if name in RATIOS else "bytes" if name == "cli.output_bytes" else "count"


def op_sums(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def has_ancestor(i: int, names) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    for i, (name, start, end, _, amount, repeat) in enumerate(spans):
        dur = end - start
        for metric, names in INCLUSIVE.items():
            if name in names and not has_ancestor(i, names):
                out[metric] += dur
        for metric, target in SELF.items():
            if name == target:
                out[metric] += dur - child_time[i]
        for metric, names in COUNTS.items():
            if name in names:
                out[metric] += 1
        for metric, target in AMOUNTS.items():
            if name == target:
                out[metric] += amount
        if name == MATERIALIZE and amount:
            out["functions.materialize_calls"] += 1
            out["functions.materialize_repeats"] += repeat
        if name == "evaluate.exact_probability":
            out["evaluate.exact_probability_calls"] += 1
        if name in PROBES:
            if has_ancestor(i, {"threshold.line_width"}):
                out["threshold.width_probes"] += 1
            if has_ancestor(i, {"threshold.region_measure"}):
                out["threshold.region_scalar_probes"] += 1
    return out
