"""Span tracing of entroplex from outside the package.

Each traced layer is one module of ``src/entroplex``. Its public functions are
replaced by timing wrappers in every ``entroplex`` module namespace that holds
them, so calls from inside the package (``validity.solve``, ``bounds.solve``,
``validity.lp_feasible`` and so on) are seen as well as calls from the
benchmark. Spans are recorded only while an item is open, so the benchmark's
own correctness checks never show up in the counts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name). Several functions may share a span name.
TARGETS = (
    ("dsl", "parse_inequality", "dsl.parse_inequality"),
    ("core", "make_expr", "core.make_expr"),
    ("core", "set_representation", "core.set_representation"),
    ("core", "evaluate", "core.evaluate"),
    ("functions", "step_function", "functions.step_function"),
    ("validity", "check", "validity.check"),
    ("validity", "check_modular", "validity.check_modular"),
    ("validity", "check_step", "validity.check_step"),
    ("validity", "check_monotone_fixpoint", "validity.check_monotone_fixpoint"),
    ("validity", "check_monotone_lp", "validity.check_monotone_lp"),
    ("validity", "check_polymatroid", "validity.check_polymatroid"),
    ("validity", "check_simple_sigma", "validity.check_simple_sigma"),
    ("validity", "a_reduction", "validity.a_reduction"),
    ("lp", "solve", "lp.solve"),
    ("lp", "feasible", "lp.feasible"),
    ("bounds", "logbound_polymatroid_dual", "bounds.logbound_polymatroid_dual"),
    ("bounds", "logbound_simple_entropic", "bounds.logbound_simple_entropic"),
    ("bounds", "logbound_step", "bounds.logbound_step"),
    ("bounds", "logbound_modular", "bounds.logbound_modular"),
    ("reductions", "from_3dmonsat", "reductions.generate"),
    ("reductions", "from_3coloring", "reductions.generate"),
    ("reductions", "from_partition", "reductions.generate"),
)

CALLS = (
    "dsl.parse_inequality",
    "functions.step_function",
    "validity.check",
    "validity.check_modular",
    "validity.check_step",
    "validity.check_monotone_fixpoint",
    "validity.check_monotone_lp",
    "validity.check_polymatroid",
    "validity.check_simple_sigma",
    "validity.a_reduction",
    "lp.solve",
    "lp.feasible",
)
SELF_TIMES = CALLS + (
    "core.make_expr",
    "core.set_representation",
    "core.evaluate",
    "bounds.logbound_polymatroid_dual",
    "bounds.logbound_simple_entropic",
    "bounds.logbound_step",
    "bounds.logbound_modular",
    "reductions.generate",
)
COUNTERS = ("lp.solve.pivots", "lp.solve.rows", "lp.solve.cols", "lp.solve.nnz",
            "reductions.terms")


def _count_lp(tracer: "Tracer", args: tuple, result) -> None:
    program = args[0]
    tracer.counters["lp.solve.pivots"] += result.pivots
    tracer.counters["lp.solve.rows"] += len(program.rows)
    tracer.counters["lp.solve.cols"] += program.n_vars
    tracer.counters["lp.solve.nnz"] += sum(len(row) for row, _, _ in program.rows)


def _count_terms(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["reductions.terms"] += len(result.terms)


ON_RETURN = {"lp.solve": _count_lp, "reductions.generate": _count_terms}


class Tracer:
    """In-memory spans: (name, start, end, parent index, item id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.item = None
        self.counters: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        on_return = ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            if on_return is not None:
                on_return(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _span(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def install(self) -> None:
        """Replace every target in every loaded entroplex module namespace."""
        importlib.import_module("entroplex.cli")
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "entroplex" or name.startswith("entroplex.")
        ]
        for module_name, attr, span_name in TARGETS:
            fn = getattr(importlib.import_module(f"entroplex.{module_name}"), attr)
            wrapped = self._wrap(span_name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def run_item(self, item_id: str, name: str, fn):
        """Run fn inside a root span for one benchmark item."""
        self.item = item_id
        try:
            return self._span(name, fn, (), {})
        finally:
            self.item = None

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
            calls[name] += 1
        return totals, calls

    def polymatroid_calls_by_item(self) -> dict:
        out: dict = defaultdict(int)
        for name, _, _, _, item in self.spans:
            if name == "validity.check_polymatroid":
                out[item] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write('{"fields": ["name", "start", "end", "parent", "item"],\n')
            out.write(' "spans": [\n')
            for i, span in enumerate(self.spans):
                sep = ",\n" if i + 1 < len(self.spans) else "\n"
                out.write("  " + json.dumps(span) + sep)
            out.write("]}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named by BENCHMARK.json, from spans and counters."""
    totals, calls = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (totals.get(name, 0.0), "s")
    for name in COUNTERS:
        metrics[name] = (tracer.counters.get(name, 0), "count")
    pivots = tracer.counters.get("lp.solve.pivots", 0)
    solve_s = totals.get("lp.solve", 0.0)
    metrics["lp.solve.s_per_pivot"] = (solve_s / pivots if pivots else 0.0, "s")
    return metrics
