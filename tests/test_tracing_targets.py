"""The benchmark reaches the package by name: the tracer wraps functions by
module and attribute, and the workloads call `entroplex` attributes. Each of
those names must exist, and the wrappers must sit where the calls go."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entroplex
from helpers import BENCH, load_bench


def test_every_traced_function_resolves():
    tracing = load_bench("tracing")
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"entroplex.{module}"), attr, None)
        assert callable(fn), f"entroplex.{module}.{attr}"


def test_every_name_the_workloads_read_resolves():
    workloads = load_bench("workloads")
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "ex"
    }
    assert {"check", "check_step", "sat_oracle"} <= read
    looked_up = set(workloads._SYSTEM_METHODS)
    looked_up |= {gen for _, _, gen in workloads._STEP_FAMILIES.values()}
    assert looked_up
    for name in sorted(read | looked_up):
        assert hasattr(entroplex, name), f"entroplex.{name}"


# A fresh process does what `bench/run.py --trace 1` does before it traces:
# the workload's warm-up, then `Tracer.install()`, which wraps only the
# entroplex modules loaded by then. It then runs the named items of the first
# seeded round and prints each span as (name, parent name, item kind), the
# tracer's counters and each item's check result.
_TRACE_CHILD = """
import json, random, sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer
from workloads import WORKLOADS

workload = WORKLOADS[sys.argv[3]]
workload.warmup()
tracer = Tracer()
tracer.install()
items = next(workload.rounds(random.Random(1), None))
problems = {}
for kind in json.loads(sys.argv[4]):
    item = next(it for it in items if it.kind == kind)
    problems[kind] = item.check(tracer.run_item(kind, item.span, item.run))
names = [span[0] for span in tracer.spans]
print(json.dumps({
    "spans": [[name, names[parent] if parent >= 0 else None, item]
              for name, _, _, parent, item in tracer.spans],
    "counters": tracer.counters,
    "problems": problems,
}))
"""

# workload: {item kind: (span, parent span) pairs the item must record}
_TRACED_ITEMS = {
    "sweep3-auto": {
        "check(auto) per-class": {
            ("dsl.parse_inequality", "item"),
            ("validity.check", "item"),
            ("validity.check_modular", "validity.check"),
        },
    },
    "cone-lp": {
        "logbound_polymatroid_dual cyclic n=4": {
            ("bounds.logbound_polymatroid_dual", "item"),
            ("lp.solve", "bounds.logbound_polymatroid_dual"),
        },
        "logbound_simple_entropic simple n=2": {
            ("bounds.logbound_simple_entropic", "item"),
            ("lp.solve", "bounds.logbound_simple_entropic"),
        },
    },
    "step-hard": {
        "partition unsat n=14": {
            ("reductions.generate", "item"),
            ("validity.check_step", "item"),
        },
    },
}


@pytest.mark.parametrize("workload", sorted(_TRACED_ITEMS))
def test_tracer_sees_the_calls_of_each_in_process_workload(workload):
    expected = _TRACED_ITEMS[workload]
    src = Path(entroplex.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_CHILD, str(BENCH), str(src), workload,
         json.dumps(sorted(expected))],
        capture_output=True, text=True, timeout=300,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["problems"] == {kind: None for kind in expected}
    for kind, pairs in expected.items():
        seen = {(name, parent) for name, parent, item in doc["spans"]
                if item == kind}
        assert pairs <= seen, f"{kind}: missing {pairs - seen}"
    if workload == "step-hard":
        assert doc["counters"]["reductions.terms"] > 0
