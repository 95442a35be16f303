"""The benchmark reaches the package by name: the tracer wraps functions by
module and attribute, and the workloads call `entroplex` attributes. Each of
those names must exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import entroplex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class is being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves():
    tracing = _load("tracing")
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"entroplex.{module}"), attr, None)
        assert callable(fn), f"entroplex.{module}.{attr}"


def test_every_name_the_workloads_read_resolves():
    workloads = _load("workloads")
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
