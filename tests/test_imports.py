"""`import entroplex` loads no submodule, each CLI subcommand loads only the
modules it uses (never `dataclasses` or `inspect`), and the public names are
those of their home modules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entroplex
from entroplex import core, dsl, validity
from helpers import load_bench

SRC = Path(entroplex.__file__).resolve().parent.parent

# Runs the code in argv[1], then prints the modules it loaded.
_LOADED = """
import json, sys
before = set(sys.modules)
exec(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Runs cli.main on each argument list in argv[2], output discarded.
_CLI_CALLS = """
import contextlib, io, json, sys
from entroplex.cli import main
for args in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        main(args)
"""

# subcommand: modules no call of it may load
_NEVER_LOADED = {
    "check": {"bounds", "reductions"},
    "bound": {"reductions", "dsl"},
    "reduce": {"bounds", "validity", "lp"},
    "eval": {"bounds", "validity", "lp"},
    "degscan": {"reductions", "dsl", "bounds", "validity", "lp"},
}

# Standard modules no subcommand may load: importing them costs several
# milliseconds of every CLI call's start-up.
_STDLIB_NEVER_LOADED = {"dataclasses", "inspect"}


def _loaded_after(code: str, cwd: Path, *argv: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, code, *argv], cwd=cwd,
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _submodules(loaded: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in loaded if name.startswith("entroplex.")}


def test_import_loads_no_submodule(tmp_path):
    assert _submodules(_loaded_after("import entroplex", tmp_path)) == set()


def _bench_cli_calls() -> dict[str, list[list[str]]]:
    workloads = load_bench("workloads")
    calls: dict[str, list[list[str]]] = {}
    for args, _ in workloads.CLI_CORPUS:
        calls.setdefault(args[0], []).append(args)
    return calls


def test_bench_corpus_covers_every_subcommand():
    assert set(_bench_cli_calls()) == set(_NEVER_LOADED)


@pytest.mark.parametrize("command", sorted(_NEVER_LOADED))
def test_subcommand_loads_only_what_it_uses(command, tmp_path):
    for name, text in load_bench("workloads").CLI_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    calls = _bench_cli_calls()[command]
    loaded = _loaded_after(_CLI_CALLS, tmp_path, json.dumps(calls))
    submodules = _submodules(loaded)
    assert {"cli", "core"} <= submodules
    assert not submodules & _NEVER_LOADED[command], sorted(submodules)
    assert not loaded & _STDLIB_NEVER_LOADED, sorted(loaded & _STDLIB_NEVER_LOADED)


@pytest.mark.parametrize("args", [
    ["check", "worked.ineq", "--class", "monotone"],
    ["check", "im.ineq", "--class", "step"],
])
def test_check_with_no_lp_loads_no_lp(args, tmp_path):
    """A verdict that solves no LP does not load the LP module."""
    for name, text in load_bench("workloads").CLI_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    submodules = _submodules(_loaded_after(_CLI_CALLS, tmp_path, json.dumps([args])))
    assert "validity" in submodules and "lp" not in submodules, sorted(submodules)


def test_public_names_are_their_home_modules_objects():
    assert len(entroplex.__all__) == 82
    assert entroplex.__all__ == sorted(set(entroplex.__all__))
    for module, names in entroplex._EXPORTS.items():
        home = importlib.import_module(f"entroplex.{module}")
        for name in names:
            assert getattr(entroplex, name) is getattr(home, name), name
            assert name in vars(entroplex), f"{name} is not cached"
    assert set(entroplex.__all__) == {
        name for names in entroplex._EXPORTS.values() for name in names
    }


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from entroplex import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(entroplex.__all__)
    assert all(namespace[name] is getattr(entroplex, name) for name in namespace)


def test_dir_lists_the_public_names():
    listed = dir(entroplex)
    assert "__all__" in listed
    assert set(entroplex.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entroplex.no_such_name
    assert not hasattr(entroplex, "no_such_name")


def test_moved_exceptions_keep_their_identity():
    assert core.DslError is dsl.DslError is entroplex.DslError
    assert (core.UnsupportedSemantics is validity.UnsupportedSemantics
            is entroplex.UnsupportedSemantics)
