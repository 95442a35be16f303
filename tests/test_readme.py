"""README's command-line examples and counts match what the package does, so
the documentation cannot drift from the code unnoticed."""

import re
import shlex
from pathlib import Path

import pytest

import entroplex
from entroplex import parse_inequality, parse_program, reductions, validity
from entroplex.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
# README runs its degscan examples on this relation without showing the file
FULL_BINARY_RELATION = "A,B\n0,0\n0,1\n1,0\n1,1\n"


def _sessions() -> dict[str, list[str]]:
    """Each `$ command` in README's fenced blocks, comment dropped, mapped to
    the lines README shows under it."""
    sessions: dict[str, list[str]] = {}
    output = None
    in_block = False
    for line in README.splitlines():
        if line.startswith("```"):
            in_block, output = not in_block, None
        elif in_block and line.startswith("$ "):
            output = sessions[line[2:].split("#", 1)[0].strip()] = []
        elif output is not None:
            output.append(line)
    return sessions


SESSIONS = _sessions()


def _cat(name: str) -> str:
    return "\n".join(SESSIONS[f"cat {name}"]) + "\n"


def _run(capsys, monkeypatch, tmp_path, command: str, files: dict[str, str]):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command)
    assert program == "entroplex"
    code = main(argv)
    return code, capsys.readouterr().out


def test_eval_example(capsys, monkeypatch, tmp_path):
    command = "entroplex eval im.ineq xor.csv"
    files = {"im.ineq": "Im(A,B,C) >= 0\n", "xor.csv": _cat("xor.csv")}
    assert SESSIONS[command] == ["-1.0"]
    assert _run(capsys, monkeypatch, tmp_path, command, files) == (0, "-1.0\n")


@pytest.mark.parametrize(
    "command, printed",
    [("entroplex degscan r.csv 'B|A'", "2"), ("entroplex degscan r.csv 'A,B'", "4")],
)
def test_degscan_examples(capsys, monkeypatch, tmp_path, command, printed):
    files = {"r.csv": FULL_BINARY_RELATION}
    assert SESSIONS[command] == [printed]
    assert _run(capsys, monkeypatch, tmp_path, command, files) == (0, printed + "\n")


@pytest.mark.parametrize(
    "command, file",
    [
        ("entroplex check mono.ineq --class polymatroid --certificate", "mono.ineq"),
        ("entroplex bound triangle.cons", "triangle.cons"),
    ],
)
def test_examples_whose_input_readme_shows(
    capsys, monkeypatch, tmp_path, command, file
):
    code, out = _run(capsys, monkeypatch, tmp_path, command, {file: _cat(file)})
    assert (code, out) == (0, "\n".join(SESSIONS[command]) + "\n")


def test_public_name_count():
    stated = re.search(r"`__all__`,\s+(\d+) of them", README)
    assert stated is not None
    assert int(stated.group(1)) == len(entroplex.__all__)


def test_inequality_term_forms_parse():
    """Each term README lists under "Inequality files" parses on its own, a
    leading sign reads as a coefficient of -1 or 1, and the header fixes
    the variable order."""
    block = README.split("## Inequality files", 1)[1].split("```", 2)[1]
    header, *lines = filter(None, (
        line.split("#", 1)[0].strip() for line in block.splitlines()
    ))
    assert parse_program(f"{header} h(Z) >= 0").universe.names == ("X", "Y", "Z")
    terms = [t for line in lines for t in re.split(r"\s{2,}", line)]
    assert "-h(Z)" in terms
    for term in terms:
        expr = parse_inequality(f"{term} >= 0")
        assert expr.terms
        if term[0] in "+-":
            assert expr == parse_inequality(f"{term[0]}1*{term[1:]} >= 0")
    assert parse_inequality("-h(Z) + h(X) >= 0") == parse_inequality("h(X) >= h(Z)")


def test_caps_rows_match_their_constants():
    """Every number in README's Caps table is the constant that enforces it."""
    table = README.split("## Caps", 1)[1].split("|---|---|\n", 1)[1]
    numbers = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        label, value = line.strip("|").split("|")
        numbers[label.strip()] = [
            int(x.replace(",", "")) for x in re.findall(r"\d[\d,]*", value)
        ]
    # the row's formula comes first, with the block width, then the budgets
    *formula, plane, work = numbers.pop("step checker's bitmaps")
    assert formula[-1] == validity._STEP_LOW
    assert (plane, work) == (validity.STEP_PLANE_BUDGET, validity.STEP_WORK_BUDGET)
    assert numbers == {
        "polymatroid checks and bounds": [validity.POLYMATROID_MAX_N],
        "SAT oracle": [reductions.SAT_ORACLE_MAX_VARS],
        "coloring oracle": [reductions.COLORING_ORACLE_MAX_VERTICES],
        "partition oracle": [
            reductions.PARTITION_ORACLE_MAX_ITEMS,
            reductions.PARTITION_ORACLE_MAX_SUM,
        ],
    }
