"""README's command-line examples and counts match what the package does, so
the documentation cannot drift from the code unnoticed."""

import re
import shlex
from pathlib import Path

import pytest

import entroplex
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
