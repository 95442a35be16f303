"""Command-line behavior: exit codes, output shapes, JSON schema."""

import json

import pytest

from entroplex.cli import main

WORKED = "h(X,Y) + h(Y,Z) + 2*h(X,Z) + h(X) >= h(Y) + 3*h(Z)\n"
SUBMOD = "h(X,Y) + h(X,Z) >= h(X) + h(X,Y,Z)\n"
TRIANGLE = (
    "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
    "card R1 <= 2\ncard R2 <= 2\ncard R3 <= 2\n"
)
XOR_CSV = "A,B,C,prob\n0,0,0,1/4\n0,1,1,1/4\n1,0,1,1/4\n1,1,0,1/4\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def worked(tmp_path):
    path = tmp_path / "worked.ineq"
    path.write_text(WORKED)
    return str(path)


@pytest.fixture
def submod(tmp_path):
    path = tmp_path / "submod.ineq"
    path.write_text(SUBMOD)
    return str(path)


def test_check_valid_exit_zero(capsys, worked):
    code, out, _ = run(capsys, "check", worked)
    assert code == 0
    assert out.startswith("Valid over ")


def test_check_invalid_exit_one(capsys, submod):
    code, out, _ = run(capsys, "check", submod, "--class", "monotone", "--witness")
    assert code == 1
    assert "Invalid over monotone" in out
    assert "{X,Y,Z}: 1" in out


def test_check_witness_with_coprime_denominators(capsys, tmp_path):
    path = tmp_path / "big6.ineq"
    path.write_text(
        "vars A,B,C,D,E,F;\n"
        "1/99991*h(A,B) + 1/99989*h(A,C) >= 1/7*h(A) + 1/99961*h(A,B,C,D,E,F)\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--class", "monotone",
                       "--witness")
    assert code == 1
    assert out.splitlines()[:3] == [
        "Invalid over monotone",
        "witness: monotone 0/1 function, upward closure of {A}",
        "  {A}: 1",
    ]
    code, out, _ = run(capsys, "check", str(path), "--class", "monotone",
                       "--witness", "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["witness"]["generators"] == ["{A}"]
    assert doc["provenance"]["method"] == "fixpoint"


def test_check_certificate_lines(capsys, worked):
    code, out, _ = run(capsys, "check", worked, "--class", "monotone",
                       "--certificate")
    assert code == 0
    assert "1 * Mono({X,Y} >= {Y})" in out
    assert "2 * Mono({X,Z} >= {Z})" in out
    assert "1 * NonNeg({X})" in out


def test_check_json(capsys, worked):
    code, out, _ = run(capsys, "check", worked, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["valid"] is True
    assert "entropic" in doc["classes"]
    assert "method" in doc["provenance"]


def test_check_json_witness(capsys, submod):
    code, out, _ = run(capsys, "check", submod, "--class", "monotone",
                       "--witness", "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["witness"]["kind"] == "boolean_monotone"
    assert doc["witness"]["nonzero"] == {"{X,Y,Z}": "1"}


def test_check_composite_lists_classes(capsys, tmp_path):
    path = tmp_path / "c.ineq"
    path.write_text("h(X,Y) + h(Y,Z) >= h(Y) + h(X,Z)\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "monotone: Invalid" in out
    assert "polymatroid: Valid" in out


def test_check_auto_invalid_carries_witness(capsys, tmp_path):
    path = tmp_path / "mixed.ineq"
    path.write_text("vars X,Y,Z;\nh(X) + h(Y) >= h(X,Y)\n")
    code, out, _ = run(capsys, "check", str(path), "--witness", "--certificate")
    assert code == 1
    assert out == (
        "Invalid over modular, step, polymatroid, monotone\n"
        "  modular: Valid\n"
        "  step: Valid\n"
        "  polymatroid: Valid\n"
        "  monotone: Invalid\n"
        "certificate: none recorded\n"
        "witness: monotone 0/1 function, upward closure of {X,Y}\n"
        "  {X,Y}: 1\n"
        "  {X,Y,Z}: 1\n"
    )
    # The first Invalid class in chain order supplies the witness.
    path.write_text("h(C) + 2*h(A,B,C) >= 2*h(A) + 2*h(B,C)\n")
    code, out, _ = run(capsys, "check", str(path), "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["witness"]["kind"] == "step"
    assert doc["witness"]["step_set"] == "{A,B}"
    assert {k: v["method"] for k, v in doc["per_class"].items()} == {
        "modular": "modular", "step": "step-enumeration",
        "polymatroid": "implied-by-step", "monotone": "fixpoint",
    }


def test_check_auto_valid_carries_certificate(capsys, tmp_path):
    path = tmp_path / "mono.ineq"
    path.write_text("2*h(A,B,C,D) >= h(A,B) + h(C,D)\n")
    code, out, _ = run(capsys, "check", str(path), "--certificate")
    assert code == 0
    assert out == (
        "Valid over modular, step, polymatroid, monotone\n"
        "  modular: Valid\n"
        "  step: Valid\n"
        "  polymatroid: Valid\n"
        "  monotone: Valid\n"
        "certificate:\n"
        "  1 * Mono({A,B,C,D} >= {A,B})\n"
        "  1 * Mono({A,B,C,D} >= {C,D})\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--json", "--certificate")
    doc = json.loads(out)
    assert code == 0
    assert "witness" not in doc
    assert doc["certificate"] == [
        "1 * Mono({A,B,C,D} >= {A,B})", "1 * Mono({A,B,C,D} >= {C,D})",
    ]
    assert {k: v["method"] for k, v in doc["per_class"].items()} == {
        "modular": "modular", "step": "implied-by-monotone",
        "polymatroid": "implied-by-monotone", "monotone": "fixpoint",
    }


def test_check_auto_above_polymatroid_cap(capsys, tmp_path):
    header = "vars A,B,C,D,E,F,G,H,I,J,K;\n"
    path = tmp_path / "big.ineq"
    cases = [
        ("h(A,B) >= 2*h(A,C)", 1, [False] * 4),
        ("h(C) + 2*h(A,B,C) >= 2*h(A) + 2*h(B,C)", 1,
         [True, False, False, False]),
        ("2*h(A,B,C,D) >= h(A,B) + h(C,D)", 0, [True] * 4),
    ]
    for text, want_code, valid in cases:
        path.write_text(header + text + "\n")
        code, out, err = run(capsys, "check", str(path), "--json")
        doc = json.loads(out)
        assert (code, err) == (want_code, "")
        assert [v["valid"] for v in doc["per_class"].values()] == valid
        assert ("witness" in doc) == (want_code == 1)
    path.write_text(header + "h(A,C) + h(B,C) >= h(A,B,C) + h(C)\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "error: polymatroid check capped at n <= 10\n"
    code, out, err = run(capsys, "check", str(path), "--class", "polymatroid")
    assert (code, out) == (2, "")
    assert err == "error: polymatroid check capped at n <= 10\n"


def test_check_polymatroid_above_cap_settled_by_chain(capsys, tmp_path):
    path = tmp_path / "big.ineq"
    path.write_text("vars A,B,C,D,E,F,G,H,I,J,K;\nh(A,B) >= 2*h(A,C)\n")
    code, out, err = run(capsys, "check", str(path), "--class", "polymatroid",
                         "--json", "--witness")
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["provenance"] == {"method": "implied-by-modular"}
    assert doc["witness"]["kind"] == "basic_modular"


def test_check_auto_past_old_scaling_cap(capsys, tmp_path):
    big = 10 ** 19
    path = tmp_path / "huge.ineq"
    path.write_text(
        "vars A,B,C,D;\n"
        f"{big}*h(A,B,C) + {big}*h(A,B,D) >= {big}*h(A,B,C,D) + {big}*h(A,B)\n"
    )
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (1, "")
    assert out == (
        "Invalid over modular, step, polymatroid, monotone\n"
        "  modular: Valid\n"
        "  step: Valid\n"
        "  polymatroid: Valid\n"
        "  monotone: Invalid\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--json", "--witness")
    doc = json.loads(out)
    assert code == 1
    assert [v["valid"] for v in doc["per_class"].values()] == [
        True, True, True, False,
    ]
    assert doc["witness"]["kind"] == "boolean_monotone"


def test_check_polymatroid_class_walks_the_chain(capsys, tmp_path, submod):
    path = tmp_path / "step.ineq"
    path.write_text("h(C) + 2*h(A,B,C) >= 2*h(A) + 2*h(B,C)\n")
    code, out, _ = run(capsys, "check", str(path), "--class", "polymatroid",
                       "--json", "--witness")
    doc = json.loads(out)
    assert code == 1
    assert doc["classes"] == ["polymatroid"]
    assert doc["provenance"] == {"method": "implied-by-step"}
    assert doc["witness"]["kind"] == "step"
    assert doc["witness"]["step_set"] == "{A,B}"

    code, out, _ = run(capsys, "check", submod, "--class", "polymatroid",
                       "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["provenance"] == {"method": "cone-lp", "lp_rows": 10,
                                 "lp_cols": 7}

    path = tmp_path / "mono.ineq"
    path.write_text("2*h(A,B,C,D) + h(A) >= h(A,B) + h(C,D)\n")
    code, out, _ = run(capsys, "check", str(path), "--class", "polymatroid",
                       "--json", "--certificate")
    doc = json.loads(out)
    assert code == 0
    assert doc["provenance"] == {"method": "implied-by-monotone"}
    assert doc["certificate"] == [
        "1 * Mono({A,B,C,D} >= {A,B})", "1 * Mono({A,B,C,D} >= {C,D})",
        "1 * NonNeg({A})",
    ]
    code, out, _ = run(capsys, "check", str(path), "--class", "polymatroid",
                       "--certificate")
    assert code == 0
    assert out == (
        "Valid over polymatroid\n"
        "certificate:\n"
        "  1 * Mono({A,B,C,D} >= {A,B})\n"
        "  1 * Mono({A,B,C,D} >= {C,D})\n"
        "  1 * NonNeg({A})\n"
    )

    # coefficients of 10^19: the step check answers, then the cone LP
    big = 10 ** 19
    path.write_text(f"{big}*h(A) + {big}*h(B) >= {big}*h(A,B)\n")
    code, out, err = run(capsys, "check", str(path), "--class", "polymatroid",
                         "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["provenance"] == {"method": "cone-lp",
                                             "lp_rows": 4, "lp_cols": 3}


def test_bound_triangle(capsys, tmp_path):
    path = tmp_path / "t.cst"
    path.write_text(TRIANGLE)
    for method in ("auto", "simple", "step", "polymatroid", "modular"):
        code, out, _ = run(capsys, "bound", str(path), "--method", method)
        assert code == 0
        assert "log-bound: 3/2" in out
    code, out, _ = run(capsys, "bound", str(path), "--json")
    doc = json.loads(out)
    assert doc["value"] == "3/2"
    assert doc["value_float"] == 1.5
    assert doc["weights"] == ["1/2", "1/2", "1/2"]


def test_bound_simple_method_rejects_non_simple(capsys, tmp_path):
    path = tmp_path / "fat.cst"
    path.write_text("query Q(A,B,C) = R1(A,B,C)\nlogdeg R1 (C | A,B) <= 1\n")
    code, out, err = run(capsys, "bound", str(path), "--method", "simple")
    assert (code, out) == (2, "")
    assert err == "error: entropic bound requires conditions of size <= 1\n"


def test_bound_unbounded(capsys, tmp_path):
    path = tmp_path / "u.cst"
    path.write_text("query Q(A,B) = R1(A,B)\nlogdeg R1 (A) <= 1\n")
    code, out, _ = run(capsys, "bound", str(path))
    assert code == 0
    assert "log-bound: inf" in out
    code, out, _ = run(capsys, "bound", str(path), "--json")
    assert json.loads(out)["value"] == "inf"


def test_bound_past_float_range(capsys, tmp_path):
    """A finite bound of 1024 bits or more prints inf for its display-only
    floats and keeps its exact value."""
    path = tmp_path / "big.cst"
    path.write_text("query Q(A) = R(A)\ncard R <= 2^1100\n")
    code, out, _ = run(capsys, "bound", str(path))
    assert code == 0
    assert "log-bound: 1100" in out
    assert "2^value: inf" in out
    code, out, _ = run(capsys, "bound", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1100"
    assert doc["value_float"] == 1100.0
    assert doc["linear_value"] == float("inf")


def test_bound_auto_warns_on_hard_shape(capsys, tmp_path):
    path = tmp_path / "hard.cst"
    path.write_text(
        "query Q(A,B,C) = R1(A,B), R2(B,C), R4(A,B,C)\n"
        "logdeg R1 (B | A) <= 1\n"
        "logdeg R2 (C | B) <= 1\n"
        "logdeg R1 (A,B) <= 2\n"
        "logdeg R4 (A | B,C) <= 1\n"
    )
    code, out, err = run(capsys, "bound", str(path))
    assert code == 0
    assert "note:" in err


def test_reduce_to_stdout_and_file(capsys, tmp_path):
    instance = tmp_path / "phi.cnf"
    instance.write_text("p monsat3 4 2\n+ 1 2 3\n- 2 3 4\n")
    code, out, _ = run(capsys, "reduce", "monsat3", str(instance))
    assert code == 0 and ">=" in out

    target = tmp_path / "out.ineq"
    code, _, _ = run(
        capsys, "reduce", "monsat3", str(instance), "--out", str(target)
    )
    assert code == 0
    assert target.read_text() == out

    graph_file = tmp_path / "g.col"
    graph_file.write_text("p edge 2 1\ne 1 2\n")
    code, out, _ = run(capsys, "reduce", "coloring", str(graph_file))
    assert code == 0 and "v1_r" in out

    part = tmp_path / "p.txt"
    part.write_text("1 3\n")
    code, out, _ = run(capsys, "reduce", "partition", str(part))
    assert code == 0 and "A1" in out


def test_eval_distribution(capsys, tmp_path):
    ineq = tmp_path / "im.ineq"
    ineq.write_text("Im(A,B,C) >= 0\n")
    data = tmp_path / "xor.csv"
    data.write_text(XOR_CSV)
    code, out, _ = run(capsys, "eval", str(ineq), str(data))
    assert code == 0
    assert abs(float(out) + 1.0) < 1e-9


def test_eval_distribution_huge_coefficient(capsys, tmp_path):
    """Coefficients past the float range are summed exactly; only a total
    past that range prints as inf."""
    ineq = tmp_path / "big.ineq"
    ineq.write_text("1" + "0" * 400 + "*h(B) >= h(A)\n")
    data = tmp_path / "d.csv"
    data.write_text("A,B,prob\n0,0,1/2\n1,0,1/2\n")  # B constant
    code, out, err = run(capsys, "eval", str(ineq), str(data))
    assert (code, out, err) == (0, "-1.0\n", "")
    data.write_text("A,B,prob\n0,0,1/2\n1,1,1/2\n")
    code, out, err = run(capsys, "eval", str(ineq), str(data))
    assert (code, out, err) == (0, "inf\n", "")
    ineq.write_text("h(A) >= 1" + "0" * 400 + "*h(B)\n")
    code, out, err = run(capsys, "eval", str(ineq), str(data))
    assert (code, out, err) == (0, "-inf\n", "")


def test_eval_set_function_exact(capsys, tmp_path):
    ineq = tmp_path / "e.ineq"
    ineq.write_text("h(A,B) >= 2/3*h(A)\n")
    data = tmp_path / "fn.csv"
    data.write_text("set,value\nA,1/2\nA B,2\n")  # h(B) defaults to 0
    code, out, _ = run(capsys, "eval", str(ineq), str(data))
    assert code == 0
    assert out.strip() == "5/3"


def test_eval_set_function_quoted_cells(capsys, tmp_path):
    ineq = tmp_path / "e.ineq"
    ineq.write_text("h(A,B) >= 2/3*h(A)\n")
    data = tmp_path / "fn.csv"
    data.write_text('set,value\n"A",1/2\n"A B",2\n')
    code, out, _ = run(capsys, "eval", str(ineq), str(data))
    assert code == 0
    assert out.strip() == "5/3"


def test_eval_rejects_unknown_format(capsys, tmp_path):
    ineq = tmp_path / "e.ineq"
    ineq.write_text("h(A) >= 0\n")
    data = tmp_path / "junk.csv"
    data.write_text("foo,bar\n1,2\n")
    code, _, err = run(capsys, "eval", str(ineq), str(data))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "data, bad",
    [
        ("set,value\n{A},abc\n", "'abc'"),
        ("set,value\n{A},1/0\n", "'1/0'"),
        ("A,prob\n0,x\n1,1/2\n", "'0,x'"),
    ],
)
def test_eval_rejects_malformed_number(capsys, tmp_path, data, bad):
    ineq = tmp_path / "e.ineq"
    ineq.write_text("h(A) >= 0\n")
    path = tmp_path / "bad.csv"
    path.write_text(data)
    code, _, err = run(capsys, "eval", str(ineq), str(path))
    assert code == 2
    assert err.startswith("error: bad ") and bad in err


def test_degscan(capsys, tmp_path):
    rel = tmp_path / "r.csv"
    rel.write_text("A,B\n1,1\n1,2\n2,1\n")
    code, out, _ = run(capsys, "degscan", str(rel), "B|A")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "degscan", str(rel), "A,B")
    assert out.strip() == "3"
    code, _, err = run(capsys, "degscan", str(rel), "|A")
    assert code == 2


def test_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.ineq"))
    assert code == 2
    assert "error:" in err


def test_parse_error_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.ineq"
    path.write_text("h(X >= h(Y)\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 1" in err


def test_check_entropic_class(capsys, worked, tmp_path):
    code, out, _ = run(capsys, "check", worked, "--class", "entropic")
    assert code == 0
    assert out == "Valid over step, normal, entropic, polymatroid\n"
    path = tmp_path / "pair.ineq"
    path.write_text("h(X,Z) + h(Y,Z) >= h(X,Y)\n")
    code, out, err = run(capsys, "check", str(path), "--class", "entropic")
    assert code == 2
    assert out == ""
    assert err == (
        "error: entropic validity is decided here only for inequalities "
        "whose right-hand-side sets are singletons or the full universe\n"
    )


def test_failed_self_check_exits_two(capsys, tmp_path, monkeypatch):
    import entroplex.validity
    from entroplex import zero_function

    monkeypatch.setattr(
        entroplex.validity, "step_function", lambda uni, v: zero_function(uni)
    )
    path = tmp_path / "s2.ineq"
    path.write_text("h(A) + h(B) >= h(A,B) + 1/2*h(A)\n")
    code, out, err = run(capsys, "check", str(path), "--class", "step")
    assert code == 2
    assert out == ""
    assert err == (
        "error: internal consistency check failed: self-check failed: "
        "witness evaluates to 0, expected negative\n"
    )
