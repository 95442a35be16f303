"""Inequality text format: parsing, canonical printing, exact round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroplex import (
    DslError,
    format_inequality,
    make_expr,
    parse_inequality,
    parse_program,
    universe,
)


def terms_of(text):
    return parse_inequality(text).terms


def test_entropy_terms():
    uni = universe("X", "Y")
    assert parse_inequality("h(X,Y) >= h(Y)").terms == {
        3: Fraction(1),
        2: Fraction(-1),
    }
    assert parse_inequality("h(X,Y) >= h(Y)").universe == uni


def test_coefficients():
    assert terms_of("2*h(X) >= 0") == {1: Fraction(2)}
    assert terms_of("3/2*h(X) >= 0") == {1: Fraction(3, 2)}
    assert terms_of("h(X) + h(X) >= 0") == {1: Fraction(2)}
    # negative coefficients are legal against a literal-zero right side
    assert terms_of("h(X,Y) + -1*h(X) >= 0") == {3: Fraction(1), 1: Fraction(-1)}
    # a bare sign before a measure is a coefficient of -1 or 1
    assert terms_of("h(X,Y) + -h(X) >= 0") == {3: Fraction(1), 1: Fraction(-1)}
    assert terms_of("+h(X) + +2*h(Y) >= 0") == {1: Fraction(1), 2: Fraction(2)}


def test_conditionals_and_information():
    assert terms_of("h(X|Y) >= 0") == {3: Fraction(1), 2: Fraction(-1)}
    assert terms_of("I(X;Y) >= 0") == {
        1: Fraction(1),
        2: Fraction(1),
        3: Fraction(-1),
    }
    assert terms_of("I(X;Y|Z) >= 0") == {
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-1),
        4: Fraction(-1),
    }
    assert terms_of("Im(A,B,C) >= 0") == {
        1: Fraction(1),
        2: Fraction(1),
        4: Fraction(1),
        3: Fraction(-1),
        5: Fraction(-1),
        6: Fraction(-1),
        7: Fraction(1),
    }


def test_zero_sides_and_cancellation():
    assert terms_of("0 >= 0") == {}
    assert terms_of("h(X) >= h(X)") == {}
    assert terms_of("0 >= h(X)") == {1: Fraction(-1)}


def test_comments_and_layout():
    text = (
        "# degree bound inequality\n"
        "h(X,Y)  +  h(Y,Z)\n"
        "  >= h(Y) # trailing note\n"
    )
    assert terms_of(text) == {3: Fraction(1), 6: Fraction(1), 2: Fraction(-1)}


def test_vars_header():
    prog = parse_program("vars A,B,C;\nh(A) >= 0")
    assert prog.declared
    assert prog.universe.names == ("A", "B", "C")
    prog = parse_program("h(B) + h(A) >= 0")
    assert not prog.declared
    assert prog.universe.names == ("A", "B")  # sorted mention order


def test_header_must_cover_mentions():
    with pytest.raises(DslError) as exc:
        parse_program("vars A,B;\nh(C) >= 0")
    assert exc.value.line == 2
    with pytest.raises(DslError):
        parse_program("vars A,A;\nh(A) >= 0")


def test_negative_coefficient_placement():
    with pytest.raises(DslError):
        parse_inequality("h(X) >= -1*h(Y)")
    with pytest.raises(DslError):
        parse_inequality("-1*h(X) >= h(Y)")
    with pytest.raises(DslError):
        parse_inequality("h(X) >= -h(Y)")
    # fine when the right side is literal zero
    parse_inequality("-1/2*h(X) + h(X,Y) >= 0")


def test_error_positions():
    with pytest.raises(DslError) as exc:
        parse_inequality("h(X >= h(Y)")
    assert (exc.value.line, exc.value.col) == (1, 5)
    with pytest.raises(DslError) as exc:
        parse_inequality("h(X)\n+ $ >= 0")
    assert exc.value.line == 2
    with pytest.raises(DslError) as exc:
        parse_inequality("--h(X) >= 0")  # one sign per term
    assert (exc.value.line, exc.value.col) == (1, 2)
    with pytest.raises(DslError):
        parse_inequality("h(X)")  # no comparison
    with pytest.raises(DslError):
        parse_inequality("h(X) >= h(Y) >= 0")
    with pytest.raises(DslError):
        parse_inequality("h() >= 0")
    with pytest.raises(DslError):
        parse_inequality("")


def test_format_canonical():
    uni = universe("X", "Y", "Z")
    expr = make_expr(
        uni, {3: Fraction(1), 5: Fraction(2), 2: Fraction(-1), 4: Fraction(-3)}
    )
    assert (
        format_inequality(expr)
        == "h(X,Y) + 2*h(X,Z) >= h(Y) + 3*h(Z)"
    )
    assert format_inequality(make_expr(uni, {1: Fraction(3, 2)})).startswith(
        "vars X,Y,Z;\n"
    )
    empty = make_expr(universe("X"), {})
    assert format_inequality(empty).endswith("0 >= 0")


def test_format_header_only_when_needed():
    uni = universe("A", "B")
    both = make_expr(uni, {1: Fraction(1), 2: Fraction(-1)})
    assert "vars" not in format_inequality(both)
    partial = make_expr(uni, {1: Fraction(1)})
    assert format_inequality(partial).splitlines()[0] == "vars A,B;"


NAME_POOL = ("A", "B", "C", "D")


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 4))
    names = list(NAME_POOL[:n])
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 999)))
        rng.shuffle(names)
    uni = universe(*names)
    terms = draw(
        st.dictionaries(
            st.integers(1, uni.full_mask),
            st.fractions(
                min_value=-4, max_value=4, max_denominator=6
            ).filter(lambda f: f != 0),
            max_size=6,
        )
    )
    return make_expr(uni, terms)


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_round_trip_exact(expr):
    text = format_inequality(expr)
    back = parse_inequality(text)
    assert back.universe == expr.universe
    assert back.terms == expr.terms
    # printing is a fixed point
    assert format_inequality(back) == text
