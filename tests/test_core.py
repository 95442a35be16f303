"""Universe, expression algebra, measure expansion, evaluation."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroplex import (
    DomainError,
    Expr,
    combine,
    cond_entropy,
    cond_mutual_info,
    entropy,
    evaluate,
    expand_measure,
    make_expr,
    multi_mutual_info,
    mutual_info,
    universe,
)
from entroplex.core import _is_identifier, set_representation


def test_universe_basics():
    uni = universe("X", "Y", "Z")
    assert uni.n == 3
    assert uni.full_mask == 7
    assert uni.index("Y") == 1
    assert uni.mask(["X", "Z"]) == 5
    assert uni.names_of(5) == ("X", "Z")
    assert uni.label(5) == "{X,Z}"
    assert uni.label(0) == "{}"
    assert list(uni.subsets()) == list(range(1, 8))
    assert list(uni.subsets(nonempty=False)) == list(range(8))


def test_universe_rejects_bad_names():
    with pytest.raises(DomainError):
        universe("X", "X")
    with pytest.raises(DomainError):
        universe("3X")
    uni = universe("A")
    with pytest.raises(DomainError):
        uni.index("B")
    with pytest.raises(DomainError):
        uni.names_of(4)


def _name_rule(name):
    """A variable name: a letter or `_`, then letters, digits and `_`, with
    letters and digits as str.isalpha and str.isalnum read them."""
    return bool(name) and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c == "_" for c in name[1:]
    )


@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
@settings(max_examples=500, deadline=None)
@example("")
@example("_")
@example("x\u00b2")  # isalnum, but not an identifier character
@example("\u00aa1")
@example("A\u0660")
@example("\u2160")
def test_name_check_is_the_character_class_rule(name):
    """ASCII names take str.isidentifier, which is the same rule there;
    other names keep the character-class loop. Universe accepts exactly
    the names the rule accepts."""
    assert _is_identifier(name) == _name_rule(name)
    if _name_rule(name):
        assert universe(name).names == (name,)
    else:
        with pytest.raises(DomainError, match="invalid variable name"):
            universe(name)


def test_entropy_and_conditional_expansion():
    uni = universe("X", "Y")
    e = expand_measure(uni, entropy(3))
    assert e.terms == {3: Fraction(1)}
    e = expand_measure(uni, cond_entropy(1, 2))
    assert e.terms == {3: Fraction(1), 2: Fraction(-1)}
    # h(X|X) expands to nothing
    assert expand_measure(uni, cond_entropy(1, 1)).terms == {}


def test_mutual_info_expansion():
    uni = universe("X", "Y", "Z")
    e = expand_measure(uni, mutual_info(1, 2))
    assert e.terms == {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)}
    e = expand_measure(uni, cond_mutual_info(1, 2, 4))
    assert e.terms == {
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-1),
        4: Fraction(-1),
    }


def test_multi_mutual_info_signs():
    uni = universe("A", "B", "C")
    e = expand_measure(uni, multi_mutual_info(7))
    # inclusion-exclusion over nonempty T, sign (-1)^(|T|-1)
    assert e.terms == {
        1: Fraction(1),
        2: Fraction(1),
        4: Fraction(1),
        3: Fraction(-1),
        5: Fraction(-1),
        6: Fraction(-1),
        7: Fraction(1),
    }
    for n in range(1, 6):
        uni = universe(*[f"V{i}" for i in range(n)])
        for s in range(1, uni.full_mask + 1):
            expected = {
                t: (-1) ** (bin(t).count("1") - 1)
                for t in range(1, s + 1) if t & s == t
            }
            e = expand_measure(uni, multi_mutual_info(s), Fraction(2, 3))
            assert e.terms == {t: Fraction(2, 3) * c for t, c in expected.items()}


def test_expand_measure_weight_and_range():
    uni = universe("A", "B")
    e = expand_measure(uni, entropy(1), Fraction(3, 2))
    assert e.terms == {1: Fraction(3, 2)}
    with pytest.raises(DomainError):
        expand_measure(uni, entropy(8))
    with pytest.raises(DomainError):
        expand_measure(uni, multi_mutual_info(0))


def test_combine_cancels():
    uni = universe("X", "Y")
    a = expand_measure(uni, entropy(1))
    diff = combine(uni, [(Fraction(1), a), (Fraction(-1), a)])
    assert diff.terms == {}
    assert not diff
    total = combine(uni, [(Fraction(2), a), (Fraction(1, 2), a)])
    assert total.terms == {1: Fraction(5, 2)}


def test_combine_rejects_mixed_universes():
    ua, ub = universe("X"), universe("Y")
    with pytest.raises(DomainError):
        combine(ua, [(Fraction(1), expand_measure(ub, entropy(1)))])


def test_make_expr_drops_zeros_and_validates():
    uni = universe("X", "Y")
    e = make_expr(uni, {1: Fraction(0), 3: Fraction(2), 0: Fraction(5)})
    assert e.terms == {3: Fraction(2)}
    assert e.variables_mentioned() == 3
    assert e.coefficient(3) == 2
    assert e.coefficient(1) == 0
    with pytest.raises(DomainError):
        make_expr(uni, {8: Fraction(1)})
    with pytest.raises(DomainError):
        Expr(uni, {1: Fraction(0)})


@pytest.mark.parametrize("coeff", [0.5, Decimal("0.5"), True, "1"])
def test_expr_rejects_coefficients_other_than_int_and_fraction(coeff):
    with pytest.raises(DomainError, match="neither an int nor a Fraction"):
        Expr(universe("A", "B", "C"), {1: coeff})


def test_float_expr_fails_at_construction_and_make_expr_converts():
    uni = universe("A", "B", "C")
    with pytest.raises(DomainError):
        Expr(uni, {1: 0.1, 2: 0.2, 4: 0.3, 7: -0.6})
    e = make_expr(uni, {1: 0.5, 2: Decimal("0.25"), 3: True, 4: 0.1})
    assert e.terms == {1: Fraction(1, 2), 2: Fraction(1, 4), 3: 1, 4: Fraction(0.1)}
    assert type(e.terms[3]) is int


def test_two_sided_split():
    uni = universe("X", "Y")
    e = make_expr(uni, {1: Fraction(2), 3: Fraction(-1)})
    lhs, rhs = e.two_sided()
    assert lhs == {1: Fraction(2)}
    assert rhs == {3: Fraction(1)}


def test_evaluate_exact():
    uni = universe("X", "Y")
    e = make_expr(uni, {1: Fraction(1, 3), 3: Fraction(-1, 2)})
    values = {1: Fraction(3), 2: Fraction(1), 3: Fraction(4)}
    assert evaluate(e, values) == Fraction(-1)


def test_evaluate_mixed_value_types_stay_exact():
    uni = universe("X", "Y")
    e = make_expr(uni, {1: Fraction(1, 3), 2: Fraction(-2), 3: Fraction(5, 7)})
    values = {1: 2, 2: Fraction(3, 4), 3: 0.1}
    got = evaluate(e, values)
    assert type(got) is Fraction
    assert got == sum(c * Fraction(values[m]) for m, c in e.terms.items())
    # 0.1 enters as its exact binary fraction, not as 1/10
    assert got != Fraction(2, 3) - Fraction(3, 2) + Fraction(5, 70)


def test_set_representation_scales_to_integers():
    uni = universe("X", "Y")
    e = make_expr(uni, {1: Fraction(1, 2), 2: Fraction(-1, 3)})
    assert set_representation(e) == ({1: 3}, {2: 2})
    # no cap on the multiplicities: the step check guards its own memory
    e = make_expr(uni, {1: Fraction(10**30, 7), 3: Fraction(-1, 99991)})
    assert set_representation(e) == ({1: 10**30 * 99991}, {3: 7})


def test_public_names_resolve_and_are_sorted():
    import entroplex

    assert entroplex.__all__ == sorted(entroplex.__all__)
    assert len(set(entroplex.__all__)) == len(entroplex.__all__)
    for name in entroplex.__all__:
        assert getattr(entroplex, name, None) is not None, name
