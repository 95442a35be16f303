"""Validity checkers: examples, certificates, witnesses, brute-force agreement."""

import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroplex import (
    CapExceeded,
    DomainError,
    FormError,
    MonSat3Instance,
    PartitionInstance,
    UnsupportedSemantics,
    a_reduction,
    check,
    check_modular,
    check_monotone_fixpoint,
    check_monotone_lp,
    check_polymatroid,
    check_simple_sigma,
    check_step,
    coloring_oracle,
    evaluate,
    from_3coloring,
    from_3dmonsat,
    from_partition,
    graph,
    is_modular,
    is_monotone,
    is_polymatroid,
    is_simple_form,
    make_expr,
    parse_inequality,
    partition_oracle,
    sat_oracle,
    step_function,
    universe,
)
import entroplex.validity as validity
from entroplex.validity import (
    DECIDABLE,
    SIMPLE_CLASSES,
    STEP_CLASSES,
    check_per_class,
)
from helpers import (
    modular_brute,
    monotone_brute,
    pairing_lp_monotone,
    rand_expr,
    step_brute,
    step_first_failing,
)

U3 = universe("X", "Y", "Z")

# h(XY) + h(YZ) + 2 h(XZ) + h(X) >= h(Y) + 3 h(Z)
WORKED = make_expr(
    U3, {3: 1, 6: 1, 5: 2, 1: 1, 2: -1, 4: -3}
)

# h(XY) + h(XZ) >= h(X) + h(XYZ)
SUBMOD = make_expr(U3, {3: 1, 5: 1, 1: -1, 7: -1})


def assert_witness_sound(expr, verdict):
    assert not verdict.valid
    w = verdict.witness
    assert w is not None
    assert evaluate(expr, w.function) < 0
    assert w.function[0] == 0


def test_worked_example_fixpoint():
    verdict = check_monotone_fixpoint(WORKED)
    assert verdict.valid
    assert verdict.semantics == ("monotone",)
    assert verdict.iterations is not None and verdict.iterations <= 4
    cert = verdict.certificate
    assert cert is not None
    assert cert.recombine().terms == WORKED.terms
    assert cert.is_separable()
    assert all(weight > 0 for weight, _ in cert.parts)


def test_worked_example_lp():
    # The pairing LP is now the test oracle; the old checker name stays as an
    # alias of the one monotone decider.
    assert pairing_lp_monotone(WORKED)
    verdict = check_monotone_lp(WORKED)
    assert verdict.valid
    assert verdict.method == "fixpoint"
    cert = verdict.certificate
    assert cert is not None and cert.recombine().terms == WORKED.terms


def test_submodularity_monotone_witness():
    assert not pairing_lp_monotone(SUBMOD)
    verdict = check_monotone_fixpoint(SUBMOD)
    assert_witness_sound(SUBMOD, verdict)
    w = verdict.witness
    assert w.kind == "boolean_monotone"
    assert w.generators == (7,)
    # the function is 1 exactly on the full set
    assert [w.function[m] for m in range(8)] == [0] * 7 + [1]


def test_submodularity_valid_elsewhere():
    assert check_polymatroid(SUBMOD).valid
    assert check_step(SUBMOD).valid
    assert check_modular(SUBMOD).valid


def test_modular_checker_witness():
    uni = universe("A", "B")
    expr = make_expr(uni, {1: 2, 2: -3})
    verdict = check_modular(expr)
    assert_witness_sound(expr, verdict)
    assert verdict.witness.kind == "basic_modular"
    assert verdict.witness.variable == "B"
    assert check_modular(make_expr(uni, {1: 2, 2: 1})).valid


def test_step_checker_witness_and_scaling():
    uni = universe("A", "B")
    expr = make_expr(uni, {1: Fraction(1, 2), 3: Fraction(-2, 3)})
    verdict = check_step(expr)
    assert verdict.semantics == STEP_CLASSES
    assert_witness_sound(expr, verdict)
    w = verdict.witness
    assert w.kind == "step"
    assert w.function.values == step_function(uni, w.step_set).values


def test_polymatroid_checker():
    verdict = check_polymatroid(SUBMOD)
    assert verdict.valid
    assert verdict.lp_shape is not None

    # supermodular spike is monotone-invalid and polymatroid-invalid; a step
    # function refutes it before the cone LP would run
    uni = universe("A", "B")
    expr = make_expr(uni, {3: 1, 1: -1, 2: -1})
    verdict = check_polymatroid(expr)
    assert verdict.method == "implied-by-step"
    assert verdict.semantics == ("polymatroid",)
    assert verdict.lp_shape is None
    assert_witness_sound(expr, verdict)
    assert verdict.witness.kind == "step"
    assert is_polymatroid(verdict.witness.function)
    # the cone LP alone finds its own minimizer as the witness
    verdict = validity._cone_lp(expr)
    assert verdict.method == "cone-lp"
    assert verdict.lp_shape is not None
    assert_witness_sound(expr, verdict)
    assert verdict.witness.kind == "polymatroid"
    assert is_polymatroid(verdict.witness.function)


def test_polymatroid_cap():
    """Eleven variables: submodularity is step-Valid and monotone-Invalid, so
    only the capped cone LP could settle it."""
    uni = universe(*[f"V{i}" for i in range(11)])
    expr = make_expr(uni, {1: 1, 2: 1, 3: -1})
    with pytest.raises(CapExceeded):
        check_polymatroid(expr)


def test_polymatroid_past_step_scaling_cap():
    """Coefficients of 10^19, once past the step check's integer scaling cap:
    the step check answers and the cone LP settles what it leaves open."""
    big = 10 ** 19
    submod = make_expr(U3, {m: big * c for m, c in SUBMOD.terms.items()})
    assert check_step(submod).valid
    verdict = check_polymatroid(submod)
    assert verdict.valid
    assert verdict.method == "cone-lp"
    assert verdict.lp_shape == validity._cone_lp(submod).lp_shape
    assert check(submod, "polymatroid") == verdict

    # the scaled supermodular spike: a step function refutes it, and the
    # cone LP alone still finds its own minimizer
    spike = make_expr(universe("A", "B"), {3: big, 1: -big, 2: -big})
    verdict = check_polymatroid(spike)
    assert verdict.method == "implied-by-step"
    assert verdict.witness.kind == "step"
    lp_verdict = validity._cone_lp(spike)
    assert lp_verdict.method == "cone-lp"
    assert lp_verdict.witness.kind == "polymatroid"
    for v in (verdict, lp_verdict):
        assert_witness_sound(spike, v)
        assert is_polymatroid(v.witness.function)


def test_empty_expression_valid_everywhere():
    uni = universe("A", "B")
    empty = make_expr(uni, {})
    assert check_modular(empty).valid
    assert check_step(empty).valid
    assert check_polymatroid(empty).valid
    assert check_monotone_fixpoint(empty).valid
    assert pairing_lp_monotone(empty)


def test_monotone_checkers_match_brute_force():
    rng = random.Random(97)
    uni = universe("A", "B", "C")
    for _ in range(120):
        expr = rand_expr(rng, uni)
        want = monotone_brute(expr)
        fix = check_monotone_fixpoint(expr)
        assert fix.valid == want
        assert pairing_lp_monotone(expr) == want
        if not want:
            assert_witness_sound(expr, fix)
        else:
            cert = fix.certificate
            assert cert.recombine().terms == expr.terms
            assert cert.is_separable()


def _big_coprime(names):
    # 1/99991 h(A,B) + 1/99989 h(A,C) >= 1/7 h(A) + 1/99961 h(all)
    uni = universe(*names)
    return make_expr(uni, {
        3: Fraction(1, 99991), 5: Fraction(1, 99989), 1: Fraction(-1, 7),
        uni.full_mask: Fraction(-1, 99961),
    })


# Large pairwise coprime denominators: their lcm overflows any integer
# scaling cap, which the exact max-flow never needs.
_DENOMINATORS = (1, 2, 3, 7, 99961, 99989, 99991, 1000003)


@st.composite
def monotone_exprs(draw):
    n = draw(st.integers(1, 4))
    uni = universe(*[f"V{i}" for i in range(n)])
    coeffs = st.builds(
        Fraction, st.integers(-5, 5), st.sampled_from(_DENOMINATORS)
    )
    terms = draw(st.dictionaries(st.integers(1, uni.full_mask), coeffs, max_size=10))
    return make_expr(uni, terms)


@given(monotone_exprs())
@settings(max_examples=300, deadline=None)
@example(make_expr(universe("A"), {}))
@example(make_expr(universe(*"ABCD"), {}))
@example(_big_coprime("ABCD"))
def test_monotone_max_flow_matches_oracles(expr):
    verdict = check_monotone_fixpoint(expr)
    assert verdict.valid == pairing_lp_monotone(expr) == monotone_brute(expr)
    if verdict.valid:
        cert = verdict.certificate
        assert cert.recombine().terms == expr.terms
        assert cert.is_separable()
        assert all(weight > 0 for weight, _ in cert.parts)
    else:
        assert_witness_sound(expr, verdict)
        assert verdict.witness.kind == "boolean_monotone"


def test_monotone_witness_beyond_old_scaling_cap():
    """Coefficients whose common denominator once capped witness recovery."""
    for names in ("ABCDE", "ABCDEF"):
        expr = _big_coprime(names)
        for verdict in (check_monotone_fixpoint(expr), check(expr, "monotone")):
            assert_witness_sound(expr, verdict)
            assert verdict.witness.generators == (1,)  # the up-set of {A}


def test_step_and_modular_match_brute_force():
    rng = random.Random(98)
    uni = universe("A", "B", "C")
    for _ in range(200):
        expr = rand_expr(rng, uni)
        assert check_step(expr).valid == step_brute(expr)
        assert check_modular(expr).valid == modular_brute(expr)


def assert_step_matches_oracle(expr):
    verdict = check_step(expr)
    first = step_first_failing(expr)
    assert verdict.valid == (first is None)
    assert verdict.method == "step-enumeration"
    if first is not None:
        assert verdict.witness.step_set == first
        assert_witness_sound(expr, verdict)
    return verdict


@st.composite
def step_exprs(draw):
    n = draw(st.integers(1, 10))
    uni = universe(*[f"V{i}" for i in range(n)])
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    terms = draw(st.dictionaries(st.integers(1, uni.full_mask), coeffs, max_size=12))
    return make_expr(uni, terms)


@given(step_exprs())
@settings(max_examples=200, deadline=None)
@example(make_expr(universe("A"), {}))
@example(make_expr(universe(*"ABCDEFGHIJ"), {}))
def test_step_kernel_matches_enumeration(expr):
    assert_step_matches_oracle(expr)


# h(A,B,C) + h(A,B,D) >= h(A,B,C,D) + h(A,B), scaled by 10^19: its integer
# multiplicities total more than 2^62, once the step check's fixed cap.
_HUGE = "vars A,B,C,D;\n" + " ".join([
    "10000000000000000000*h(A,B,C) + 10000000000000000000*h(A,B,D) >=",
    "10000000000000000000*h(A,B,C,D) + 10000000000000000000*h(A,B)",
])


@st.composite
def huge_step_exprs(draw):
    n = draw(st.integers(1, 5))
    uni = universe(*[f"V{i}" for i in range(n)])
    coeffs = st.builds(
        Fraction, st.integers(-10**30, 10**30), st.sampled_from(_DENOMINATORS)
    )
    terms = draw(st.dictionaries(st.integers(1, uni.full_mask), coeffs, max_size=12))
    return make_expr(uni, terms)


@given(huge_step_exprs())
@settings(max_examples=200, deadline=None)
@example(parse_inequality(_HUGE))
@example(_big_coprime("ABCDE"))
@example(make_expr(universe("A", "B"), {1: 10**30, 3: Fraction(-10**30 - 1, 99991)}))
def test_step_kernel_matches_enumeration_past_2_62(expr):
    """Numerators up to 10^30 over coprime denominators: the integer totals
    pass 2^62 and only the bit planes grow."""
    assert_step_matches_oracle(expr)


def test_step_guard_refuses_before_allocating(monkeypatch):
    """n = 24 and a 2^200 coefficient need about 474 MB of bit planes."""
    monkeypatch.delenv("ENTROPLEX_MAX_N", raising=False)
    uni = universe(*[f"V{i}" for i in range(24)])
    expr = make_expr(uni, {uni.full_mask: 2**200, 1: -1})
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapExceeded, match="bit planes"):
            check_step(expr)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1
    assert peak < 1 << 20


def test_step_guard_admits_what_64_planes_allowed(monkeypatch):
    """The budget is 64 planes at the universe cap, whatever that cap is:
    at the cap itself a 63-bit total passes and a 64-bit one does not."""
    monkeypatch.setenv("ENTROPLEX_MAX_N", "4")
    uni = universe("A", "B", "C", "D")
    assert check_step(make_expr(uni, {15: 2**63 - 1, 1: -1})).valid
    with pytest.raises(CapExceeded):
        check_step(make_expr(uni, {15: 2**63, 1: -1}))


def _triples(names):
    return [frozenset(t) for t in itertools.combinations(names, 3)]


def test_step_kernel_on_reduction_families():
    """The paper's hardness gadgets at n <= 12, solvable and unsolvable."""
    names = tuple(f"x{i}" for i in range(1, 9))
    core = _triples(names[:5])  # at least three of five true, at most two
    cases = [
        (from_3dmonsat, sat_oracle, MonSat3Instance(
            names, tuple(_triples(names[:4])), tuple(_triples(names[4:])))),
        (from_3dmonsat, sat_oracle, MonSat3Instance(names, tuple(core), tuple(core))),
        (from_3coloring, coloring_oracle, graph(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])),
        (from_3coloring, coloring_oracle, graph(
            ["a", "b", "c", "d"], list(itertools.combinations("abcd", 2)))),
        (from_partition, partition_oracle, PartitionInstance((1, 2, 3, 4, 5, 5, 2, 2))),
        (from_partition, partition_oracle, PartitionInstance((2, 4, 4, 4, 2, 2, 4, 4, 4, 4))),
    ]
    solvable = []
    for build, oracle, instance in cases:
        expr = build(instance)
        assert expr.universe.n <= 12
        verdict = assert_step_matches_oracle(expr)
        assert verdict.valid != oracle(instance)
        solvable.append(not verdict.valid)
    assert solvable == [True, False] * 3


def test_class_chain_implications():
    """Validity propagates down the class chain on random inputs."""
    rng = random.Random(99)
    uni = universe("A", "B", "C", "D")
    for _ in range(150):
        expr = rand_expr(rng, uni)
        mono = check_monotone_fixpoint(expr).valid
        poly = check_polymatroid(expr).valid
        step = check_step(expr).valid
        modular = check_modular(expr).valid
        if mono:
            assert poly
        if poly:
            assert step
        if step:
            assert modular


_STANDALONE = {  # polymatroid: the cone LP alone, without the chain
    "modular": check_modular,
    "step": check_step,
    "polymatroid": validity._cone_lp,
    "monotone": check_monotone_fixpoint,
}
_IN_CLASS = {
    "modular": lambda w: is_modular(w.function),
    "step": lambda w: w.function == step_function(w.function.universe, w.step_set),
    "polymatroid": lambda w: is_polymatroid(w.function),
    "monotone": lambda w: is_monotone(w.function),
}


def assert_chain_matches_standalone(expr, verdict):
    per = verdict.per_class
    assert tuple(per) == DECIDABLE
    for cls, sub in per.items():
        alone = _STANDALONE[cls](expr)
        assert sub.valid == alone.valid, cls
        assert sub.semantics == alone.semantics, cls
        if not sub.valid:
            assert_witness_sound(expr, sub)
            assert _IN_CLASS[cls](sub.witness), cls
        elif sub.method.startswith("implied-by-"):
            assert sub.certificate.recombine().terms == expr.terms
    assert check_polymatroid(expr) == per["polymatroid"]
    assert verdict.valid == per["monotone"].valid
    if verdict.valid:
        assert verdict.certificate.recombine().terms == expr.terms
    else:
        first = next(cls for cls in DECIDABLE if not per[cls].valid)
        assert verdict.witness is per[first].witness
        assert_witness_sound(expr, verdict)


@st.composite
def chain_exprs(draw):
    n = draw(st.integers(1, 4))
    uni = universe(*[f"V{i}" for i in range(n)])
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = draw(st.dictionaries(st.integers(1, uni.full_mask), coeffs, max_size=10))
    return make_expr(uni, terms)


@given(chain_exprs())
@settings(max_examples=300, deadline=None)
@example(make_expr(universe("A"), {}))
@example(make_expr(universe(*"ABCD"), {}))
@example(SUBMOD)  # step-Valid, monotone-Invalid, polymatroid-Valid
@example(parse_inequality("Im(A,B,C) >= 0"))  # polymatroid-Invalid by the LP
@example(parse_inequality("h(C) + 2*h(A,B,C) >= 2*h(A) + 2*h(B,C)"))  # step
@example(parse_inequality("h(A,B) >= 2*h(A,C)"))  # modular-Invalid
@example(parse_inequality("2*h(A,B,C,D) >= h(A,B) + h(C,D)"))  # monotone-Valid
def test_chain_matches_standalone_checkers(expr):
    assert_chain_matches_standalone(expr, check_per_class(expr))


def test_chain_runs_lp_only_when_needed(monkeypatch):
    """The cone LP runs exactly for the step-Valid, monotone-Invalid inputs."""
    lp_inputs = []
    cone_lp = validity._cone_lp

    def counting(expr):
        lp_inputs.append(expr)
        return cone_lp(expr)

    rng = random.Random(5)
    uni = universe("A", "B", "C")
    exprs = [rand_expr(rng, uni) for _ in range(600)]
    exprs = [e for e in exprs if not is_simple_form(e)]
    needed = [
        e for e in exprs if check_step(e).valid
        and not check_monotone_fixpoint(e).valid
    ]
    monkeypatch.setattr(validity, "_cone_lp", counting)
    verdicts = [check(expr) for expr in exprs]
    direct_inputs, lp_inputs = lp_inputs, []
    for expr in exprs:
        check_polymatroid(expr)
    direct_inputs, lp_inputs = lp_inputs, direct_inputs
    monkeypatch.undo()
    assert 0 < len(needed) < len(exprs)
    assert [e.terms for e in lp_inputs] == [e.terms for e in needed]
    assert [e.terms for e in direct_inputs] == [e.terms for e in needed]
    for expr, verdict in zip(exprs, verdicts):
        assert verdict.method == "per-class"
        assert_chain_matches_standalone(expr, verdict)


def test_polymatroid_chain_matches_cone_lp_at_n5():
    """The benchmark's shape: 3n distinct sets with coefficients +-1, +-2."""
    rng = random.Random(20261018)
    uni = universe(*[f"V{i}" for i in range(5)])
    methods = set()
    for _ in range(240):
        masks = rng.sample(range(1, 1 << uni.n), 3 * uni.n)
        expr = make_expr(uni, {m: rng.choice((-2, -1, 1, 2)) for m in masks})
        verdict = check_per_class(expr)
        assert_chain_matches_standalone(expr, verdict)
        methods.add(verdict.per_class["polymatroid"].method)
    assert methods >= {"cone-lp", "implied-by-modular", "implied-by-step",
                       "implied-by-monotone"}


_BIG = "vars A,B,C,D,E,F,G,H,I,J,K;\n"


def test_chain_settles_most_inputs_above_polymatroid_cap():
    """Eleven variables: only the step-Valid, monotone-Invalid case needs the
    capped cone LP."""
    cases = {
        "h(A,B) >= 2*h(A,C)": (
            (False, False, False, False),
            ("modular", "implied-by-modular", "implied-by-modular",
             "implied-by-modular"),
        ),
        "h(C) + 2*h(A,B,C) >= 2*h(A) + 2*h(B,C)": (
            (True, False, False, False),
            ("modular", "step-enumeration", "implied-by-step", "fixpoint"),
        ),
        "2*h(A,B,C,D) >= h(A,B) + h(C,D)": (
            (True, True, True, True),
            ("modular", "implied-by-monotone", "implied-by-monotone",
             "fixpoint"),
        ),
    }
    for text, (valid, methods) in cases.items():
        expr = parse_inequality(_BIG + text)
        assert expr.universe.n == 11 and not is_simple_form(expr)
        verdict = check(expr)
        per = verdict.per_class
        assert tuple(v.valid for v in per.values()) == valid
        assert tuple(v.method for v in per.values()) == methods
        assert verdict.valid == valid[-1]
        if verdict.valid:
            assert verdict.certificate.recombine().terms == expr.terms
        else:
            assert_witness_sound(expr, verdict)
        assert check_polymatroid(expr) == per["polymatroid"]
    with pytest.raises(CapExceeded):
        check(parse_inequality(_BIG + "h(A,C) + h(B,C) >= h(A,B,C) + h(C)"))


def test_per_class_table_past_old_scaling_cap():
    """Coefficients of 10^19 at n = 4: the step entry is answered, so the
    table is complete and the monotone witness refutes."""
    expr = parse_inequality(_HUGE)
    assert not is_simple_form(expr)
    verdict = check(expr)
    per = verdict.per_class
    assert [v.valid for v in per.values()] == [True, True, True, False]
    assert [v.method for v in per.values()] == [
        "modular", "step-enumeration", "cone-lp", "fixpoint",
    ]
    assert verdict.witness.kind == "boolean_monotone"
    assert_witness_sound(expr, verdict)
    assert_chain_matches_standalone(expr, verdict)


def test_a_reduction_structure():
    uni = universe("A", "B", "C")
    # 2 h(AB) + h(C) - h(A) - 3 h(ABC)
    expr = make_expr(uni, {3: 2, 4: 1, 1: -1, 7: -3})
    red = a_reduction(expr, "A")
    assert red.variable == "A"
    assert red.c == 2
    assert red.d == 4
    assert red.reduced.universe.names == ("B", "C")
    # surviving term h(C) plus (c - d) on the new full set
    assert red.reduced.terms == {2: Fraction(1), 3: Fraction(-2)}

    # removing the middle variable renumbers the bits above it
    red = a_reduction(expr, "B")
    assert red.reduced.universe.names == ("A", "C")
    assert red.reduced.terms == {1: Fraction(-1), 2: Fraction(1), 3: Fraction(-1)}


def test_simple_form_predicate():
    assert is_simple_form(WORKED)
    assert is_simple_form(SUBMOD)
    not_simple = make_expr(U3, {3: 1, 6: 1, 2: -1, 5: -1})
    assert not is_simple_form(not_simple)
    with pytest.raises(FormError, match="singleton or the full universe"):
        check_simple_sigma(not_simple)


def test_simple_sigma_agrees_with_direct_checkers():
    rng = random.Random(100)
    uni = universe("A", "B", "C")
    full = uni.full_mask
    allowed_negative = [1, 2, 4, full]
    for _ in range(200):
        terms = {}
        for mask in range(1, full + 1):
            c = rng.randint(0, 2)
            if c:
                terms[mask] = Fraction(c)
        for mask in allowed_negative:
            c = rng.randint(0, 2)
            if c:
                terms[mask] = terms.get(mask, Fraction(0)) - c
        expr = make_expr(uni, terms)
        if not is_simple_form(expr):
            continue  # positive and negative parts cancelled into a new shape
        verdict = check_simple_sigma(expr)
        assert verdict.semantics == SIMPLE_CLASSES
        assert verdict.valid == check_step(expr).valid
        assert verdict.valid == check_polymatroid(expr).valid
        if not verdict.valid and verdict.witness is not None:
            assert evaluate(expr, verdict.witness.function) < 0


def test_dispatch_auto_simple():
    verdict = check(WORKED)
    assert verdict.valid
    assert verdict.semantics == SIMPLE_CLASSES


def test_dispatch_auto_composite():
    expr = make_expr(U3, {3: 1, 6: 1, 2: -1, 5: -1})
    verdict = check(expr)
    assert verdict.semantics == DECIDABLE
    assert verdict.per_class is not None
    assert set(verdict.per_class) == set(DECIDABLE)
    assert verdict.valid == all(v.valid for v in verdict.per_class.values())
    # this one is the conditional-independence shape: valid everywhere except
    # monotone
    assert not verdict.per_class["monotone"].valid
    assert verdict.per_class["polymatroid"].valid
    assert not verdict.valid


def test_dispatch_named_classes():
    assert check(WORKED, "modular").method == check_modular(WORKED).method
    assert check(WORKED, "normal").semantics == STEP_CLASSES
    assert check(WORKED, "monotone").semantics == ("monotone",)
    with pytest.raises(DomainError):
        check(WORKED, "entropical")


def test_dispatch_entropic():
    verdict = check(SUBMOD, "entropic")
    assert verdict.valid and "entropic" in verdict.semantics
    not_simple = make_expr(U3, {3: 1, 6: 1, 2: -1, 5: -1})
    with pytest.raises(UnsupportedSemantics):
        check(not_simple, "entropic")


# Patch in a wrong witness function, then a wrong verdict under the bound
# weights; each self-check must raise, also with asserts stripped.
_BROKEN_SELF_CHECKS = """
import entroplex.bounds as bounds
import entroplex.validity as validity
from entroplex import ConsistencyError, parse_constraints, parse_inequality
from entroplex import zero_function

print("debug", __debug__)
validity.step_function = lambda uni, mask: zero_function(uni)
try:
    validity.check_step(parse_inequality("h(A) + h(B) >= h(A,B) + 1/2*h(A)"))
except ConsistencyError as exc:
    print("witness:", exc)
bounds.check_modular = lambda expr: validity.Verdict(False, (), "broken")
query, sigma = parse_constraints("query Q(A,B) = R1(A,B)\\ncard R1 <= 4")
try:
    bounds.logbound_modular(query, sigma)
except ConsistencyError as exc:
    print("weights:", exc)
bounds.check_simple_sigma = bounds.check_modular
try:
    bounds.logbound_simple_entropic(query, sigma)
except ConsistencyError as exc:
    print("simple weights:", exc)
"""


def test_self_checks_survive_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SELF_CHECKS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1] == (
        "witness: self-check failed: witness evaluates to 0, expected negative"
    )
    assert lines[2] == (
        "weights: self-check failed: the weights are valid over modular "
        "functions"
    )
    assert lines[3] == (
        "simple weights: self-check failed: the weights are valid over "
        "simple-entropic functions"
    )
