"""Validity checkers: examples, certificates, witnesses, brute-force agreement."""

import contextlib
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
from entroplex.core import Expr, set_representation
from entroplex.validity import (
    DECIDABLE,
    SIMPLE_CLASSES,
    STEP_CLASSES,
    check_per_class,
)
from helpers import (
    han_text,
    load_bench,
    modular_brute,
    monotone_brute,
    pairing_lp_monotone,
    peak_bytes,
    rand_expr,
    step_brute,
    step_first_failing,
    step_kernel_unblocked,
)

U3 = universe("X", "Y", "Z")

# h(XY) + h(YZ) + 2 h(XZ) + h(X) >= h(Y) + 3 h(Z)
WORKED = make_expr(
    U3, {3: 1, 6: 1, 5: 2, 1: 1, 2: -1, 4: -3}
)

# h(XY) + h(XZ) >= h(X) + h(XYZ)
SUBMOD = make_expr(U3, {3: 1, 5: 1, 1: -1, 7: -1})

# The same form declared over a fourth variable: h(XYZ) is no longer the full
# set, so the form is not simple and only the cone LP settles polymatroids.
SUBMOD4 = make_expr(universe("X", "Y", "Z", "W"), SUBMOD.terms)


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
    verdict = check_polymatroid(SUBMOD4)
    assert verdict.valid
    assert verdict.method == "cone-lp"
    assert verdict.lp_shape is not None
    # over exactly X, Y, Z the form is simple: the simple reduction settles
    # it and no LP runs
    verdict = check_polymatroid(SUBMOD)
    assert verdict.valid
    assert (verdict.method, verdict.lp_shape) == ("simple-reduction", None)

    # supermodular spike is monotone-invalid and polymatroid-invalid; a step
    # function refutes it before the cone LP would run (with {A,B} on the
    # right-hand side it is not simple, so the step check is what runs)
    expr = make_expr(universe("A", "B", "C"), {7: 1, 3: -1, 4: -1})
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
    submod = make_expr(
        SUBMOD4.universe, {m: big * c for m, c in SUBMOD4.terms.items()}
    )
    assert check_step(submod).valid
    verdict = check_polymatroid(submod)
    assert verdict.valid
    assert verdict.method == "cone-lp"
    assert verdict.lp_shape == validity._cone_lp(submod).lp_shape
    assert check(submod, "polymatroid") == verdict

    # the scaled supermodular spike: a step function refutes it, and the
    # cone LP alone still finds its own minimizer
    spike = make_expr(universe("A", "B", "C"), {7: big, 3: -big, 4: -big})
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
    """Coefficients whose common denominator once capped witness recovery.
    The form is modular-Invalid on A, so `check` reports the basic modular
    function of A: the same up-set of {A} under the modular label."""
    for names in ("ABCDE", "ABCDEF"):
        expr = _big_coprime(names)
        fixpoint = check_monotone_fixpoint(expr)
        chain = check(expr, "monotone")
        for verdict in (fixpoint, chain):
            assert_witness_sound(expr, verdict)
        assert fixpoint.witness.generators == (1,)  # the up-set of {A}
        assert chain.method == "implied-by-modular"
        assert chain.semantics == ("monotone",)
        assert (chain.witness.kind, chain.witness.variable) == (
            "basic_modular", "A",
        )
        assert chain.witness.function == fixpoint.witness.function


def _declared(n, text):
    names = ",".join(f"V{i}" for i in range(n))
    return parse_inequality(f"vars {names};\n{text}")


def test_monotone_witnesses_at_the_universe_cap_are_lazy():
    """A 4-term simple form and submodularity over 24 and 100 declared
    variables: the monotone witnesses, the basic modular one, the
    fixpoint's and the failing reduction's, name their up-sets instead of
    storing 2^n values, and no size cap stands in the way of these
    polynomial checks."""
    step = ("simple-reduction", "step function on {V0,V1,V3}", (), 0b1011)
    cases = [
        ("h(V0,V1) + h(V2) >= h(V1) + h(V2) + h(V3)", {
            "auto": step,
            "entropic": step,
            # modular-Invalid on V3: the basic modular function of V3 is
            # the up-set of {V3} that the fixpoint would return
            "monotone": (
                "implied-by-modular", "basic modular function of V3", (), 8,
            ),
        }),
        ("h(V0,V2) + h(V1,V2) >= h(V0,V1,V2) + h(V2)", {
            "monotone": (
                "fixpoint",
                "monotone 0/1 function, upward closure of {V0,V1,V2}",
                (7,), None,
            ),
        }),
    ]
    for n in (24, 100):
        for text, expected in cases:
            expr = _declared(n, text)
            for semantics, want in expected.items():
                verdict, peak = peak_bytes(lambda: check(expr, semantics))
                assert_witness_sound(expr, verdict)
                w = verdict.witness
                assert (
                    verdict.method, w.describe(), w.generators, w.step_set,
                ) == want
                assert peak < 1 << 20, (n, semantics, peak)
        assert w.function[7] == w.function[-1] == 1 and w.function[6] == 0


def test_hashing_a_lazy_witness_builds_no_values():
    """Equality and hash of a lazy witness compare its generators only."""
    expr = _declared(20, "h(V0,V1) + h(V2) >= h(V1) + h(V2) + h(V3)")
    verdict = check(expr, "monotone")
    for item in (verdict.witness, verdict):
        _, peak = peak_bytes(lambda: hash(item))
        assert peak < 1 << 20, (item, peak)
    again = check(expr, "monotone")
    assert again == verdict and hash(again) == hash(verdict)


def test_step_and_modular_match_brute_force():
    rng = random.Random(98)
    uni = universe("A", "B", "C")
    for _ in range(200):
        expr = rand_expr(rng, uni)
        assert check_step(expr).valid == step_brute(expr)
        assert check_modular(expr).valid == modular_brute(expr)


@contextlib.contextmanager
def step_blocks(low):
    """check_step with blocks of 2^low sets, so that small universes split."""
    kept = validity._STEP_LOW
    validity._STEP_LOW = low
    try:
        yield
    finally:
        validity._STEP_LOW = kept


def assert_step_matches_oracle(expr):
    """The default blocks and blocks of 2 and 8 sets, which split every
    universe past 1 and 3 variables, give the oracle's first failing set."""
    verdict = check_step(expr)
    for low in (1, 3):
        with step_blocks(low):
            assert check_step(expr) == verdict, low
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


@st.composite
def cascade_step_exprs(draw):
    """Up to 40 terms over a few masks, each 2^k - 1, 2^k or 10^30 for one k,
    signed, over 1 or coprime denominators: the summed multiplicities set
    many bits at once, so full adders cascade through many columns."""
    n = draw(st.integers(1, 8))
    uni = universe(*[f"V{i}" for i in range(n)])
    masks = draw(st.lists(st.integers(1, uni.full_mask), min_size=1, max_size=8))
    k = draw(st.integers(1, 70))
    denominators = draw(st.sampled_from(((1,), _DENOMINATORS)))
    coeffs = st.builds(
        lambda magnitude, sign, d: Fraction(sign * magnitude, d),
        st.sampled_from(((1 << k) - 1, 1 << k, 10**30)),
        st.sampled_from((1, -1)),
        st.sampled_from(denominators),
    )
    terms = {}
    for _ in range(draw(st.integers(1, 40))):
        mask = draw(st.sampled_from(masks))
        terms[mask] = terms.get(mask, 0) + draw(coeffs)
    return make_expr(uni, terms)


@given(cascade_step_exprs())
@settings(max_examples=200, deadline=None)
# A full adder in column w - 2 carries into the top column: the start value,
# the positive and the negative term each put a bitmap there.
@example(make_expr(universe("A", "B"), {1: 2**40 + 5, 2: -(2**40)}))
@example(make_expr(universe("A", "B"), {3: 2**40 + 5, 1: -(2**40)}))
def test_step_kernel_carry_cascades(expr):
    assert_step_matches_oracle(expr)


def _held(n, w, s):
    """What check_step holds at once and what its blocks stream, as README's
    Caps row states it. With low = min(n, 15) and k = n - low, a block
    streams 2(low + w) + s bitmaps of 2^low bits, 2^low/8 + 32 bytes each,
    and 512 bytes more for each of the s terms that name one of the first k
    variables; when s > 0 it holds 2w bitmaps more, its own columns.
    Returns (held, streamed): what a block holds, and its streamed bytes
    times 2^k."""
    low = min(n, validity._STEP_LOW)
    k = n - low
    plane = (1 << low) // 8 + 32
    block = (2 * (low + w) + s) * plane + 512 * s
    held = block + 2 * w * plane if s else block
    return held, block << k


def _guard_figures(expr):
    """check_step's w and s for expr."""
    positives, negatives = set_representation(expr)
    w = max(sum(positives.values()), sum(negatives.values())).bit_length() + 1
    k = expr.universe.n - min(expr.universe.n, validity._STEP_LOW)
    return w, sum(1 for mask in expr.terms if mask & ((1 << k) - 1))


def test_step_guard_refuses_before_allocating():
    """A 45,002-bit value over 15 variables holds about 372 MB at once.
    30 random terms over 33 variables and Han's inequality over 33 stream
    about 82 and 89 GB, and submodularity over 40 about 5 TB."""
    uni = universe(*[f"V{i}" for i in range(15)])
    memory = [make_expr(uni, {uni.full_mask: 2**45000, 1: -1})]
    time_ = [
        _rand_terms(random.Random(33), 33),
        parse_inequality(han_text(33)),
        _declared(40, "h(V0,V2) + h(V1,V2) >= h(V0,V1,V2) + h(V2)"),
    ]
    for exprs, match in ((memory, "at once"), (time_, "streams")):
        for expr in exprs:
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(CapExceeded, match=match):
                    check_step(expr)
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert elapsed < 1
            assert peak < 1 << 20


def test_step_guard_admits_what_64_planes_allowed(monkeypatch):
    """Every (n, w) that the unblocked kernel's guard, 2(n + w)·(2^n/8 + 32)
    bytes against 64 planes at n = 24, admitted for n <= 25 is still
    admitted with a few hundred terms on the first n - 15 variables, but
    for one corner: at n = 16 a block's own 2w columns refuse w from 22,346
    (22,262 with 300 terms) up to the 22,424 the old guard reached. At
    n <= 15, where there is one block, the two guards agree. check_step's
    guard is _held at its edges: with blocks of 2^2 sets, budgets of
    exactly (held, streamed) admit, and one byte less on either refuses."""
    assert validity.STEP_PLANE_BUDGET == 369_104_384
    assert validity.STEP_WORK_BUDGET == 1 << 36
    refused = {}
    for n in range(1, 26):
        old_plane = (1 << n) // 8 + 32
        widest = validity.STEP_PLANE_BUDGET // (2 * old_plane) - n
        if n <= validity._STEP_LOW:
            for w in (*range(1, 65), widest, widest + 1):
                assert _held(n, w, 0)[0] == 2 * (n + w) * old_plane
            continue
        for w in range(1, widest + 1):
            for s in (0, 1, 30, 300):
                held, streamed = _held(n, w, s)
                assert streamed <= validity.STEP_WORK_BUDGET, (n, w, s)
                if held > validity.STEP_PLANE_BUDGET:
                    refused.setdefault((n, s), []).append(w)
    assert {key: (min(ws), max(ws), len(ws)) for key, ws in refused.items()} == {
        (16, 1): (22_346, 22_424, 79),
        (16, 30): (22_338, 22_424, 87),
        (16, 300): (22_262, 22_424, 163),
    }
    rng = random.Random(4)
    with step_blocks(2):
        for n in (2, 5, 7):
            expr = _rand_terms(rng, n, 12)
            w, s = _guard_figures(expr)
            held, streamed = _held(n, w, s)
            assert s > 0 or n == 2
            for plane, stream, match in (
                (held, streamed, None), (held - 1, streamed, "at once"),
                (held, streamed - 1, "streams"),
            ):
                monkeypatch.setattr(validity, "STEP_PLANE_BUDGET", plane)
                monkeypatch.setattr(validity, "STEP_WORK_BUDGET", stream)
                if match is None:
                    check_step(expr)
                else:
                    with pytest.raises(CapExceeded, match=match):
                        check_step(expr)


def test_step_first_pass_never_decided_a_refusal():
    """An unblocked pass over the sets of the first k variables would hold
    2(k + w) bitmaps of 2^k bits. At every n and s the time budget admits,
    those bytes stay within the memory budget at the widest w the time
    budget admits, so counting them in the guard would refuse nothing
    more: walking that pass in blocks left the refused inputs as they
    were."""
    low = validity._STEP_LOW
    plane = (1 << low) // 8 + 32
    last = {}
    for n in itertools.count(low + 1):
        k = n - low
        admitted = False
        for s in (0, 1, 30, 300, 3_000, 30_000):
            room = validity.STEP_WORK_BUDGET >> k
            w = ((room - 512 * s) // plane - s) // 2 - low
            if w < 1:
                continue
            admitted = True
            last[s] = n
            assert _held(n, w, s)[1] <= validity.STEP_WORK_BUDGET
            assert _held(n, w + 1, s)[1] > validity.STEP_WORK_BUDGET
            first_pass = 2 * (k + w) * ((1 << k) // 8 + 32)
            assert first_pass <= validity.STEP_PLANE_BUDGET, (n, w, s)
        if not admitted:
            break
    assert last == {0: 33, 1: 33, 30: 32, 300: 30, 3_000: 27, 30_000: 23}


def test_step_first_pass_peak_is_blocked():
    """30 random terms at n = 31 and 32: an unblocked pass over the sets of
    the first 16 and 17 variables would hold 2^16- and 2^17-bit bitmaps,
    more than a block of the whole walk (565 KB against 379 KB at 32).
    Walked in blocks of 2^15 sets itself, it peaks within that block."""
    for n in (31, 32):
        expr = _rand_terms(random.Random(n), n)
        w, s = _guard_figures(expr)
        verdict, peak = peak_bytes(lambda: check_step(expr))
        assert verdict.witness.step_set == 1
        assert peak < _held(n, w, s)[0], (n, w, s, peak)


def test_step_peak_within_plane_bytes():
    """The guard's held bytes cover what the kernel holds on seeded n = 18
    reduction instances, solvable and not, of every family, on 19,326
    random draws (18,692 terms, 16,339 of which keep a bitmap each), and on
    two Valid inequalities with 4,000-bit multiplicities, so that every
    block runs: Han's over all 18 variables and Han's over the last 15,
    which fills the shared columns while each block adds 2w of its own."""
    workloads = load_bench("workloads")
    rng = random.Random(18)
    cases = [
        from_3dmonsat(workloads._monsat_sat(rng, 18)),
        from_3dmonsat(workloads._monsat_unsat(rng, 18)),
        from_3coloring(workloads._graph_colorable(rng, 6)),
        from_partition(workloads._partition_solvable(rng, 18)),
        from_partition(workloads._partition_unsolvable(rng, 18)),
    ]
    wide = random.Random(7)
    terms = {}
    for variables in (range(18), range(3, 18)):
        factor = 1 << 3999 | wide.getrandbits(3999)
        full = sum(1 << i for i in variables)
        terms[full] = terms.get(full, 0) - (len(variables) - 1) * factor
        for i in variables:
            terms[full ^ 1 << i] = terms.get(full ^ 1 << i, 0) + factor
    cases.append(make_expr(universe(*[f"V{i}" for i in range(18)]), terms))
    cases.append(_rand_terms(random.Random(18), 18, 19_326))
    for expr in cases:
        w, s = _guard_figures(expr)
        verdict, peak = peak_bytes(lambda: check_step(expr))
        assert expr.universe.n == 18
        assert peak < _held(18, w, s)[0], (verdict.valid, w, s, peak)
        if w > 4000:
            assert verdict.valid and s == 19
    assert (len(expr.terms), s) == (18_692, 16_339)


def _rand_terms(rng, n, count=30):
    """count random terms over n variables, coefficients ±1 and ±2."""
    uni = universe(*[f"V{i}" for i in range(n)])
    return make_expr(uni, {
        rng.randint(1, uni.full_mask): rng.choice((-2, -1, 1, 2))
        for _ in range(count)
    })


def test_witness_value_past_the_digit_limit():
    """A witness whose value has over 4,300 digits is verified without
    formatting that value as text."""
    expr = make_expr(universe("A", "B"), {1: -(10**5000), 3: 1})
    verdict = check_step(expr)
    assert not verdict.valid and verdict.witness.step_set == 1


def test_step_answers_past_25_variables():
    """Han's inequality and 30 random terms over 26 variables, which the
    guard of the unblocked kernel refused: blocks of 2^15 and 2^17 sets give
    one verdict, witness included."""
    cases = [parse_inequality(han_text(26)), _rand_terms(random.Random(26), 26)]
    verdicts = []
    for expr in cases:
        verdict = check_step(expr)
        with step_blocks(17):
            assert check_step(expr) == verdict
        verdicts.append(verdict.valid)
    assert verdicts == [True, False]


def test_step_blocks_match_unblocked_kernel():
    """The blocked kernel's verdict and witness are the unblocked kernel's,
    on seeded reduction instances of every family at n = 14-18, solvable
    and not, which split into up to 8 blocks, and on 30 random terms at
    n = 20 and 22, which split into 32 and 128."""
    workloads = load_bench("workloads")
    rng = random.Random(17)
    cases = [
        from_3dmonsat(workloads._monsat_sat(rng, 14)),
        from_3dmonsat(workloads._monsat_sat(rng, 18)),
        from_3dmonsat(workloads._monsat_unsat(rng, 16)),
        from_3dmonsat(workloads._monsat_unsat(rng, 18)),
        from_3coloring(workloads._graph_colorable(rng, 6)),
        from_3coloring(workloads._graph_uncolorable(rng, 5)),
        from_partition(workloads._partition_solvable(rng, 16)),
        from_partition(workloads._partition_unsolvable(rng, 14)),
    ]
    cases += [_rand_terms(rng, n) for n in (20, 20, 22, 22)]
    verdicts = []
    for expr in cases:
        verdict = check_step(expr)
        assert repr(verdict) == repr(step_kernel_unblocked(expr))
        verdicts.append(verdict.valid)
    assert verdicts[:8] == [False, False, True, True, False, True, False, True]
    assert not all(verdicts[8:])


# (label, n, terms, the first failing set or None, blocks run) under blocks
# of 2^2 sets, so the first n - 2 variables name the blocks.
_STEP_ORDER = [
    # f({0}) = 1, f({0,1}) = -1: the walk over the sets of the first
    # variables answers, and no block runs
    ("a set of the first variables", 4, {1: 1, 2: -2}, 0b11, 0),
    # blocks {0,1,2} and {0,1}; {0,3} in the ancestor block {0} fails too
    ("a descendant block", 5, {8: -1, 4: 1}, 0b1011, 2),
    # blocks {0,1,2}, {0,1} and their later sibling {0,2}
    ("a later sibling", 5, {8: -1, 2: 1}, 0b1101, 3),
    # {0,2} fails; the blocks {0,1,2,3}, {0,1,2}, {0,1,3} and {0,1} run
    # before it, none of {0,2}'s own subtree does
    ("a set of the first variables after blocks", 6, {2: 1, 4: -1}, 0b101, 4),
    # only sets without the first variables fail: the last block, P = {}
    ("the last block", 5, {8: -1, 1: 1, 2: 1, 4: 1}, 0b1000, 8),
    ("Valid: Han's inequality", 6, None, None, 16),
    # no term names the first variables: every block is alike, and the
    # first one, P = {0,1,2}, alone runs
    ("no term on the first variables", 5, {24: 1, 8: -1, 16: -1}, 0b11111, 1),
    ("Valid: no term on the first variables", 5, {8: 1, 16: 1, 24: -1},
     None, 1),
]


@pytest.mark.parametrize("label,n,terms,first,blocks", _STEP_ORDER)
def test_step_blocks_in_lexicographic_order(
    monkeypatch, label, n, terms, first, blocks
):
    """The walk visits blocks in post-order and stops at the first that
    settles the witness: the oracle's first failing set, after the pinned
    number of blocks (calls of the descent by the outermost walk; the walk
    over the sets of the first n - 2 variables runs blocks of its own)."""
    if terms is None:
        expr = parse_inequality(han_text(n))
    else:
        expr = make_expr(universe(*[f"V{i}" for i in range(n)]), terms)
    depth = [0]
    descents = []  # the depth of the walk that made each call of the descent
    walk, descend = validity._first_set, validity._first_failing

    def nested(*args):
        depth[0] += 1
        try:
            return walk(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(validity, "_first_set", nested)
    monkeypatch.setattr(
        validity, "_first_failing",
        lambda *a: descents.append(depth[0]) or descend(*a),
    )
    with step_blocks(2):
        verdict = check_step(expr)
    assert step_first_failing(expr) == first
    assert (verdict.witness.step_set if first else None) == first
    assert verdict.valid == (first is None)
    assert descents.count(1) == blocks


@pytest.mark.parametrize("n,walks", [(27, 2), (33, 3), (40, 3)])
def test_step_walks_one_block_without_terms_on_the_first_variables(
    monkeypatch, n, walks
):
    """Submodularity and a supermodular spike on the last variables of n:
    no term names one of the first n - 15, so each walk, the outer one and
    those over the sets of the first variables, runs one block, and the
    time budget counts one. All 2^(n-15) blocks would take seconds at 33
    and pass the budget at 40. The spike fails exactly on the sets that
    hold its last two variables, first of all on the full set."""
    cases = [
        ("h(Va,Vc) + h(Vb,Vc) >= h(Va,Vb,Vc) + h(Vc)", True),
        ("h(Vb,Vc) >= h(Vb) + h(Vc)", False),
    ]
    descend = validity._first_failing
    descents = []
    monkeypatch.setattr(
        validity, "_first_failing", lambda *a: descents.append(a) or descend(*a)
    )
    for text, valid in cases:
        for name, i in (("Va", n - 3), ("Vb", n - 2), ("Vc", n - 1)):
            text = text.replace(name, f"V{i}")
        expr = _declared(n, text)
        descents.clear()
        verdict = check_step(expr)
        assert len(descents) == walks
        assert verdict.valid == valid
        assert valid or verdict.witness.step_set == expr.universe.full_mask
        assert check(expr, "step").valid == valid


def test_step_wide_multiplicities_add_in_linear_time():
    """30 random masks over 8 variables with 20,000-bit multiplicities: the
    carry-save add walks its columns by index, not by copying the O(w)
    columns above each of the ~300,000 set bits, which took about 12 s."""
    rng = random.Random(5)
    uni = universe(*[f"V{i}" for i in range(8)])
    expr = make_expr(uni, {
        rng.randint(1, uni.full_mask):
        rng.choice((-1, 1)) * (1 << 19_999 | rng.getrandbits(19_999))
        for _ in range(30)
    })
    start = time.perf_counter()
    verdict = check_step(expr)
    assert time.perf_counter() - start < 3
    assert verdict.witness.step_set == step_first_failing(expr) == 1


def test_step_random_terms_answered_before_any_block():
    """30 random terms over 30 variables fail at {V0}, which the pass over
    the sets of the first 15 variables finds: no block of 2^15 sets runs."""
    expr = _rand_terms(random.Random(30), 30)
    start = time.perf_counter()
    verdict = check_step(expr)
    assert time.perf_counter() - start < 0.2
    assert verdict.witness.step_set == 1


def test_step_peak_flat_past_one_block():
    """30 random terms at n = 22: the unblocked kernel peaks at about 21 MB
    of 2^22-bit bitmaps here, and a block's bitmaps have 2^15 bits."""
    expr = _rand_terms(random.Random(22), 22)
    _, peak = peak_bytes(lambda: check_step(expr))
    assert peak < 1 << 20, peak


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
    for cls in DECIDABLE:  # each class is its entry of the one walk
        assert check(expr, cls) == per[cls], cls
    assert check(expr, "normal") == per["step"]
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
@example(SUBMOD4)  # step-Valid, monotone-Invalid, polymatroid-Valid
@example(parse_inequality("Im(A,B,C) >= 0"))  # polymatroid-Invalid by the LP
@example(parse_inequality("h(C) + 2*h(A,B,C) >= 2*h(A) + 2*h(B,C)"))  # step
@example(parse_inequality("h(A,B) >= 2*h(A,C)"))  # modular-Invalid
@example(parse_inequality("2*h(A,B,C,D) >= h(A,B) + h(C,D)"))  # monotone-Valid
# simple and monotone-Invalid, so the simple reduction settles step and
# polymatroid: Valid, Valid, and Invalid with a step witness
@example(SUBMOD)
@example(parse_inequality(han_text(3)))
@example(parse_inequality("h(A,B) >= h(A) + h(B)"))
def test_chain_matches_standalone_checkers(expr):
    assert_chain_matches_standalone(expr, check_per_class(expr))


# Coefficients as ints, as proper Fractions and as whole Fractions such as
# Fraction(4, 2), which make_expr must store as the int 2.
_MIXED_COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2))),
)


@st.composite
def mixed_terms(draw):
    """(universe, raw terms) on n <= 4 variables, in simple form about half
    the time so that `check` takes the a-reduction and max-flow pipeline."""
    n = draw(st.integers(1, 4))
    uni = universe(*[f"V{i}" for i in range(n)])
    terms = draw(st.dictionaries(
        st.integers(0, uni.full_mask), _MIXED_COEFFS, max_size=10,
    ))
    if draw(st.booleans()):
        full = uni.full_mask
        terms = {
            m: c if m == full or m & (m - 1) == 0 else abs(c)
            for m, c in terms.items()
        }
    return uni, terms


@given(mixed_terms())
@settings(max_examples=200, deadline=None)
@example((U3, {3: Fraction(4, 2), 5: 1, 1: Fraction(-1), 7: Fraction(-3, 3)}))
@example((U3, {3: 1, 6: 1, 5: 2, 1: 1, 2: -1, 4: -3}))  # WORKED
@example((U3, {3: Fraction(1, 2), 5: Fraction(3, 2), 1: -1, 7: -1}))
def test_int_coefficients_match_fraction_coefficients(case):
    """make_expr's ints against the all-Fraction form of the same input:
    every decider returns equal verdicts, witnesses, certificates and
    iteration counts, and equal a-reductions."""
    uni, terms = case
    fast = make_expr(uni, terms)
    for mask, c in terms.items():
        if not mask or not c:
            assert mask not in fast.terms
            continue
        stored = fast.terms[mask]
        assert stored == Fraction(c)
        assert type(stored) is (int if Fraction(c).denominator == 1 else Fraction)
        if type(stored) is Fraction:
            assert stored is c  # a proper Fraction is kept, not rebuilt
    slow = Expr(uni, {m: Fraction(c) for m, c in fast.terms.items()})
    assert fast == slow
    for decide in (check_modular, check_step, check_monotone_fixpoint, check):
        assert decide(fast) == decide(slow), decide.__name__
    if all(type(c) is int for c in fast.terms.values()):
        mono = check_monotone_fixpoint(fast)
        parts = mono.certificate.parts if mono.valid else ()
        assert all(type(weight) is int for weight, _ in parts)
    for name in uni.names:
        red = a_reduction(fast, name)
        assert red == a_reduction(slow, name)
        assert all(
            type(c) is int or c.denominator != 1
            for c in red.reduced.terms.values()
        )


def test_chain_runs_lp_only_when_needed(monkeypatch):
    """The cone LP runs exactly for the step-Valid, monotone-Invalid inputs
    that are not simple: on a simple form the simple reduction settles
    polymatroid validity instead."""
    lp_inputs = []
    cone_lp = validity._cone_lp

    def counting(expr):
        lp_inputs.append(expr)
        return cone_lp(expr)

    def open_after_step(e):
        return check_step(e).valid and not check_monotone_fixpoint(e).valid

    rng = random.Random(5)
    uni = universe("A", "B", "C")
    drawn = [rand_expr(rng, uni) for _ in range(600)]
    exprs = [e for e in drawn if not is_simple_form(e)]
    simple = [e for e in drawn if is_simple_form(e)]
    needed = [e for e in exprs if open_after_step(e)]
    monkeypatch.setattr(validity, "_cone_lp", counting)
    verdicts = [check(expr) for expr in exprs]
    auto_inputs = lp_inputs[:]
    lp_inputs.clear()
    for expr in exprs:
        check_polymatroid(expr)
    direct_inputs = lp_inputs[:]
    lp_inputs.clear()
    for expr in simple:
        check_polymatroid(expr)
        check(expr, "polymatroid")
    monkeypatch.undo()
    assert 0 < len(needed) < len(exprs)
    assert any(open_after_step(e) for e in simple)
    assert lp_inputs == []
    assert [e.terms for e in auto_inputs] == [e.terms for e in needed]
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
