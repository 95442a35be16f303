"""Output-size bounds: the four methods, data-side scans, constraint parsing."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroplex.bounds as bounds_mod
from entroplex import (
    CapExceeded,
    ConsistencyError,
    DomainError,
    FormError,
    GuardedEntry,
    GuardedSigma,
    Query,
    Relation,
    build_sigma,
    check_modular,
    check_polymatroid,
    check_simple_sigma,
    check_step,
    conditional,
    degree_scan,
    is_acyclic,
    is_simple,
    logbound_modular,
    logbound_polymatroid_dual,
    logbound_simple_entropic,
    logbound_step,
    parse_constraints,
    relation_from_csv,
    satisfies_degrees,
    sigma_inequality,
    universe,
)
from entroplex.lp import INFEASIBLE, OPTIMAL
from entroplex.validity import _cone_head
from helpers import (
    cyclic_system,
    dense_solve,
    modular_bound_brute,
    polymatroid_bound_dual_program,
    rand_sigma,
    shannon_proof_holds,
    simple_entropic_flow_bound,
    step_bound_brute,
)

ALL_METHODS = (
    logbound_modular,
    logbound_step,
    logbound_polymatroid_dual,
    logbound_simple_entropic,
)

TRIANGLE = (
    "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
    "card R1 <= 2\n"
    "card R2 <= 2\n"
    "card R3 <= 2\n"
)


def triangle():
    return parse_constraints(TRIANGLE)


def test_conditional_validation():
    c = conditional(0b011, 0b100)
    assert c.joint == 0b111
    assert conditional(0b010).condition == 0
    with pytest.raises(DomainError):
        conditional(0)
    with pytest.raises(DomainError):
        conditional(0b001, 0b001)  # overlap


def test_query_validation():
    uni = universe("A", "B")
    with pytest.raises(DomainError):
        Query(uni, (("R1", 1), ("R1", 2)))  # duplicate names
    with pytest.raises(DomainError):
        Query(uni, (("R1", 1),))  # B never covered
    q = Query(uni, (("R1", 1), ("R2", 3)))
    assert q.atom_index("R2") == 1
    with pytest.raises(DomainError):
        q.atom_index("R9")


def test_build_sigma_guard_inference():
    uni = universe("A", "B", "C")
    q = Query(uni, (("R1", 0b011), ("R2", 0b110)))
    sigma = build_sigma(
        q,
        [
            (conditional(0b010, 0b001), None, Fraction(1)),  # fits R1 only
            (conditional(0b100, 0b010), "R2", Fraction(2)),
        ],
    )
    assert sigma.entries[0].guard == 0
    assert sigma.entries[1].guard == 1
    with pytest.raises(DomainError):
        # {A,C} fits no atom
        build_sigma(q, [(conditional(0b100, 0b001), None, Fraction(1))])
    with pytest.raises(DomainError):
        build_sigma(q, [(conditional(0b010), None, Fraction(-1))])


def test_triangle_all_methods():
    query, sigma = triangle()
    assert is_simple(sigma) and is_acyclic(sigma)
    for method in ALL_METHODS:
        result = method(query, sigma)
        assert result.value == Fraction(3, 2), result.method
        assert result.is_finite
        assert result.linear_value() == pytest.approx(2 ** 1.5)
        if result.weights is not None:
            assert result.weights == (
                Fraction(1, 2),
                Fraction(1, 2),
                Fraction(1, 2),
            )


def test_triangle_weights_give_valid_inequality():
    query, sigma = triangle()
    for method in ALL_METHODS:
        result = method(query, sigma)
        if result.weights is None:
            continue
        expr = sigma_inequality(sigma, result.weights)
        assert check_step(expr).valid
        assert check_polymatroid(expr).valid
        assert check_simple_sigma(expr).valid


def test_chain_with_degree():
    query, sigma = parse_constraints(
        "query Q(A,B,C) = R1(A,B), R2(B,C)\n"
        "card R1 <= 2\n"
        "logdeg R2 (C | B) <= 0\n"
    )
    for method in ALL_METHODS:
        assert method(query, sigma).value == 1, method.__name__


def test_uncovered_variable_unbounded():
    query, sigma = parse_constraints(
        "query Q(A,B) = R1(A,B)\n"
        "logdeg R1 (A) <= 1\n"
    )
    for method in ALL_METHODS:
        result = method(query, sigma)
        assert not result.is_finite
        assert result.value == math.inf
        assert result.linear_value() == math.inf
        assert result.weights is None


def test_single_variable_system():
    query, sigma = parse_constraints("query Q(A) = R1(A)\ncard R1 <= 8\n")
    for method in ALL_METHODS:
        assert method(query, sigma).value == 3


def test_bound_monotone_in_degree_caps():
    """Raising a degree cap never lowers the step bound; both systems' step
    and modular bounds also match the enumerated programs."""
    rng = random.Random(4)
    for _ in range(25):
        query, sigma = rand_sigma(rng, n_max=4)
        base = logbound_step(query, sigma)
        k = rng.randrange(len(sigma.entries))
        bumped = list(sigma.entries)
        e = bumped[k]
        bumped[k] = GuardedEntry(e.sigma, e.guard, e.log_degree + 1)
        looser_sigma = GuardedSigma(sigma.universe, tuple(bumped))
        looser = logbound_step(query, looser_sigma)
        assert looser.value >= base.value
        assert_covering_bounds_match_brute(query, sigma)
        assert_covering_bounds_match_brute(query, looser_sigma)


def assert_covering_bounds_match_brute(query, sigma):
    """The covering loop's step and modular values equal the enumerated step
    program's and the unpruned singleton program's, and finite weights pass
    the class's checker at a budget equal to the value."""
    step = logbound_step(query, sigma)
    modular = logbound_modular(query, sigma)
    assert step.value == step_bound_brute(sigma)
    assert modular.value == modular_bound_brute(sigma)
    for result, checker in ((step, check_step), (modular, check_modular)):
        if not result.is_finite:
            assert result.weights is None
            continue
        assert checker(sigma_inequality(sigma, result.weights)).valid
        budget = sum(w * e.log_degree for w, e in zip(result.weights, sigma.entries))
        assert budget == result.value


@st.composite
def sigmas(draw):
    n = draw(st.integers(1, 8))
    uni = universe(*[f"V{i}" for i in range(n)])
    masks = st.sets(st.integers(0, n - 1), max_size=n).map(
        lambda vs: sum(1 << v for v in vs)
    )
    entries = []
    for _ in range(draw(st.integers(1, 8))):
        target = draw(masks.filter(bool))
        cond = conditional(target, draw(masks) & ~target)
        b = draw(st.fractions(0, 3, max_denominator=4))
        entries.append(GuardedEntry(cond, 0, b))
    return Query(uni, (("R0", uni.full_mask),)), GuardedSigma(uni, tuple(entries))


@given(sigmas())
@settings(max_examples=200, deadline=None)
def test_covering_loop_matches_enumeration(system):
    assert_covering_bounds_match_brute(*system)


def test_acyclic_modular_matches_polymatroid():
    rng = random.Random(5)
    for _ in range(40):
        query, sigma = rand_sigma(rng, n_max=4, acyclic=True)
        assert is_acyclic(sigma)
        assert (
            logbound_modular(query, sigma).value
            == logbound_polymatroid_dual(query, sigma).value
        )


def test_cyclic_detected():
    uni = universe("A", "B")
    q = Query(uni, (("R0", 3),))
    sigma = GuardedSigma(
        uni,
        (
            GuardedEntry(conditional(0b01, 0b10), 0, Fraction(1)),
            GuardedEntry(conditional(0b10, 0b01), 0, Fraction(1)),
        ),
    )
    assert not is_acyclic(sigma)
    assert is_simple(sigma)  # singleton conditions keep it simple

    wide = universe("A", "B", "C")
    fat = GuardedSigma(
        wide, (GuardedEntry(conditional(0b100, 0b011), 0, Fraction(1)),)
    )
    assert not is_simple(fat)
    assert is_acyclic(fat)


def test_simple_entropic_rejects_non_simple():
    uni = universe("A", "B", "C")
    fat = GuardedSigma(
        uni, (GuardedEntry(conditional(0b100, 0b011), 0, Fraction(1)),)
    )
    with pytest.raises(FormError, match="conditions of size <= 1"):
        logbound_simple_entropic(Query(uni, (("R0", 7),)), fat)


def test_simple_entropic_equals_step_beyond_criterion_08():
    """Larger simple systems than criterion 08 reaches: the bound equals the
    step bound, and the weights' budget is the bound."""
    rng = random.Random(7010)
    finite = 0
    for _ in range(40):
        query, sigma = rand_sigma(
            rng, n_min=7, n_max=10, simple=True, entries_range=(6, 12)
        )
        result = logbound_simple_entropic(query, sigma)
        assert result.value == logbound_step(query, sigma).value
        if result.is_finite:
            finite += 1
            budget = sum(
                w * e.log_degree for w, e in zip(result.weights, sigma.entries)
            )
            assert budget == result.value
    assert finite >= 30


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_simple_entropic_matches_flow_program(seed):
    """The covering loop with check_simple_sigma as its checker equals the
    paper's transport program and the step bound; finite weights pass the
    checker at a budget equal to the value."""
    query, sigma = rand_sigma(random.Random(seed), n_max=6, simple=True)
    result = logbound_simple_entropic(query, sigma)
    assert result.value == simple_entropic_flow_bound(sigma)
    assert result.value == logbound_step(query, sigma).value
    if result.is_finite:
        budget = sum(w * e.log_degree for w, e in zip(result.weights, sigma.entries))
        assert budget == result.value
        assert check_simple_sigma(sigma_inequality(sigma, result.weights)).valid


def chain_constraints(n):
    """Atoms Ri(Vi, V(i+1)), card R0 <= 2 and logdeg Ri (V(i+1) | Vi) <= 1
    for the others: the bound is n - 1."""
    names = [f"V{i}" for i in range(n)]
    atoms = ", ".join(f"R{i}({names[i]},{names[i + 1]})" for i in range(n - 1))
    lines = [f"query Q({','.join(names)}) = {atoms}", "card R0 <= 2"]
    lines += [
        f"logdeg R{i} ({names[i + 1]} | {names[i]}) <= 1" for i in range(1, n - 1)
    ]
    return parse_constraints("\n".join(lines))


def test_simple_entropic_chain_at_20_variables():
    query, sigma = chain_constraints(20)
    result = logbound_simple_entropic(query, sigma)
    assert result.value == 19
    assert result.value == logbound_step(query, sigma).value


def test_polymatroid_beats_or_equals_step():
    """The polymatroid bound can only be as large as the step bound."""
    rng = random.Random(6)
    for _ in range(30):
        query, sigma = rand_sigma(rng, n_max=4)
        step = logbound_step(query, sigma)
        poly = logbound_polymatroid_dual(query, sigma)
        assert poly.value <= step.value


def test_polymatroid_bound_one_lp_matches_dual_program(monkeypatch):
    """One LP per call; the value equals the explicit dual program's, and
    the weights read off its duals are a checked proof. Corrupted duals
    fail the self-check."""
    real = bounds_mod.solve
    calls = []

    def counting(lp, head=None):
        calls.append((lp, head))
        return real(lp, head)

    monkeypatch.setattr(bounds_mod, "solve", counting)
    rng = random.Random(20261018)
    systems = [cyclic_system(rng, n) for n in (4, 4, 4, 5, 5)]
    systems += [rand_sigma(rng, n_max=5) for _ in range(30)]
    finite = 0
    for query, sigma in systems:
        calls.clear()
        result = logbound_polymatroid_dual(query, sigma)
        assert len(calls) == 1
        lp, head = calls[0]
        assert head is _cone_head(sigma.universe.n)
        assert real(lp, head) == real(lp) == dense_solve(lp)
        oracle = dense_solve(polymatroid_bound_dual_program(sigma))
        if oracle.status == INFEASIBLE:
            assert result.value == math.inf and result.weights is None
            continue
        finite += 1
        assert oracle.status == OPTIMAL
        assert result.value == oracle.value
        budget = sum(w * e.log_degree for w, e in zip(result.weights, sigma.entries))
        assert budget == result.value
        assert check_polymatroid(sigma_inequality(sigma, result.weights)).valid
    assert finite >= 20

    query, sigma = triangle()
    for corrupt in (lambda y: 0 * y, lambda y: -y, lambda y: 2 * y):
        def corrupted(lp, head=None, corrupt=corrupt):
            res = real(lp, head)
            return res._replace(duals=tuple(corrupt(y) for y in res.duals))

        monkeypatch.setattr(bounds_mod, "solve", corrupted)
        with pytest.raises(ConsistencyError):
            logbound_polymatroid_dual(query, sigma)


def test_integer_proof_check_accepts_what_the_fraction_check_accepts(monkeypatch):
    """The polymatroid bound's integer proof check, against the Fraction
    remainder it replaced (helpers.shannon_proof_holds), on seeded cyclic
    systems at n = 3-5 and criterion-08 simple systems at n = 2-5: both
    accept every proof the bound makes, and both reject it once one nonzero
    elemental multiplier is zeroed or one positive weight is lowered."""
    real = bounds_mod._check_shannon_proof
    proofs = []

    def recording(*proof):
        proofs.append(proof)
        real(*proof)

    monkeypatch.setattr(bounds_mod, "_check_shannon_proof", recording)
    rng = random.Random(2029)
    for n in (3, 4, 5):
        for _ in range(10):
            logbound_polymatroid_dual(*cyclic_system(rng, n))
    for n in (2, 3, 4, 5):
        for _ in range(15):
            logbound_polymatroid_dual(
                *rand_sigma(rng, n_min=n, n_max=n, simple=True))
    assert len(proofs) >= 60

    def accepted(sigma, rows, duals, value):
        try:
            real(sigma, rows, duals, value)
        except ConsistencyError:
            return False
        return True

    mutants = 0
    for sigma, rows, duals, value in proofs:
        assert shannon_proof_holds(sigma, rows, duals, value)
        k = len(rows)
        for i, y in enumerate(duals):
            # zero a multiplier; halve or zero a weight
            for lowered in ((0,) if i < k else (y / 2, 0)) if y else ():
                mutant = duals[:i] + (Fraction(lowered),) + duals[i + 1:]
                assert not shannon_proof_holds(sigma, rows, mutant, value)
                assert not accepted(sigma, rows, mutant, value)
                mutants += 1
    assert mutants >= 300


def test_covering_rows_stay_an_antichain():
    """The covering loop's rows on one seeded criterion-08 system (six
    variables, four entries): the modular program has three distinct
    minimal supports, and the step and simple-entropic loops' second round
    adds a row that replaces a superset of it, so each last program keeps
    three rows. Keeping every row instead (no antichain filter) reads
    6, 7 and 7 rows, at the same values."""
    query, sigma = rand_sigma(random.Random(17), n_min=4, n_max=6, simple=True)
    assert (sigma.universe.n, len(sigma.entries)) == (6, 4)
    for method, value in (
        (logbound_modular, Fraction(14, 3)),
        (logbound_step, 6),
        (logbound_simple_entropic, 6),
    ):
        result = method(query, sigma)
        assert (result.value, result.lp_shape) == (value, (3, 4)), method


def test_sigma_inequality_shape():
    query, sigma = triangle()
    w = (Fraction(1, 2),) * 3
    expr = sigma_inequality(sigma, w)
    # (1/2)(h(AB)+h(BC)+h(AC)) - h(ABC)
    assert expr.terms == {
        0b011: Fraction(1, 2),
        0b110: Fraction(1, 2),
        0b101: Fraction(1, 2),
        0b111: Fraction(-1),
    }
    with pytest.raises(DomainError):
        sigma_inequality(sigma, (Fraction(1),) * 2)


def one_full_entry(n):
    uni = universe(*[f"V{i}" for i in range(n)])
    query = Query(uni, (("R0", uni.full_mask),))
    sigma = GuardedSigma(
        uni, (GuardedEntry(conditional(uni.full_mask), 0, Fraction(1)),)
    )
    return query, sigma


def test_caps():
    # The step bound has no cap of its own: the step checker's budgets are
    # its only limit. One full entry's weighted form cancels on the first
    # round, so the check walks one block at any size; h(V0) + h(V1..) >=
    # h(full) names the first variables, and at 40 the time budget refuses.
    for n in (17, 26, 40):
        result = logbound_step(*one_full_entry(n))
        assert result.value == 1 and result.weights == (1,)
    uni = universe(*[f"V{i}" for i in range(40)])
    query = Query(uni, (("R0", 1), ("R1", uni.full_mask - 1)))
    sigma = GuardedSigma(uni, (
        GuardedEntry(conditional(1), 0, Fraction(1)),
        GuardedEntry(conditional(uni.full_mask - 1), 1, Fraction(1)),
    ))
    with pytest.raises(CapExceeded, match="streams"):
        logbound_step(query, sigma)

    n = 11
    uni = universe(*[f"V{i}" for i in range(n)])
    query = Query(uni, (("R0", uni.full_mask),))
    sigma = GuardedSigma(
        uni, (GuardedEntry(conditional(uni.full_mask), 0, Fraction(1)),)
    )
    with pytest.raises(CapExceeded):
        logbound_polymatroid_dual(query, sigma)


def test_degree_scan():
    rel = relation_from_csv("R", "A,B\n1,1\n1,2\n2,1\n")
    assert degree_scan(rel, ["B"], ["A"]) == 2
    assert degree_scan(rel, ["A", "B"]) == 3
    assert degree_scan(rel, ["A"]) == 2
    # condition names are dropped from the target
    assert degree_scan(rel, ["A", "B"], ["A"]) == 2
    empty = Relation("E", ("A",), ())
    assert degree_scan(empty, ["A"]) == 0
    with pytest.raises(DomainError):
        degree_scan(rel, ["C"])
    with pytest.raises(DomainError):
        degree_scan(rel, ["A"], ["A"])


def test_relation_csv_validation():
    with pytest.raises(DomainError):
        relation_from_csv("R", "A,A\n1,1\n")
    with pytest.raises(DomainError):
        relation_from_csv("R", "A,B\n1\n")
    rel = relation_from_csv("R", "A,B\n1,2\n1,2\n")
    assert len(rel.rows) == 2  # duplicates kept; scans group by value anyway
    assert degree_scan(rel, ["B"], ["A"]) == 1


def test_satisfies_degrees_exact_power_check():
    query, sigma = parse_constraints(
        "query Q(A,B) = R1(A,B)\n"
        "card R1 <= 2\n"
        "logdeg R1 (B | A) <= 1\n"
    )
    two_rows = {"R1": relation_from_csv("R1", "A,B\n0,0\n0,1\n")}
    assert satisfies_degrees(two_rows, query, sigma)
    three = {"R1": relation_from_csv("R1", "A,B\n0,0\n0,1\n0,2\n")}
    # degree 3 > 2^1 and cardinality 3 > 2
    assert not satisfies_degrees(three, query, sigma)
    # degree 1 always passes, whatever b
    one = {"R1": relation_from_csv("R1", "A,B\n0,0\n")}
    assert satisfies_degrees(one, query, sigma)


def test_parse_constraints_full():
    query, sigma = parse_constraints(
        "# comment line\n"
        "query Q(A,B,C) = R1(A,B), R2(B,C)\n"
        "\n"
        "card R1 <= 4\n"
        "logdeg (C | B) <= 3/2\n"
        "logdeg R2 (C) <= 2\n"
    )
    assert query.universe.names == ("A", "B", "C")
    assert [name for name, _ in query.atoms] == ["R1", "R2"]
    entries = sigma.entries
    assert entries[0].sigma.joint == 0b011 and entries[0].log_degree == 2
    assert entries[1].sigma.condition == 0b010
    assert entries[1].log_degree == Fraction(3, 2)
    assert entries[1].guard == 1  # inferred: {B,C} only fits R2
    assert entries[2].sigma.target == 0b100 and entries[2].guard == 1


def test_readme_constraint_forms_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("Constraint files accept", 1)[1].split("```", 2)[1]
    query, sigma = parse_constraints(block)
    card, degree, inferred = sigma.entries
    assert card.sigma.joint == 0b011 and card.log_degree == 3
    assert degree.guard == 1 and degree.log_degree == 1
    assert inferred.guard == query.atom_index("R3")
    assert logbound_polymatroid_dual(query, sigma).is_finite
    # 2^k and the power of two it names are the same cardinality.
    for count in ("2^3", "8", "2 ^ 3"):
        _, sigma = parse_constraints(
            f"query Q(A) = R1(A)\ncard R1 <= {count}\n"
        )
        assert sigma.entries[0].log_degree == 3


def test_parse_constraints_errors():
    with pytest.raises(DomainError):
        parse_constraints("card R1 <= 4\n")  # no query line
    with pytest.raises(DomainError):
        parse_constraints("query Q(A) = R1(A)\ncard R1 <= 3\n")  # not a power of 2
    with pytest.raises(DomainError):
        parse_constraints("query Q(A) = R1(A)\ncard R1 <= 3^2\n")  # base not 2
    with pytest.raises(DomainError):
        parse_constraints("query Q(A) = R1(A)\ncard R9 <= 2\n")
    with pytest.raises(DomainError):
        parse_constraints("query Q(A) = R1(A)\nwat R1\n")
    with pytest.raises(DomainError):
        parse_constraints("query Q(A,B) = R1(A)\n")  # B uncovered
