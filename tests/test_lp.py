"""Exact simplex: hand cases, agreement with a vertex-enumeration oracle, and
pivot-for-pivot agreement with the dense Fraction tableau it replaced."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entroplex.bounds as bounds_mod
import entroplex.lp as lp_mod
import entroplex.validity as validity_mod
from entroplex import universe
from entroplex.core import DomainError, _integer_row
from entroplex.lp import (
    INFEASIBLE,
    Head,
    LinearProgram,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    UNBOUNDED,
    feasible,
    solve,
)
from entroplex.functions import _elemental_rows
from helpers import (
    cone_memo_answers,
    cyclic_system,
    dense_feasible,
    dense_solve,
    in_basis_by_scan,
    rand_expr,
    rand_lp,
    rand_sigma,
    vertex_oracle,
)


def test_tiny_minimum():
    lp = LinearProgram(2)
    lp.set_objective({0: 1, 1: 1})
    lp.add_row({0: 1, 1: 2}, ">=", 4)
    lp.add_row({0: 3, 1: 1}, ">=", 6)
    res = solve(lp)
    assert res.status == OPTIMAL
    # vertex of the two rows: x = (8/5, 6/5)
    assert res.value == Fraction(14, 5)
    assert res.point == (Fraction(8, 5), Fraction(6, 5))


def test_tiny_maximum():
    lp = LinearProgram(2, sense=MAXIMIZE)
    lp.set_objective({0: 3, 1: 5})
    lp.add_row({0: 1}, "<=", 4)
    lp.add_row({1: 2}, "<=", 12)
    lp.add_row({0: 3, 1: 2}, "<=", 18)
    res = solve(lp)
    assert res.status == OPTIMAL
    assert res.value == 36
    assert res.point == (Fraction(2), Fraction(6))


def test_equality_rows():
    lp = LinearProgram(2)
    lp.set_objective({0: 1, 1: 3})
    lp.add_row({0: 1, 1: 1}, "=", 5)
    res = solve(lp)
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.point == (Fraction(5), Fraction(0))


def test_infeasible():
    lp = LinearProgram(1)
    lp.add_row({0: 1}, "<=", -1)
    res = solve(lp)
    assert res.status == INFEASIBLE
    assert res.value is None
    ok, point = feasible(lp)
    assert not ok and point is None


def test_unbounded():
    lp = LinearProgram(1, sense=MAXIMIZE)
    lp.set_objective({0: 1})
    lp.add_row({0: 1}, ">=", 0)
    res = solve(lp)
    assert res.status == UNBOUNDED


def test_feasible_point_satisfies_rows():
    lp = LinearProgram(3)
    lp.add_row({0: 1, 1: 1, 2: 1}, "=", 1)
    lp.add_row({0: 1, 1: -1}, ">=", Fraction(1, 3))
    ok, point = feasible(lp)
    assert ok
    assert sum(point) == 1
    assert point[0] - point[1] >= Fraction(1, 3)
    assert all(x >= 0 for x in point)


def test_rejects_bad_rows():
    lp = LinearProgram(2)
    with pytest.raises(DomainError):
        lp.add_row({5: 1}, ">=", 0)
    with pytest.raises(DomainError):
        lp.add_row({0: 1}, "==", 0)


def test_exact_rational_optimum():
    lp = LinearProgram(2, sense=MINIMIZE)
    lp.set_objective({0: Fraction(1, 7), 1: Fraction(2, 9)})
    lp.add_row({0: Fraction(1, 3), 1: Fraction(1, 5)}, ">=", Fraction(13, 11))
    res = solve(lp)
    assert res.status == OPTIMAL
    # cheapest ratio per unit of the single row is via variable 0
    assert res.value == Fraction(39, 77)
    assert res.point == (Fraction(39, 11), Fraction(0))


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    lp = LinearProgram(4, sense=MINIMIZE)
    lp.set_objective(
        {0: Fraction(-3, 4), 1: 150, 2: Fraction(-1, 50), 3: 6}
    )
    lp.add_row(
        {0: Fraction(1, 4), 1: -60, 2: Fraction(-1, 25), 3: 9}, "<=", 0
    )
    lp.add_row(
        {0: Fraction(1, 2), 1: -90, 2: Fraction(-1, 50), 3: 3}, "<=", 0
    )
    lp.add_row({2: 1}, "<=", 1)
    res = solve(lp)
    assert res.status == OPTIMAL
    assert res.value == Fraction(-1, 20)


def test_agreement_with_vertex_oracle():
    rng = random.Random(20260822)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(150):
        lp = rand_lp(rng)
        res = solve(lp)
        want_status, want_value = vertex_oracle(lp)
        assert res.status == want_status
        if want_status == OPTIMAL:
            assert res.value == want_value
            point = res.point
            assert all(x >= 0 for x in point)
            for coeffs, op, rhs in lp.rows:
                got = sum(c * point[j] for j, c in coeffs.items())
                if op == ">=":
                    assert got >= rhs
                elif op == "<=":
                    assert got <= rhs
                else:
                    assert got == rhs
        statuses[want_status] += 1
    # the sample must exercise every status
    assert all(v > 0 for v in statuses.values()), statuses


def _lp(n, sense, objective, rows):
    lp = LinearProgram(n, sense=sense)
    lp.set_objective(objective)
    for coeffs, rel, rhs in rows:
        lp.add_row(coeffs, rel, rhs)
    return lp


_RATS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def programs(draw, entries=_RATS):
    n = draw(st.integers(1, 4))
    cols = st.integers(0, n - 1)
    rows = draw(st.lists(
        st.tuples(
            st.dictionaries(cols, entries, max_size=n),
            st.sampled_from([">=", "<=", "="]),
            entries,
        ),
        min_size=1, max_size=10,
    ))
    objective = draw(st.dictionaries(cols, entries, max_size=n))
    return _lp(n, draw(st.sampled_from([MINIMIZE, MAXIMIZE])), objective, rows)


@given(programs())
@example(_lp(1, MINIMIZE, {}, [({0: 1}, "<=", Fraction(-1, 2))]))  # infeasible
@example(_lp(2, MAXIMIZE, {0: Fraction(2, 3)}, [({1: 1}, "=", 3)]))  # unbounded
@settings(max_examples=300, deadline=None)
def test_sparse_kernel_matches_dense_tableau(lp):
    res = solve(lp)
    assert res == dense_solve(lp)
    assert feasible(lp) == dense_feasible(lp)
    if res.status != OPTIMAL:
        assert res.duals is None
        return
    # The duals certify the optimum: sign by relation and sense, reduced
    # costs c - A^T y of the optimal sign, and sum(rhs * y) == value.
    sign = 1 if lp.sense == MINIMIZE else -1
    assert len(res.duals) == len(lp.rows)
    for (_, rel, _), y in zip(lp.rows, res.duals):
        if rel == ">=":
            assert sign * y >= 0
        elif rel == "<=":
            assert sign * y <= 0
    for j in range(lp.n_vars):
        reduced = lp.objective.get(j, 0) - sum(
            y * coeffs.get(j, 0) for (coeffs, _, _), y in zip(lp.rows, res.duals)
        )
        assert sign * reduced >= 0
    assert sum(rhs * y for (_, _, rhs), y in zip(lp.rows, res.duals)) == res.value


def _as_fractions(coeffs):
    return {j: Fraction(c) for j, c in coeffs.items()}


@given(programs(st.integers(-5, 5)))
@settings(max_examples=300, deadline=None)
def test_integer_rows_match_fraction_rows(ints):
    """Integer entries stay int from add_row to the tableau; the answer is
    the one of the same program written in Fractions, and the dense
    tableau's."""
    fracs = _lp(
        ints.n_vars, ints.sense, _as_fractions(ints.objective),
        [(_as_fractions(c), rel, Fraction(rhs)) for c, rel, rhs in ints.rows],
    )
    for lp, kind in ((ints, int), (fracs, Fraction)):
        entries = list(lp.objective.values())
        for coeffs, _, rhs in lp.rows:
            entries += [*coeffs.values(), rhs]
        assert all(type(v) is kind for v in entries)
    res = solve(ints)
    assert res == solve(fracs) == dense_solve(fracs)
    assert feasible(ints) == feasible(fracs) == dense_feasible(fracs)


def _cone(n, sense, objective, tail=()):
    """The cone program at n with this objective: the shared elemental row
    objects first, then `tail`."""
    lp = LinearProgram((1 << n) - 1, sense)
    lp.set_objective(objective)
    lp.rows = list(validity_mod._cone_rows(n))
    for coeffs, rel, rhs in tail:
        lp.add_row(coeffs, rel, rhs)
    return lp


@st.composite
def headed_programs(draw):
    n = draw(st.integers(1, 4))
    cols = st.integers(0, (1 << n) - 2)
    objective = draw(st.dictionaries(cols, _RATS, max_size=4))
    sense = draw(st.sampled_from([MINIMIZE, MAXIMIZE]))
    tail = draw(st.lists(
        st.tuples(
            st.dictionaries(cols, _RATS, max_size=3),
            st.just("<="),
            st.just(0) | st.fractions(min_value=0, max_value=5, max_denominator=7),
        ),
        max_size=4,
    ))
    return Head(_cone(n, sense, objective)), _cone(n, sense, objective, tail)


def _with(lp, rows=None, objective=None, sense=None):
    return LinearProgram(
        lp.n_vars, lp.sense if sense is None else sense,
        dict(lp.objective) if objective is None else objective,
        list(lp.rows) if rows is None else rows,
    )


@given(headed_programs())
@settings(max_examples=60, deadline=None)
def test_head_solve_equals_cold_solve(case):
    """Started from a head over the cone rows, a program with `<=` rows at
    rhs >= 0 after them gets the cold solve's LPResult, pivots and duals
    included, and leaves the head as it was; any other program is refused."""
    head, lp = case
    start = head.tableau
    kept = ([dict(row) for row in start.rows], list(start.basis), dict(start.red))
    assert solve(lp, head) == solve(lp) == dense_solve(lp)
    assert ([dict(row) for row in start.rows], start.basis, start.red) == kept

    other_sense = MAXIMIZE if lp.sense == MINIMIZE else MINIMIZE
    refused = (
        _with(lp, rows=lp.rows + [({0: 1}, ">=", 0)]),
        _with(lp, rows=lp.rows + [({0: 1}, "<=", -1)]),
        _with(lp, objective={**lp.objective, 0: lp.objective.get(0, 0) + 1}),
        _with(lp, sense=other_sense),
        _with(lp, rows=[(dict(c), rel, rhs) for c, rel, rhs in lp.rows]),
        _with(lp, rows=lp.rows[1:]),
    )
    for bad in refused:
        with pytest.raises(DomainError):
            solve(bad, head)


def test_rows_join_the_head_by_lookup():
    """A `<=` tail row expressed in the cone head's basis at n = 3-5: the
    lookup through the head's {basic column: row} map gives the same
    numerators and denominator as a pass over every head row in basis
    order, holds no basic column, and leaves the head as it was."""
    for n in (3, 4, 5):
        head = validity_mod._cone_head(n)
        start = head.tableau
        assert head.basic == dict(zip(start.basis, start.rows))
        kept = [dict(row) for row in start.rows]
        rng = random.Random(n)
        cols = (1 << n) - 1
        slack = cols + len(start.rows)  # the first tail row's slack column
        for _ in range(100):
            coeffs = {
                j: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                for j in rng.sample(range(cols), rng.randint(1, min(cols, 8)))
            }
            coeffs[slack + 1] = Fraction(rng.randint(0, 5), rng.choice((1, 4)))
            nums, den = _integer_row(coeffs)  # the rhs sits past the slack
            nums[slack] = den
            den = lp_mod._lowest_terms(nums, den)
            scanned = dict(nums)
            want = in_basis_by_scan(scanned, den, start.basis, start.rows)
            looked_up = dict(nums)
            assert lp_mod._in_basis(looked_up, den, head.basic) == want
            assert looked_up == scanned
            assert not looked_up.keys() & head.basic.keys()
        assert [dict(row) for row in start.rows] == kept


def test_head_rows_need_no_phase_one():
    for rel, rhs in (("=", 0), (">=", 1), ("<=", -1)):
        with pytest.raises(DomainError):
            Head(_lp(1, MINIMIZE, {}, [({0: 1}, rel, rhs)]))


# Each position's answers, computed with no cone rows held yet.
_FRESH_ANSWERS = """
import sys
from helpers import cone_memo_answers
print(cone_memo_answers(int(sys.argv[1])))
"""


def test_cone_rows_memo_leaks_no_state():
    """The elemental rows are held once per universe size: a program built
    over them and then extended leaves the next one exactly the elemental
    rows, and answers match those of a fresh interpreter."""
    uni = universe("A", "B", "C", "D")
    elemental = [
        ({m - 1: c for m, c in row.items()}, ">=", 0) for row in _elemental_rows(4)
    ]
    lp = validity_mod._cone_program(uni, MINIMIZE)
    lp.set_objective({0: 1, 14: -1})
    lp.add_row({14: 1}, "<=", 1)
    lp.add_row({0: 1, 1: 1}, ">=", Fraction(1, 2))
    assert solve(lp).status == OPTIMAL
    assert len(lp.rows) == len(elemental) + 2
    again = validity_mod._cone_program(uni, MINIMIZE)
    assert again.rows == elemental and again.objective == {}

    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for position in range(3):  # n = 4, 5, 4, interleaved in this process
        here = cone_memo_answers(position)
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_ANSWERS, str(position)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == here + "\n"


def _record_package_programs(monkeypatch) -> list[tuple[LinearProgram, Head | None]]:
    """Every LP that validity and bounds solve from now on, in order, with
    the head it was solved from (None for a cold solve)."""
    built = []

    def recording(lp, head=None):
        built.append((lp, head))
        return solve(lp, head)

    monkeypatch.setattr(lp_mod, "solve", recording)
    monkeypatch.setattr(bounds_mod, "solve", recording)
    return built


def test_package_programs_match_dense_tableau(monkeypatch):
    """Every LP that the cone step of check_polymatroid (n=4) and the four
    bound methods build: same status, value, point, pivot count and duals
    from the head the package passes, cold and on the dense tableau."""
    built = _record_package_programs(monkeypatch)
    rng = random.Random(20261018)
    uni = universe("A", "B", "C", "D")
    for _ in range(12):
        validity_mod._cone_lp(rand_expr(rng, uni))
    methods = (
        bounds_mod.logbound_modular,
        bounds_mod.logbound_step,
        bounds_mod.logbound_polymatroid_dual,
        bounds_mod.logbound_simple_entropic,
    )
    for _ in range(12):
        query, sigma = rand_sigma(rng, n_max=4, simple=True)
        for method in methods:
            method(query, sigma)
    # 12 cone checks, then one LP per bound call: the polymatroid bound
    # solves one, and on these seeded systems each covering loop ends in one
    # round.
    assert len(built) == 60
    monkeypatch.undo()  # feasible calls lp.solve: record no more
    assert sum(head is not None for _, head in built) == 12
    for lp, head in built:
        assert solve(lp, head) == solve(lp) == dense_solve(lp)
        assert feasible(lp) == dense_feasible(lp)


def test_cone_lp_tail_programs_match_dense_tableau(monkeypatch):
    """The n=5 programs that make up the cone-lp latency tail, 20 cyclic
    polymatroid bounds of 95 rows x 31 columns and 4 cone checks: every
    LPResult field, from the n=5 head and cold, equals the dense tableau's."""
    built = _record_package_programs(monkeypatch)
    rng = random.Random(20261019)
    for _ in range(20):
        bounds_mod.logbound_polymatroid_dual(*cyclic_system(rng, 5))
    uni = universe("A", "B", "C", "D", "E")
    for _ in range(4):
        validity_mod._cone_lp(rand_expr(rng, uni))
    assert len(built) == 24
    assert {lp.shape for lp, _ in built[:20]} == {(95, 31)}
    assert all(head is validity_mod._cone_head(5) for _, head in built[:20])
    for lp, head in built:
        res = solve(lp, head)
        assert res.pivots > 0
        assert res == solve(lp) == dense_solve(lp)
