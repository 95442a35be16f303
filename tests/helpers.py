"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately naive: independent recomputations that the
package modules are checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from entroplex import (
    Expr,
    Universe,
    basic_modular,
    enumerate_monotone_boolean,
    evaluate,
    is_monotone,
    make_expr,
    step_function,
    universe,
)
from entroplex.lp import (
    INFEASIBLE,
    LinearProgram,
    LPResult,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    UNBOUNDED,
    feasible,
)
from entroplex.functions import _elemental_rows

BOX = Fraction(10**18)


def rand_expr(rng: random.Random, uni: Universe, lo: int = -2, hi: int = 2) -> Expr:
    terms = {}
    for mask in range(1, uni.full_mask + 1):
        c = rng.randint(lo, hi)
        if c:
            terms[mask] = Fraction(c)
    return make_expr(uni, terms)


def monotone_brute(expr: Expr) -> bool:
    """Dedekind-style oracle: test every monotone 0/1 function directly."""
    return all(
        evaluate(expr, fn) >= 0 for fn in enumerate_monotone_boolean(expr.universe)
    )


def pairing_lp_monotone(expr: Expr) -> bool:
    """The pairing program the max-flow decider replaced: one variable per
    (negative set, containing positive set) pair; demand rows require each
    negative coefficient to be covered, capacity rows keep each positive
    coefficient from being overdrawn. Feasible iff valid over monotone
    functions."""
    lhs, rhs = expr.two_sided()
    pos = sorted(lhs)
    neg = sorted(rhs)
    pairs = [(y, x) for y in neg for x in pos if y & ~x == 0]
    index = {p: k for k, p in enumerate(pairs)}
    lp = LinearProgram(len(pairs))
    for y in neg:
        row = {index[(y, x)]: 1 for x in pos if (y, x) in index}
        lp.add_row(row, ">=", rhs[y])
    for x in pos:
        row = {index[(y, x)]: 1 for y in neg if (y, x) in index}
        lp.add_row(row, "<=", lhs[x])
    ok, _ = feasible(lp)
    return ok


def step_brute(expr: Expr) -> bool:
    uni = expr.universe
    return all(
        evaluate(expr, step_function(uni, v)) >= 0
        for v in range(1, uni.full_mask + 1)
    )


def step_first_failing(expr: Expr) -> Optional[int]:
    """The step checker the bit-sliced kernel replaced: walk the nonempty
    sets as sorted index tuples, {0},{0,1},...,{n-1}, summing the exact
    coefficient of each term that meets the set; the first set with a
    negative total, or None."""
    n = expr.universe.n
    terms = list(expr.terms.items())

    def lex_subset_masks(prefix: int, start: int):
        for i in range(start, n):
            m = prefix | 1 << i
            yield m
            yield from lex_subset_masks(m, i + 1)

    for v in lex_subset_masks(0, 0):
        if sum(k for mask, k in terms if mask & v) < 0:
            return v
    return None


def modular_brute(expr: Expr) -> bool:
    uni = expr.universe
    return all(
        evaluate(expr, basic_modular(uni, name)) >= 0 for name in uni.names
    )


def _solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Exact Gaussian elimination; None if the system is singular."""
    n = len(rhs)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def vertex_oracle(lp: LinearProgram):
    """Solve by enumerating vertices of the box-clipped feasible region.

    Returns (status, value) with the same status constants as lp.solve.
    Sound because an optimum attained off the box faces is optimal for the
    unclipped program as well.
    """
    n = lp.n_vars
    ineqs: list[tuple[list[Fraction], Fraction]] = []  # a . x >= b
    for coeffs, op, rhs in lp.rows:
        a = [Fraction(coeffs.get(i, 0)) for i in range(n)]
        b = Fraction(rhs)
        if op in (">=", "="):
            ineqs.append((a, b))
        if op in ("<=", "="):
            ineqs.append(([-v for v in a], -b))
    for i in range(n):
        unit = [Fraction(0)] * n
        unit[i] = Fraction(1)
        ineqs.append((unit[:], Fraction(0)))
        ineqs.append(([-v for v in unit], -BOX))
    obj = [Fraction(lp.objective.get(i, 0)) for i in range(n)]
    sign = -1 if lp.sense == MAXIMIZE else 1

    best: Optional[Fraction] = None
    best_off_box = False
    feasible_seen = False
    for chosen in itertools.combinations(range(len(ineqs)), n):
        point = _solve_square(
            [ineqs[k][0] for k in chosen], [ineqs[k][1] for k in chosen]
        )
        if point is None:
            continue
        if any(
            sum(a_i * x_i for a_i, x_i in zip(a, point)) < b for a, b in ineqs
        ):
            continue
        feasible_seen = True
        value = sign * sum(c * x for c, x in zip(obj, point))
        off_box = all(x < BOX for x in point)
        if best is None or value < best:
            best, best_off_box = value, off_box
        elif value == best and off_box:
            best_off_box = True
    if not feasible_seen:
        return INFEASIBLE, None
    assert best is not None
    if not best_off_box:
        return UNBOUNDED, None
    return OPTIMAL, sign * best


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _DenseTableau:
    """Dense equality-form simplex tableau over Fraction."""

    def __init__(self, lp: LinearProgram):
        m = len(lp.rows)
        self.n_orig = lp.n_vars
        self.pivots = 0

        # Column layout: structural vars, then one slack/surplus per inequality
        # row, then artificials as needed.
        ncols = lp.n_vars
        slack_col: list[Optional[int]] = [None] * m
        slack_sign: list[int] = [0] * m
        flipped: list[bool] = [False] * m
        norm_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for i, (coeffs, rel, rhs) in enumerate(lp.rows):
            kc = {j: Fraction(c) for j, c in coeffs.items()}
            krhs = Fraction(rhs)
            if krhs < 0:
                kc = {j: -c for j, c in kc.items()}
                krhs = -krhs
                rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
                flipped[i] = True
            norm_rows.append((kc, rel, krhs))
            if rel != "=":
                slack_col[i] = ncols
                slack_sign[i] = 1 if rel == "<=" else -1
                ncols += 1

        art_col: list[Optional[int]] = [None] * m
        basis: list[int] = [0] * m
        for i, (_, rel, krhs) in enumerate(norm_rows):
            if rel == "<=":
                basis[i] = slack_col[i]  # slack basic at rhs >= 0
            elif rel == ">=" and krhs == 0:
                basis[i] = slack_col[i]  # surplus basic at 0, row negated below
            else:
                art_col[i] = ncols
                basis[i] = ncols
                ncols += 1

        rows: list[list[Fraction]] = []
        for i, (kc, rel, krhs) in enumerate(norm_rows):
            row = [_ZERO] * (ncols + 1)
            for j, c in kc.items():
                row[j] = c
            if slack_col[i] is not None:
                row[slack_col[i]] = Fraction(slack_sign[i])
            if art_col[i] is not None:
                row[art_col[i]] = _ONE
            row[ncols] = krhs
            if basis[i] == slack_col[i] and slack_sign[i] == -1:
                row = [-v for v in row]  # make the basic surplus column +1
            rows.append(row)

        self.rows = rows
        self.ncols = ncols
        self.basis = basis
        self.artificials = frozenset(c for c in art_col if c is not None)
        self.allowed = [True] * ncols

        sign = _ONE if lp.sense == MINIMIZE else -_ONE
        self.cost = [_ZERO] * ncols
        for j, c in lp.objective.items():
            self.cost[j] = sign * Fraction(c)
        self.sense_sign = sign
        # The column whose reduced cost gives row i's multiplier, and that
        # column's entry in the row before the basic-surplus negation.
        self.dual_source = []
        for i in range(m):
            if slack_col[i] is not None:
                col, entry = slack_col[i], Fraction(slack_sign[i])
            else:
                col, entry = art_col[i], _ONE
            if flipped[i]:
                entry = -entry
            self.dual_source.append((col, entry))

    def _reduced_cost_row(self, cost: Sequence[Fraction]) -> list[Fraction]:
        """r_j = c_j - c_B B^-1 A_j, with the current rhs in the last slot."""
        red = list(cost) + [_ZERO]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        red[j] -= cb * row[j]
                red[self.ncols] -= cb * row[self.ncols]
        return red

    def _pivot(self, r: int, c: int, red: list[Fraction]) -> None:
        self.pivots += 1
        row = self.rows[r]
        piv = row[c]
        if piv != 1:
            inv = _ONE / piv
            self.rows[r] = row = [v * inv for v in row]
        for other in self.rows:
            if other is row:
                continue
            factor = other[c]
            if factor != 0:
                for j in range(self.ncols + 1):
                    if row[j] != 0:
                        other[j] -= factor * row[j]
        factor = red[c]
        if factor != 0:
            for j in range(self.ncols + 1):
                if row[j] != 0:
                    red[j] -= factor * row[j]
        self.basis[r] = c

    def _iterate(self, red: list[Fraction]) -> str:
        """Run simplex to optimality with Bland's rule. Returns a status."""
        ncols = self.ncols
        while True:
            enter = -1
            for j in range(ncols):
                if self.allowed[j] and red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[ncols] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, red)

    def solve_two_phase(self) -> tuple[str, list[Fraction]]:
        ncols = self.ncols
        if self.artificials:
            start_infeasibility = sum(
                self.rows[i][ncols]
                for i in range(len(self.rows))
                if self.basis[i] in self.artificials
            )
            if start_infeasibility != 0:
                phase1_cost = [
                    _ONE if j in self.artificials else _ZERO for j in range(ncols)
                ]
                red = self._reduced_cost_row(phase1_cost)
                status = self._iterate(red)
                assert status == OPTIMAL  # phase 1 is bounded below by 0
                if -red[ncols] != 0:
                    return INFEASIBLE, []
            for j in self.artificials:
                self.allowed[j] = False
        red = self._reduced_cost_row(self.cost)
        status = self._iterate(red)
        return status, red

    def extract_duals(self, red: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """y = c_B B^-1 from red_j = c_j - y.A_j at a zero-cost column,
        restated for the rows as given (the rhs negation undone) and for
        the program's own sense."""
        return tuple(
            self.sense_sign * -red[col] / entry for col, entry in self.dual_source
        )

    def extract_point(self) -> list[Fraction]:
        values = [_ZERO] * self.ncols
        for i, b in enumerate(self.basis):
            values[b] = self.rows[i][self.ncols]
        return values[: self.n_orig]



def dense_solve(lp: LinearProgram) -> LPResult:
    """The dense Fraction simplex the sparse kernel replaced: same Bland
    path, so every field of the result, pivots included, must agree."""
    tab = _DenseTableau(lp)
    status, red = tab.solve_two_phase()
    if status == INFEASIBLE:
        return LPResult(INFEASIBLE, pivots=tab.pivots)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=tab.pivots)
    point = tab.extract_point()
    value = sum((c * point[j] for j, c in lp.objective.items()), Fraction(0))
    return LPResult(
        OPTIMAL, value=value, point=tuple(point), pivots=tab.pivots,
        duals=tab.extract_duals(red),
    )


def dense_feasible(lp: LinearProgram) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    probe = LinearProgram(lp.n_vars, MINIMIZE)
    probe.rows = lp.rows
    tab = _DenseTableau(probe)
    status, _ = tab.solve_two_phase()
    if status == INFEASIBLE:
        return False, None
    return True, tuple(tab.extract_point())


def rand_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    lp = LinearProgram(n, sense=rng.choice(["min", "max"]))
    lp.set_objective(
        {i: Fraction(rng.randint(-5, 5)) for i in range(n) if rng.random() < 0.9}
    )
    for _ in range(rng.randint(1, 6)):
        coeffs = {
            i: Fraction(rng.randint(-4, 4)) for i in range(n) if rng.random() < 0.8
        }
        lp.add_row(coeffs, rng.choice([">=", "<=", "="]), Fraction(rng.randint(-6, 6)))
    return lp


def rand_sigma(
    rng: random.Random, n_max=5, simple=False, acyclic=False, n_min=1,
    entries_range=None,
):
    """Random guarded degree system over a single all-covering atom, with
    1 to 5 entries (6 if simple) unless entries_range gives the bounds."""
    from entroplex import GuardedEntry, GuardedSigma, Query, conditional

    n = rng.randint(n_min, n_max)
    uni = universe(*[f"V{i}" for i in range(n)])
    query = Query(uni, (("R0", uni.full_mask),))
    entries = []
    lo, hi = entries_range or (1, 6 if simple else 5)
    for _ in range(rng.randint(lo, hi)):
        if acyclic:
            # condition entirely before the target in variable order
            split = rng.randint(0, n - 1)
            u = rng.getrandbits(split) if split else 0
            v = 0
            for i in range(split, n):
                if rng.random() < 0.6:
                    v |= 1 << i
            if not v:
                v = 1 << rng.randrange(split, n)
        else:
            v = rng.randint(1, uni.full_mask)
            u = rng.randint(0, uni.full_mask) & ~v
            if simple:
                u = (1 << rng.randrange(n)) & ~v if rng.random() < 0.7 else 0
        d = rng.choice([1, 2, 3, 4])
        b = Fraction(rng.randint(0, 3 * d), d)
        entries.append(GuardedEntry(conditional(v, u), 0, b))
    return query, GuardedSigma(uni, tuple(entries))


def polymatroid_bound_dual_program(sigma) -> LinearProgram:
    """The explicit dual the polymatroid bound used to solve second:
    minimize the budget sum(b_i * w_i) over weights w >= 0 and elemental
    multipliers lam >= 0 such that, set by set, the weighted form minus
    sum(lam_e * E_e) covers h(full). Infeasible exactly when the bound is
    infinite; otherwise its optimum is the bound."""
    uni = sigma.universe
    k = len(sigma.entries)
    elemental = _elemental_rows(uni)
    dual = LinearProgram(k + len(elemental))
    dual.set_objective(
        {i: entry.log_degree for i, entry in enumerate(sigma.entries)}
    )
    columns: dict[int, dict[int, Fraction]] = {
        m: {} for m in range(1, uni.full_mask + 1)
    }
    for i, entry in enumerate(sigma.entries):
        cond = entry.sigma
        columns[cond.joint][i] = Fraction(1)
        if cond.condition:
            columns[cond.condition][i] = Fraction(-1)
    for e, row in enumerate(elemental):
        for m, c in row.items():
            columns[m][k + e] = columns[m].get(k + e, Fraction(0)) - c
    for m in sorted(columns):
        dual.add_row(columns[m], ">=", 1 if m == uni.full_mask else 0)
    return dual


def polymatroid_brute(fn) -> bool:
    """Monotone, and f(S) + f(T) >= f(S | T) + f(S & T) for every pair."""
    size = 1 << fn.universe.n
    v = fn.values
    return is_monotone(fn) and all(
        v[s] + v[t] >= v[s | t] + v[s & t] for s in range(size) for t in range(size)
    )


def product_join(atom_schemas, relations):
    """Join by scanning the full product of active domains, one value per column.

    atom_schemas: list of (column name tuple) per atom; relations: matching
    list of row sets. Returns the set of result tuples over the sorted union
    of columns.
    """
    columns = sorted({c for schema in atom_schemas for c in schema})
    domain = sorted({v for rows in relations for row in rows for v in row})
    out = set()
    for values in itertools.product(domain, repeat=len(columns)):
        bound = dict(zip(columns, values))
        ok = all(
            tuple(bound[c] for c in schema) in rows
            for schema, rows in zip(atom_schemas, relations)
        )
        if ok:
            out.add(values)
    return out
