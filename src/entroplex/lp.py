"""Exact rational linear programming.

Two-phase simplex with Bland's rule, which is always on: the programs built
elsewhere in this package are highly degenerate and cycling must be
impossible rather than unlikely. Tableau rows are sparse and fraction-free
(Bareiss style): integer numerators of the nonzero columns over one positive
denominator per row, in lowest terms. Each pivot scans the rows once for the
entering column: the ratio test reads the rows that hold it, and the pivot
eliminates exactly those rows. One elimination routine serves the rows and
the reduced costs; it skips the gcd when the pivot row's denominator is 1
and the reduction to lowest terms when the target row's is. A program keeps
int coefficients as int and makes every other number an exact Fraction, so
an all-integer row reaches the tableau without a Fraction round trip.
Results cross the API boundary as Fraction. An optimum comes with its point
and the dual value of every row, read off the final reduced costs (no second
solve): for a minimization, duals are >= 0 on `>=` rows and <= 0 on `<=`
rows, c - A^T y >= 0, and sum(rhs * y) is the optimal value; maximizing
flips each sign.

A `Head` is a program's first rows, all inequalities at rhs 0 (so no phase
1), pivoted by Bland on those rows alone until the simplex stops, then kept
read-only with a map from each basic column to its row. `solve(lp, head)`
copies the head's rows, basis and reduced costs, appends each remaining
row expressed in the head's basis, and goes on from the head's pivot count.
The cold solve of the same program makes the head's pivots first, for
three reasons: every head pivot is degenerate; the entering column depends
only on the objective; and each appended `<=` row's slack has a larger
index than every head basis column, so at rhs >= 0 the row loses every
ratio-test tie. A tableau row in lowest terms is fixed by its basis, so
every result field, pivots and duals included, is the cold solve's. A
program whose first rows are not the head's row objects, whose objective or
sense differs, or whose later rows are not `<=` at rhs >= 0 is a
DomainError, never a cold solve.

A row joins a basis by lookup, both an appended row and the cost row at
each phase: it eliminates only the basic columns it holds, each by the row
a {basic column: row} map names. A tableau row is 1 at its basic column and
0 at the other basic columns, so no elimination adds a basic column, and
any order leaves the same row in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional

from .core import DomainError, Rat, _integer_row, self_check

MINIMIZE = "min"
MAXIMIZE = "max"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)  # every zero entry of a result


def _exact(value: Rat) -> Rat:
    """An int as it is, any other number as the exact Fraction it equals."""
    return value if type(value) is int else Fraction(value)


class LinearProgram:
    """minimize/maximize c.x subject to rows; every variable is >= 0."""

    __slots__ = ("n_vars", "sense", "objective", "rows")

    def __init__(
        self,
        n_vars: int,
        sense: str = MINIMIZE,
        objective: Optional[dict[int, Rat]] = None,
        rows: Optional[list[tuple[Mapping[int, Rat], str, Rat]]] = None,
    ) -> None:
        self.n_vars = n_vars
        self.sense = sense
        self.objective = {} if objective is None else objective
        self.rows = [] if rows is None else rows

    __hash__ = None  # mutable

    def __eq__(self, other):
        if other.__class__ is LinearProgram:
            return (self.n_vars, self.sense, self.objective, self.rows) == (
                other.n_vars, other.sense, other.objective, other.rows)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"LinearProgram(n_vars={self.n_vars!r}, sense={self.sense!r}, "
                f"objective={self.objective!r}, rows={self.rows!r})")

    def set_objective(self, coeffs: Mapping[int, Rat]) -> None:
        self.objective = {j: _exact(c) for j, c in coeffs.items() if c != 0}
        self._check_cols(self.objective)

    def add_row(self, coeffs: Mapping[int, Rat], rel: str, rhs: Rat) -> None:
        if rel not in (">=", "<=", "="):
            raise DomainError(f"unknown relation {rel!r}")
        row = {j: _exact(c) for j, c in coeffs.items() if c != 0}
        self._check_cols(row)
        self.rows.append((row, rel, _exact(rhs)))

    def _check_cols(self, coeffs: Mapping[int, Rat]) -> None:
        for j in coeffs:
            if not 0 <= j < self.n_vars:
                raise DomainError(f"variable index {j} out of range")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.n_vars)


class LPResult(NamedTuple):
    status: str
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0
    duals: Optional[tuple[Fraction, ...]] = None


def _lowest_terms(nums: dict[int, int], den: int) -> int:
    """Divide a row by gcd(den, *nums) in place; return the new denominator."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            for j in nums:
                nums[j] //= g
            den //= g
    return den


def _eliminate(
    nums: dict[int, int], den: int, c: int, pivot: Iterable[tuple[int, int]], p: int,
) -> int:
    """Subtract the multiple of the pivot row (items `pivot`, value 1 at c, so
    its entry p there is its denominator) that zeroes column c, in place;
    return the new denominator."""
    f = nums[c]
    if p != 1:
        g = math.gcd(f, p)
        f //= g
        scale = p // g
        if scale != 1:
            for j in nums:
                nums[j] *= scale
            den *= scale
    for j, v in pivot:
        w = nums.get(j, 0) - f * v
        if w:
            nums[j] = w
        else:
            del nums[j]
    return den if den == 1 else _lowest_terms(nums, den)


def _in_basis(
    nums: dict[int, int], den: int, basic: Mapping[int, dict[int, int]],
) -> int:
    """Eliminate from a row every basic column it holds, each by the tableau
    row `basic` maps it to, in place; return the new denominator. Any order
    gives the same row (see the module notes)."""
    for b in [j for j in nums if j in basic]:
        row = basic[b]
        den = _eliminate(nums, den, b, row.items(), row[b])
    return den


class _Tableau:
    """Equality-form simplex tableau; row i is rows[i] / dens[i]. Started
    from a head, it holds the head's pivoted rows and basis and appends the
    program's remaining rows expressed in that basis."""

    def __init__(self, lp: LinearProgram, head: Optional[Head] = None):
        self.n_orig = lp.n_vars
        sign = 1 if lp.sense == MINIMIZE else -1

        # Column layout: structural vars, then one slack/surplus per inequality
        # row, then artificials for the rows whose slack cannot start basic
        # (equalities, and >= rows at a positive rhs once a negative rhs is
        # flipped); the rhs sits at column ncols.
        slack = lp.n_vars
        art = slack + sum(rel != "=" for _, rel, _ in lp.rows)
        ncols = art + sum(
            rel == "=" or (rhs > 0 if rel == ">=" else rhs < 0)
            for _, rel, rhs in lp.rows
        )
        self.artificials = frozenset(range(art, ncols))
        # Row i's multiplier is -red / a at its slack column (a = the slack
        # sign) or else its artificial (a = 1), with the sign flipped back
        # for a negated rhs and for maximizing: f * red.
        if head is None:
            self.pivots = 0
            self.rows: list[dict[int, int]] = []
            self.dens: list[int] = []
            self.basis: list[int] = []
            self.dual_cols: list[tuple[int, int]] = []
            rows = lp.rows
        else:
            rows = head.tail(lp)
            start = head.tableau
            self.pivots = start.pivots
            self.rows = [dict(row) for row in start.rows]
            self.dens = list(start.dens)
            self.basis = list(start.basis)
            self.dual_cols = list(start.dual_cols)
            slack += len(start.rows)
        for coeffs, rel, rhs in rows:
            nums, den = _integer_row({**coeffs, ncols: rhs} if rhs else coeffs)
            f = -sign
            if rhs < 0 or (rel == ">=" and rhs == 0):
                # A negative rhs flips the row; a >= row at rhs 0 is negated
                # so that its surplus is basic at +1.
                for j in nums:
                    nums[j] = -nums[j]
                if rhs < 0:
                    rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
                    f = sign
            if rel == "=":
                nums[art] = den
                self.basis.append(art)
                self.dual_cols.append((art, f))
                art += 1
            else:
                if rel == "<=" or rhs == 0:
                    nums[slack] = den  # slack or negated surplus, basic
                    self.basis.append(slack)
                else:
                    nums[slack] = -den
                    nums[art] = den
                    self.basis.append(art)
                    art += 1
                self.dual_cols.append((slack, f if rel == "<=" else -f))
                slack += 1
            self.rows.append(nums)
            self.dens.append(_lowest_terms(nums, den))

        self.ncols = ncols
        self.allowed = [True] * ncols
        self.cost = {j: sign * c for j, c in lp.objective.items()}
        if head is not None:
            for i in range(len(start.rows), len(self.rows)):
                self.dens[i] = _in_basis(self.rows[i], self.dens[i], head.basic)
            self.red, self.red_den = dict(start.red), start.red_den

    def _set_reduced_costs(self, cost: Mapping[int, Rat]) -> None:
        """red_j = c_j - c_B B^-1 A_j, with -c_B x_B in the rhs slot."""
        red, den = _integer_row(cost)
        self.red_den = _in_basis(red, den, dict(zip(self.basis, self.rows)))
        self.red = red

    def _pivot(self, r: int, c: int, holders: list[int]) -> None:
        """Pivot on row r at its positive entry in column c; holders lists
        every row that holds c."""
        self.pivots += 1
        rows, dens = self.rows, self.dens
        row = rows[r]
        p = dens[r] = _lowest_terms(row, row[c])  # the pivot entry becomes 1
        pivot = tuple(row.items())
        for i in holders:
            if i != r:
                dens[i] = _eliminate(rows[i], dens[i], c, pivot, p)
        if c in self.red:
            self.red_den = _eliminate(self.red, self.red_den, c, pivot, p)
        self.basis[r] = c

    def _iterate(self) -> str:
        """Run simplex to optimality with Bland's rule. Returns a status.

        Denominators are positive, so signs and ratios are read off the
        numerators: rhs_i / a_i compares by integer cross-multiplication.
        """
        ncols = self.ncols
        allowed = self.allowed
        basis = self.basis
        rows = self.rows
        while True:
            enter = min(
                (j for j, v in self.red.items() if v < 0 and j < ncols and allowed[j]),
                default=-1,
            )
            if enter < 0:
                return OPTIMAL
            holders = [i for i, row in enumerate(rows) if enter in row]
            leave = -1
            best_b = best_a = 0
            for i in holders:
                row = rows[i]
                a = row[enter]
                if a > 0:
                    b = row.get(ncols, 0)
                    if leave >= 0:
                        lhs, rhs = b * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, best_b, best_a = i, b, a
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, holders)

    def solve_two_phase(self) -> str:
        ncols = self.ncols
        if self.artificials:
            if any(
                self.rows[i].get(ncols, 0)
                for i, b in enumerate(self.basis)
                if b in self.artificials
            ):
                self._set_reduced_costs({j: 1 for j in self.artificials})
                status = self._iterate()
                self_check(status == OPTIMAL, "phase 1 is bounded below by 0")
                if self.red.get(ncols, 0) != 0:
                    return INFEASIBLE
            for j in self.artificials:
                self.allowed[j] = False
        self._set_reduced_costs(self.cost)
        return self._iterate()

    def extract_duals(self) -> tuple[Fraction, ...]:
        red, den = self.red, self.red_den
        return tuple(
            Fraction(f * red[c], den) if c in red else _ZERO for c, f in self.dual_cols
        )

    def extract_point(self) -> list[Fraction]:
        values = [_ZERO] * self.n_orig
        for i, b in enumerate(self.basis):
            if b < self.n_orig:
                rhs = self.rows[i].get(self.ncols)
                if rhs:
                    values[b] = Fraction(rhs, self.dens[i])
        return values


class Head:
    """A program's first rows pivoted once, for every program that starts
    with the same row objects and has the same objective and sense; kept
    read-only (see the module notes)."""

    __slots__ = ("n_vars", "sense", "objective", "rows", "tableau", "basic")

    def __init__(self, lp: LinearProgram) -> None:
        if any(rel == "=" or rhs != 0 for _, rel, rhs in lp.rows):
            raise DomainError("a head's rows are inequalities at rhs 0")
        tab = _Tableau(lp)
        tab.solve_two_phase()
        self.n_vars, self.sense = lp.n_vars, lp.sense
        self.objective = dict(lp.objective)
        self.rows = tuple(lp.rows)
        self.tableau = tab
        self.basic = dict(zip(tab.basis, tab.rows))  # column -> its row

    def tail(self, lp: LinearProgram) -> list[tuple[Mapping[int, Rat], str, Rat]]:
        """The rows of lp after the head's; a DomainError unless lp extends
        the head by `<=` rows at a rhs >= 0."""
        k = len(self.rows)
        if (
            (lp.n_vars, lp.sense, lp.objective)
            != (self.n_vars, self.sense, self.objective)
            or len(lp.rows) < k
            or any(a is not b for a, b in zip(self.rows, lp.rows))
        ):
            raise DomainError("the program does not extend the head")
        tail = lp.rows[k:]
        if any(rel != "<=" or rhs < 0 for _, rel, rhs in tail):
            raise DomainError("a row after the head must be <= at a rhs >= 0")
        return tail


def solve(lp: LinearProgram, head: Optional[Head] = None) -> LPResult:
    """Exact optimum, infeasibility, or unboundedness, deterministically.
    Started from a head, the result is the same, pivot count included."""
    tab = _Tableau(lp, head)
    status = tab.solve_two_phase() if head is None else tab._iterate()
    if status == INFEASIBLE:
        return LPResult(INFEASIBLE, pivots=tab.pivots)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=tab.pivots)
    point = tab.extract_point()
    value = sum((c * point[j] for j, c in lp.objective.items()), Fraction(0))
    return LPResult(
        OPTIMAL, value=value, point=tuple(point), pivots=tab.pivots,
        duals=tab.extract_duals(),
    )


def feasible(lp: LinearProgram) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Solve over the same rows with no objective; a feasible point when one
    exists."""
    result = solve(LinearProgram(lp.n_vars, MINIMIZE, rows=lp.rows))
    if result.status == INFEASIBLE:
        return False, None
    return True, result.point
