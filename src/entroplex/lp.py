"""Exact rational linear programming.

Two-phase simplex with Bland's rule, which is always on: the programs built
elsewhere in this package are highly degenerate and cycling must be
impossible rather than unlikely. Tableau rows are sparse and fraction-free
(Bareiss style): integer numerators of the nonzero columns over one positive
denominator per row, in lowest terms. Results cross the API boundary as
Fraction. An optimum comes with its point and the dual value of every row,
read off the final reduced costs (no second solve): for a minimization,
duals are >= 0 on `>=` rows and <= 0 on `<=` rows, c - A^T y >= 0, and
sum(rhs * y) is the optimal value; maximizing flips each sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .core import DomainError, Rat, _integer_row, self_check

MINIMIZE = "min"
MAXIMIZE = "max"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """minimize/maximize c.x subject to rows; every variable is >= 0."""

    n_vars: int
    sense: str = MINIMIZE
    objective: dict[int, Fraction] = field(default_factory=dict)
    rows: list[tuple[dict[int, Fraction], str, Fraction]] = field(default_factory=list)

    def set_objective(self, coeffs: Mapping[int, Rat]) -> None:
        self.objective = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        self._check_cols(self.objective)

    def add_row(self, coeffs: Mapping[int, Rat], rel: str, rhs: Rat) -> None:
        if rel not in (">=", "<=", "="):
            raise DomainError(f"unknown relation {rel!r}")
        row = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        self._check_cols(row)
        self.rows.append((row, rel, Fraction(rhs)))

    def _check_cols(self, coeffs: Mapping[int, Fraction]) -> None:
        for j in coeffs:
            if not 0 <= j < self.n_vars:
                raise DomainError(f"variable index {j} out of range")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.n_vars)


@dataclass(frozen=True)
class LPResult:
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


def _eliminate(nums: dict[int, int], den: int, c: int, piv: dict[int, int]) -> int:
    """Subtract the multiple of the pivot row (value 1 at c, so piv[c] is its
    denominator) that zeroes column c, in place; return the new denominator."""
    p = piv[c]
    g = math.gcd(nums[c], p)
    f = nums[c] // g
    scale = p // g
    if scale != 1:
        for j in nums:
            nums[j] *= scale
        den *= scale
    for j, v in piv.items():
        w = nums.get(j, 0) - f * v
        if w:
            nums[j] = w
        else:
            del nums[j]
    return _lowest_terms(nums, den)


class _Tableau:
    """Equality-form simplex tableau; row i is rows[i] / dens[i]."""

    def __init__(self, lp: LinearProgram):
        m = len(lp.rows)
        self.n_orig = lp.n_vars
        self.pivots = 0

        # Column layout: structural vars, then one slack/surplus per inequality
        # row, then artificials as needed; the rhs sits at column ncols.
        ncols = lp.n_vars
        sign = 1 if lp.sense == MINIMIZE else -1
        slack_col: list[Optional[int]] = [None] * m
        slack_sign: list[int] = [0] * m
        dual_sign: list[int] = [-sign] * m  # see dual_cols below
        norm_rows: list[tuple[Mapping[int, Rat], str, Rat]] = []
        for i, (coeffs, rel, rhs) in enumerate(lp.rows):
            if rhs < 0:
                coeffs = {j: -c for j, c in coeffs.items()}
                rhs = -rhs
                rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
                dual_sign[i] = sign
            norm_rows.append((coeffs, rel, rhs))
            if rel != "=":
                slack_col[i] = ncols
                slack_sign[i] = 1 if rel == "<=" else -1
                dual_sign[i] *= slack_sign[i]
                ncols += 1

        art_col: list[Optional[int]] = [None] * m
        basis: list[int] = [0] * m
        for i, (_, rel, rhs) in enumerate(norm_rows):
            if rel == "<=":
                basis[i] = slack_col[i]  # slack basic at rhs >= 0
            elif rel == ">=" and rhs == 0:
                basis[i] = slack_col[i]  # surplus basic at 0, row negated below
            else:
                art_col[i] = ncols
                basis[i] = ncols
                ncols += 1

        self.rows: list[dict[int, int]] = []
        self.dens: list[int] = []
        for i, (coeffs, rel, rhs) in enumerate(norm_rows):
            nums, den = _integer_row({**coeffs, ncols: rhs})
            if slack_col[i] is not None:
                nums[slack_col[i]] = slack_sign[i] * den
            if art_col[i] is not None:
                nums[art_col[i]] = den
            if basis[i] == slack_col[i] and slack_sign[i] == -1:
                nums = {j: -v for j, v in nums.items()}  # basic surplus at +1
            self.rows.append(nums)
            self.dens.append(_lowest_terms(nums, den))

        self.ncols = ncols
        self.basis = basis
        self.artificials = frozenset(c for c in art_col if c is not None)
        self.allowed = [True] * ncols
        self.cost = {j: sign * c for j, c in lp.objective.items()}
        # Row i's multiplier is -red / a at its slack column (a = the slack
        # sign) or else its artificial (a = 1), with the sign flipped back
        # for a negated rhs and for maximizing: dual_sign[i] * red.
        self.dual_cols = [
            (art if slack is None else slack, f)
            for slack, art, f in zip(slack_col, art_col, dual_sign)
        ]

    def _set_reduced_costs(self, cost: Mapping[int, Rat]) -> None:
        """red_j = c_j - c_B B^-1 A_j, with -c_B x_B in the rhs slot."""
        red, den = _integer_row(cost)
        for i, b in enumerate(self.basis):
            if b in red:  # a basic row is 1 at its column, 0 at other basics
                den = _eliminate(red, den, b, self.rows[i])
        self.red, self.red_den = red, den

    def _pivot(self, r: int, c: int) -> None:
        self.pivots += 1
        row = self.rows[r]
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        self.dens[r] = _lowest_terms(row, row[c])  # the pivot entry becomes 1
        for i, other in enumerate(self.rows):
            if i != r and c in other:
                self.dens[i] = _eliminate(other, self.dens[i], c, row)
        if c in self.red:
            self.red_den = _eliminate(self.red, self.red_den, c, row)
        self.basis[r] = c

    def _iterate(self) -> str:
        """Run simplex to optimality with Bland's rule. Returns a status.

        Denominators are positive, so signs and ratios are read off the
        numerators: rhs_i / a_i compares by integer cross-multiplication.
        """
        ncols = self.ncols
        allowed = self.allowed
        basis = self.basis
        while True:
            enter = min(
                (j for j, v in self.red.items() if v < 0 and j < ncols and allowed[j]),
                default=-1,
            )
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a > 0:
                    b = row.get(ncols, 0)
                    if leave >= 0:
                        lhs, rhs = b * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, best_b, best_a = i, b, a
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

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
        return tuple(Fraction(f * red.get(c, 0), den) for c, f in self.dual_cols)

    def extract_point(self) -> list[Fraction]:
        values = [Fraction(0)] * self.n_orig
        for i, b in enumerate(self.basis):
            if b < self.n_orig:
                values[b] = Fraction(self.rows[i].get(self.ncols, 0), self.dens[i])
        return values


def solve(lp: LinearProgram) -> LPResult:
    """Exact optimum, infeasibility, or unboundedness, deterministically."""
    tab = _Tableau(lp)
    status = tab.solve_two_phase()
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
    """Phase-one only; a feasible point when one exists."""
    probe = LinearProgram(lp.n_vars, MINIMIZE)
    probe.rows = lp.rows
    tab = _Tableau(probe)
    if tab.solve_two_phase() == INFEASIBLE:
        return False, None
    return True, tuple(tab.extract_point())
