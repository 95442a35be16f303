"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately naive: independent recomputations that the
package modules are checked against.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Sequence

from entroplex import (
    DomainError,
    Expr,
    SetFunction,
    Universe,
    basic_modular,
    combine,
    cond_entropy,
    entropy,
    evaluate,
    expand_measure,
    is_monotone,
    make_expr,
    multi_mutual_info,
    parse_constraints,
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
    solve,
)
from entroplex.core import set_representation
from entroplex.functions import _elemental_rows
from entroplex.reductions import COLORS
from entroplex.validity import STEP_CLASSES, Verdict, Witness

BOX = Fraction(10**18)
MONOTONE_ENUM_MAX_N = 5
BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """The module bench/<name>.py, loaded without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class is being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def peak_bytes(call):
    """call() and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def rand_expr(rng: random.Random, uni: Universe, lo: int = -2, hi: int = 2) -> Expr:
    terms = {}
    for mask in range(1, uni.full_mask + 1):
        c = rng.randint(lo, hi)
        if c:
            terms[mask] = Fraction(c)
    return make_expr(uni, terms)


def enumerate_monotone_boolean(uni: Universe) -> Iterator[SetFunction]:
    """Every monotone 0/1 function with value({}) = 0, each exactly once.

    Equivalently the upward-closed families of nonempty subsets. Yielded in
    increasing order of the family bitmask (bit m set iff value(mask m) = 1).
    Counts follow the Dedekind numbers minus one: 2, 5, 19, 167, 7580 for
    n = 1..5.
    """
    n = uni.n
    if n > MONOTONE_ENUM_MAX_N:
        raise DomainError(
            f"monotone enumeration capped at n <= {MONOTONE_ENUM_MAX_N}"
        )
    size = 1 << n
    masks = list(range(1, size))
    # Deciding membership for larger sets first makes the monotonicity check
    # local: mask may be 1 only if all its immediate supersets are 1.
    order = sorted(masks, key=lambda m: (-bin(m).count("1"), m))
    supersets = {
        m: [m | 1 << i for i in range(n) if not m >> i & 1] for m in masks
    }
    families: list[int] = []

    def assign(pos: int, family: int) -> None:
        if pos == len(order):
            families.append(family)
            return
        m = order[pos]
        assign(pos + 1, family)  # value(m) = 0
        if all(family >> s & 1 for s in supersets[m]):
            assign(pos + 1, family | 1 << m)

    assign(0, 0)
    one, zero = Fraction(1), Fraction(0)
    for family in sorted(families):
        yield SetFunction(
            uni,
            tuple(one if m and family >> m & 1 else zero for m in range(size)),
        )


def upset_indicator(uni: Universe, gens: Sequence[int]) -> SetFunction:
    """The 0/1 function that is 1 on the supersets of any generator, every
    value stored: the eager reference for the package's on-demand up-sets."""
    one, zero = Fraction(1), Fraction(0)
    values = [zero] * (1 << uni.n)
    for m in range(1, 1 << uni.n):
        if any(g & ~m == 0 for g in gens):
            values[m] = one
    return SetFunction(uni, tuple(values))


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


def step_kernel_unblocked(expr: Expr) -> Verdict:
    """The step kernel before check_step split the sets into blocks: every
    term's 2^n-bit bitmap summed in carry-save form, then one descent of
    the lexicographic tree. check_step must return the same verdict,
    witness included."""
    uni = expr.universe
    n = uni.n
    positives, negatives = set_representation(expr)
    negative_total = sum(negatives.values())
    w = max(negative_total, sum(positives.values())).bit_length() + 1
    size = 1 << n
    every = (1 << size) - 1
    has = []
    for i in range(n):
        half = 1 << i
        pattern, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            pattern |= pattern << period
            period <<= 1
        has.append(pattern)

    def hit(mask: int) -> int:
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= has[i]
        return out

    start = (1 << (w - 1)) - negative_total
    cols = [[every] if start >> j & 1 else [] for j in range(w)]

    def add(x: int, k: int) -> None:
        for j in range(k.bit_length()):
            if k >> j & 1:
                c = x
                for col in cols[j:]:
                    if len(col) < 2:
                        col.append(c)
                        break
                    a, b = col
                    t = a ^ b
                    col[:] = (t ^ c,)
                    c = (a & b) | (c & t)

    for mask, k in positives.items():
        add(hit(mask), k)
    for mask, k in negatives.items():
        add(every ^ hit(mask), k)
    carry = 0
    for col in cols[:-1]:
        if len(col) == 2:
            a, b = col
            carry = (a & b) | (carry & (a ^ b))
        else:
            carry = carry & col[0] if col else 0
    top = carry
    for x in cols[-1]:
        top ^= x
    negative = every ^ top
    if not negative:
        return Verdict(True, STEP_CLASSES, "step-enumeration")
    v = 0
    below = every
    for i in range(n):
        below &= ~has[i]
        m = v | 1 << i
        if negative >> m & below:
            v = m
            if negative >> v & 1:
                break
    witness = Witness("step", step_function(uni, v), step_set=v)
    return Verdict(False, STEP_CLASSES, "step-enumeration", witness=witness)


def monsat_by_measures(phi) -> Expr:
    """from_3dmonsat as its docstring states it: h(X|C) per positive clause
    and I(C) per negative clause, against h(X)."""
    uni = Universe(tuple(sorted(phi.variables)))
    full = uni.full_mask
    parts = [(-1, expand_measure(uni, entropy(full)))]
    parts += [(1, expand_measure(uni, cond_entropy(full, uni.mask(c))))
              for c in phi.positive]
    parts += [(1, expand_measure(uni, multi_mutual_info(uni.mask(c))))
              for c in phi.negative]
    return combine(uni, parts)


def coloring_by_measures(g) -> Expr:
    """from_3coloring as measures: each singleton h(v_c), and the block
    weight times h(X | pair) for each ordered color pair of a vertex and
    each edge's same-color pair, against the weight times h(X)."""
    uni = Universe(tuple(sorted(f"{v}_{c}" for v in g.vertices for c in COLORS)))
    full = uni.full_mask
    weight = 2 * len(g.vertices) + 1
    pairs = [uni.mask([f"{v}_{c}", f"{v}_{d}"])
             for v in g.vertices for c, d in itertools.permutations(COLORS, 2)]
    pairs += [uni.mask([f"{a}_{c}", f"{b}_{c}"]) for a, b in g.edges for c in COLORS]
    parts = [(-weight, expand_measure(uni, entropy(full)))]
    parts += [(1, expand_measure(uni, entropy(uni.mask([f"{v}_{c}"]))))
              for v in g.vertices for c in COLORS]
    parts += [(weight, expand_measure(uni, cond_entropy(full, m))) for m in pairs]
    return combine(uni, parts)


def partition_by_measures(inst) -> Expr:
    """from_partition as measures: ((m/2)^2 - 1) h(X) minus each pair's
    item product times h(Ai|Aj) + h(Aj|Ai)."""
    items = inst.items
    uni = Universe(tuple(f"A{i + 1}" for i in range(len(items))))
    parts = [((sum(items) // 2) ** 2 - 1, expand_measure(uni, entropy(uni.full_mask)))]
    for i, j in itertools.combinations(range(len(items)), 2):
        x = items[i] * items[j]
        parts.append((-x, expand_measure(uni, cond_entropy(1 << i, 1 << j))))
        parts.append((-x, expand_measure(uni, cond_entropy(1 << j, 1 << i))))
    return combine(uni, parts)


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


def han_text(n: int) -> str:
    """Han's inequality over V0..V(n-1): the n sets that miss one variable
    each against n - 1 times the whole set. Valid over polymatroids."""
    names = [f"V{i}" for i in range(n)]
    lhs = " + ".join(
        f"h({','.join(names[:i] + names[i + 1:])})" for i in range(n)
    )
    return f"{lhs} >= {n - 1}*h({','.join(names)})\n"


def cyclic_system(rng, n):
    """R_i(V_i, V_i+1, V_i+2) around a cycle, each with a cardinality and a
    degree constraint: cyclic and not simple."""
    return parse_constraints(cyclic_text(rng, n))


def cyclic_text(rng, n):
    """cyclic_system's constraint file."""
    names = [f"V{i}" for i in range(n)]
    atoms = [(names[i], names[(i + 1) % n], names[(i + 2) % n]) for i in range(n)]
    lines = ["query Q(%s) = %s" % (",".join(names), ", ".join(
        f"R{i}({','.join(a)})" for i, a in enumerate(atoms)))]
    for i, (a, b, c) in enumerate(atoms):
        lines.append(f"card R{i} <= {2 ** rng.randint(2, 5)}")
        lines.append(f"logdeg R{i} ({c} | {a},{b}) <= {rng.randint(0, 2)}")
    return "\n".join(lines) + "\n"


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


def cone_memo_answers(position: int) -> str:
    """The polymatroid check and bound answers, as one repr, on the seeded
    inputs at one position of the universe sizes (4, 5, 4): Ingleton's
    inequality, which holds for step functions but not for polymatroids
    (a cone-LP witness), a step-valid and monotone-invalid random form (a
    cone-LP proof) and a random degree system (a cone-LP bound)."""
    from entroplex import (
        check_monotone_fixpoint,
        check_polymatroid,
        check_step,
        cond_mutual_info,
        logbound_polymatroid_dual,
        mutual_info,
    )

    n = (4, 5, 4)[position]
    rng = random.Random(20261018 + position)
    uni = universe(*[f"V{i}" for i in range(n)])
    a, b, c, d = 1, 2, 4, 8
    ingleton = combine(uni, [
        (1, expand_measure(uni, cond_mutual_info(a, b, c))),
        (1, expand_measure(uni, cond_mutual_info(a, b, d))),
        (1, expand_measure(uni, mutual_info(c, d))),
        (-1, expand_measure(uni, mutual_info(a, b))),
    ])
    while True:
        shannon = rand_expr(rng, uni)
        if check_step(shannon).valid and not check_monotone_fixpoint(shannon).valid:
            break
    query, sigma = rand_sigma(rng, n_min=n, n_max=n, entries_range=(4, 6))
    return repr((
        check_polymatroid(ingleton),
        check_polymatroid(shannon),
        logbound_polymatroid_dual(query, sigma),
    ))


def polymatroid_bound_dual_program(sigma) -> LinearProgram:
    """The explicit dual the polymatroid bound used to solve second:
    minimize the budget sum(b_i * w_i) over weights w >= 0 and elemental
    multipliers lam >= 0 such that, set by set, the weighted form minus
    sum(lam_e * E_e) covers h(full). Infeasible exactly when the bound is
    infinite; otherwise its optimum is the bound."""
    uni = sigma.universe
    k = len(sigma.entries)
    elemental = _elemental_rows(uni.n)
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


def covering_bound_value(sigma, supports):
    """Minimum budget sum(b_i * w_i) over weights w >= 0 that sum to at
    least 1 over every support, by the dense tableau; math.inf when none
    do, as when a support is empty."""
    lp = LinearProgram(len(sigma.entries))
    lp.set_objective({k: e.log_degree for k, e in enumerate(sigma.entries)})
    for support in supports:
        lp.add_row({k: 1 for k in support}, ">=", 1)
    result = dense_solve(lp)
    if result.status == INFEASIBLE:
        return math.inf
    assert result.status == OPTIMAL
    return result.value


def modular_bound_brute(sigma):
    """The modular bound's program as it once was: one row per variable,
    over the entries whose target holds it, duplicates and all."""
    return covering_bound_value(sigma, [
        [k for k, e in enumerate(sigma.entries) if e.sigma.target >> a & 1]
        for a in range(sigma.universe.n)
    ])


def step_bound_brute(sigma):
    """The step bound by enumeration: the support of every step set V (the
    entries whose target meets V and whose condition avoids it), minimal
    distinct supports only, which leaves the feasible region unchanged."""
    supports = {
        frozenset(
            k
            for k, e in enumerate(sigma.entries)
            if e.sigma.target & v and not e.sigma.condition & v
        )
        for v in range(1, sigma.universe.full_mask + 1)
    }
    minimal = [s for s in supports if not any(t < s for t in supports)]
    return covering_bound_value(sigma, sorted(minimal, key=sorted))


def simple_entropic_flow_bound(sigma):
    """The simple-entropic bound as one transport program, by the paper's
    reduction: math.inf, or the minimum budget.

    With conditions of size <= 1 the weighted form is valid over entropic
    functions iff, for every variable A, c_A >= d_A and the A-reduction is
    valid over monotone functions. Here c_A - d_A is the sum of the weights
    whose target holds A, minus 1: the covering row of A. The reduction
    supplies w_k on the joint of each entry avoiding A and the covering
    slack on the set of all other variables, and demands w_k at {b} for
    each condition {b} with b != A; monotone validity is a transport from
    the suppliers to the singletons they contain. So the block of A is one
    demand row per condition variable b, one supply row per supplier set,
    then the covering row, with one flow column per supplier and b in it.
    The constant 1 is a pseudo-weight pinned by the one equality row; every
    other row reads >= 0. Columns: the flows, the constant, the weights.
    """
    uni = sigma.universe
    rows: list[tuple[dict[int, int], dict[int, int]]] = []  # (flows, weights)
    col = 0
    for a in range(uni.n):
        bit = 1 << a
        cover = {s: 1 for s, e in enumerate(sigma.entries) if e.sigma.target & bit}
        cover[-1] = -1  # the pinned constant
        supply = {uni.full_mask & ~bit: dict(cover)}  # the covering slack
        demand: dict[int, dict[int, int]] = {}
        for s, entry in enumerate(sigma.entries):
            cond = entry.sigma
            if not cond.joint & bit:
                supply.setdefault(cond.joint, {})[s] = 1
            if cond.condition & ~bit:
                demand.setdefault(cond.condition, {})[s] = -1
        inflow: dict[int, dict[int, int]] = {b: {} for b in demand}
        outflows = []
        for x, form in supply.items():
            outflow = {}
            for b in demand:
                if not b & ~x:
                    outflow[col] = -1
                    inflow[b][col] = 1
                    col += 1
            if outflow:
                outflows.append((outflow, form))
        rows += [(inflow[b], form) for b, form in demand.items()]
        rows += outflows
        rows.append(({}, cover))
    lp = LinearProgram(col + 1 + len(sigma.entries))
    for flows, form in rows:
        lp.add_row({**flows, **{col + 1 + s: c for s, c in form.items()}}, ">=", 0)
    lp.add_row({col: 1}, "=", 1)
    lp.set_objective(
        {col + 1 + s: e.log_degree for s, e in enumerate(sigma.entries)}
    )
    result = solve(lp)
    if result.status == INFEASIBLE:
        return math.inf
    assert result.status == OPTIMAL
    return result.value


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
