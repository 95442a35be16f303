"""Degree-constrained output-size bounds for self-join-free conjunctive
queries, computed exactly in log space.

A constraint system pairs conditionals (V|U) with guard atoms and log-degree
budgets b. Weighted sums of the conditionals that dominate h(X) over a
function class turn the budgets into an output bound. The modular, step and
simple-entropic bounds are one covering loop that differs only in the class
checker it asks; the polymatroid bound is one LP over the elemental cone.
Values are Fractions in bits, or math.inf when no valid weighting exists.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .core import (
    CapExceeded,
    DomainError,
    Expr,
    Universe,
    _Record,
    _set_field,
    _split_names,
    make_expr,
    parse_fraction,
    self_check,
)
from .functions import Relation, degree_scan
from .lp import (
    INFEASIBLE,
    LinearProgram,
    MAXIMIZE,
    OPTIMAL,
    UNBOUNDED,
    solve,
)
from .validity import (
    FormError,
    Verdict,
    _cone_head,
    _cone_program,
    POLYMATROID_MAX_N,
    check_modular,
    check_simple_sigma,
    check_step,
)


class Conditional(_Record):
    """Degree term (V|U): target and condition masks, disjoint, V nonempty."""

    __slots__ = ("target", "condition")

    def __init__(self, target: int, condition: int) -> None:
        if not target:
            raise DomainError("conditional needs a nonempty target")
        if target & condition:
            raise DomainError("conditional target overlaps its condition")
        _set_field(self, "target", target)
        _set_field(self, "condition", condition)

    def _key(self) -> tuple:
        return (self.target, self.condition)

    @property
    def joint(self) -> int:
        return self.target | self.condition


def conditional(target: int, condition: int = 0) -> Conditional:
    """Normalize V := V minus U, then build the (V|U) pair."""
    return Conditional(target & ~condition, condition)


class Query(_Record):
    """Self-join-free conjunctive query; the head is all variables."""

    __slots__ = ("universe", "atoms")

    def __init__(self, universe: Universe, atoms: tuple[tuple[str, int], ...]) -> None:
        names = [name for name, _ in atoms]
        if len(set(names)) != len(names):
            raise DomainError("relation names must be distinct")
        covered = 0
        for _, schema in atoms:
            covered |= schema
        if covered != universe.full_mask:
            raise DomainError("atom schemas must cover every head variable")
        _set_field(self, "universe", universe)
        _set_field(self, "atoms", atoms)

    def _key(self) -> tuple:
        return (self.universe, self.atoms)

    def atom_index(self, name: str) -> int:
        for i, (atom_name, _) in enumerate(self.atoms):
            if atom_name == name:
                return i
        raise DomainError(f"no atom named {name!r}")


class GuardedEntry(_Record):
    """One constraint: a conditional, the index of its guard among the
    query's atoms, and its log-degree bound."""

    __slots__ = ("sigma", "guard", "log_degree")

    def __init__(self, sigma: Conditional, guard: int, log_degree: Fraction) -> None:
        if log_degree < 0:
            raise DomainError("log-degree must be non-negative")
        _set_field(self, "sigma", sigma)
        _set_field(self, "guard", guard)
        _set_field(self, "log_degree", log_degree)

    def _key(self) -> tuple:
        return (self.sigma, self.guard, self.log_degree)


class GuardedSigma(NamedTuple):
    universe: Universe
    entries: tuple[GuardedEntry, ...]


def build_sigma(
    query: Query,
    specs: Sequence[tuple[Conditional, Optional[str], Fraction]],
) -> GuardedSigma:
    """Resolve guards for (conditional, guard name or None, b) triples.

    A missing guard name picks the first atom containing the conditional's
    variables; a named guard must contain them.
    """
    entries = []
    for cond, guard_name, b in specs:
        if guard_name is None:
            for i, (_, schema) in enumerate(query.atoms):
                if cond.joint & ~schema == 0:
                    guard = i
                    break
            else:
                label = query.universe.label(cond.joint)
                raise DomainError(f"no atom can guard {label}")
        else:
            guard = query.atom_index(guard_name)
            schema = query.atoms[guard][1]
            if cond.joint & ~schema:
                raise DomainError(
                    f"guard {guard_name} does not contain the conditional's "
                    "variables"
                )
        entries.append(GuardedEntry(cond, guard, Fraction(b)))
    return GuardedSigma(query.universe, tuple(entries))


class BoundResult(NamedTuple):
    value: Union[Fraction, float]  # Fraction, or math.inf
    method: str
    weights: Optional[tuple[Fraction, ...]] = None
    lp_shape: Optional[tuple[int, int]] = None

    @property
    def is_finite(self) -> bool:
        return isinstance(self.value, Fraction)

    def linear_value(self) -> float:
        """Display-only 2**value, inf past the float range; exactness lives
        in log space."""
        try:
            return 2.0 ** float(self.value)
        except OverflowError:
            return math.inf


def is_acyclic(sigma: GuardedSigma) -> bool:
    """No directed cycle among condition-to-target variable dependencies:
    repeatedly dropping the variables with no successor left empties it."""
    n = sigma.universe.n
    succ = [0] * n  # succ[a]: targets of the conditionals whose condition has a
    for entry in sigma.entries:
        for a in range(n):
            if entry.sigma.condition >> a & 1:
                succ[a] |= entry.sigma.target
    left = sigma.universe.full_mask
    while left:
        sinks = sum(1 << a for a in range(n) if left >> a & 1 and not succ[a] & left)
        if not sinks:
            return False
        left &= ~sinks
    return True


def is_simple(sigma: GuardedSigma) -> bool:
    return all(
        bin(entry.sigma.condition).count("1") <= 1 for entry in sigma.entries
    )


def sigma_inequality(sigma: GuardedSigma, weights: Sequence[Fraction]) -> Expr:
    """The weighted form: sum of w(h(UV) - h(U)) minus h of the full set."""
    if len(weights) != len(sigma.entries):
        raise DomainError("one weight per constraint entry required")
    uni = sigma.universe
    acc: dict[int, Fraction] = {uni.full_mask: Fraction(-1)}
    for entry, w in zip(sigma.entries, weights):
        w = Fraction(w)
        if w < 0:
            raise DomainError("weights must be non-negative")
        cond = entry.sigma
        acc[cond.joint] = acc.get(cond.joint, Fraction(0)) + w
        if cond.condition:
            acc[cond.condition] = acc.get(cond.condition, Fraction(0)) - w
    return make_expr(uni, acc)


def _covering_bound(
    sigma: GuardedSigma, method: str, checker: Callable[[Expr], Verdict]
) -> BoundResult:
    """Cheapest weighting the class's checker accepts, by covering rows.

    On the step function of V the weighted form is the sum of the weights
    of V's support, the entries whose target meets V and whose condition
    avoids it, minus 1. The rows start from the single variables' supports.
    Each round solves and asks the checker; a failing step set's support,
    which the weights leave under 1, joins the rows (separation and
    optimization, Grotschel, Lovasz and Schrijver 1981). Rows stay an
    antichain, since a superset's row follows from its subset's. Each
    checker passed here names a step set in every Invalid verdict, and its
    last call verifies the returned weights.
    """

    def support(v: int) -> frozenset[int]:
        return frozenset(
            k
            for k, entry in enumerate(sigma.entries)
            if entry.sigma.target & v and not entry.sigma.condition & v
        )

    budgets = {k: entry.log_degree for k, entry in enumerate(sigma.entries)}
    rows: list[frozenset[int]] = []
    new_rows = [support(1 << a) for a in range(sigma.universe.n)]
    while True:
        for new in new_rows:
            if not any(row <= new for row in rows):
                rows = [row for row in rows if not new <= row] + [new]
        lp = LinearProgram(len(sigma.entries))
        for row in rows:
            lp.add_row(dict.fromkeys(row, 1), ">=", 1)
        lp.set_objective(budgets)
        result = solve(lp)
        if result.status == INFEASIBLE:
            return BoundResult(math.inf, method, lp_shape=lp.shape)
        self_check(result.status == OPTIMAL, "the objective is bounded below by 0")
        weights = result.point
        verdict = checker(sigma_inequality(sigma, weights))
        if verdict.valid:
            return BoundResult(
                result.value, method, weights=weights, lp_shape=lp.shape
            )
        # Each round's row is new, as the witness cuts the weights off; no
        # modular witness can, as the first rows are modular validity.
        new = support(verdict.witness.step_set) if verdict.witness else None
        self_check(
            new is not None and sum(weights[k] for k in new) < 1,
            f"the weights are valid over {method} functions",
        )
        new_rows = [new]


def logbound_modular(query: Query, sigma: GuardedSigma) -> BoundResult:
    """Cheapest weighting whose targets cover every variable: on the basic
    modular function of A the weighted form keeps the weights whose target
    holds A, so modular validity is the covering loop's first rows."""
    return _covering_bound(sigma, "modular", check_modular)


def logbound_step(query: Query, sigma: GuardedSigma) -> BoundResult:
    """Cheapest weighting valid over step functions: the covering loop adds
    the support row of each step set that check_step finds failing."""
    return _covering_bound(sigma, "step", check_step)


def logbound_polymatroid_dual(query: Query, sigma: GuardedSigma) -> BoundResult:
    """Exponential oracle: maximize h(full) inside the degree-sliced cone.

    One LP maximizes h of the full set over the elemental cone cut by
    h(UV) - h(U) <= b per conditional; unbounded means no finite bound. The
    weights are the duals of the conditional rows. The elemental rows'
    duals, negated, are multipliers lambda >= 0 that leave the weighted
    form minus sum(lambda_e * E_e) with no negative coefficient: a Shannon
    proof that the weights are valid over polymatroids. That remainder and
    the budget's equality with the optimum are checked exactly.
    """
    uni = sigma.universe
    if uni.n > POLYMATROID_MAX_N:
        raise CapExceeded(
            f"polymatroid bound capped at n <= {POLYMATROID_MAX_N}"
        )
    lp = _cone_program(uni, MAXIMIZE)
    k = len(lp.rows)
    lp.set_objective({uni.full_mask - 1: 1})
    for entry in sigma.entries:
        cond = entry.sigma
        row = {cond.joint - 1: 1}
        if cond.condition:
            row[cond.condition - 1] = -1
        lp.add_row(row, "<=", entry.log_degree)
    shape = lp.shape
    result = solve(lp, _cone_head(uni.n))
    self_check(result.status != INFEASIBLE, "the zero function is feasible")
    if result.status == UNBOUNDED:
        return BoundResult(math.inf, "polymatroid-dual", lp_shape=shape)

    # Elemental duals y <= 0 give the Shannon proof with multipliers -y.
    weights = result.duals[k:]
    self_check(
        all(w >= 0 for w in weights) and all(y <= 0 for y in result.duals[:k]),
        "the weights and elemental multipliers are nonnegative",
    )
    remainder = dict(sigma_inequality(sigma, weights).terms)
    for y, (row, _, _) in zip(result.duals[:k], lp.rows):
        if y:
            for j, c in row.items():  # column j holds the set j + 1
                remainder[j + 1] = remainder.get(j + 1, 0) + y * c
    self_check(
        all(c >= 0 for c in remainder.values()),
        "the elemental multipliers prove the weights over polymatroids",
    )
    self_check(
        sum(e.log_degree * w for e, w in zip(sigma.entries, weights))
        == result.value,
        "the weights' budget equals the optimum",
    )
    return BoundResult(
        result.value, "polymatroid-dual", weights=weights, lp_shape=shape
    )


def logbound_simple_entropic(query: Query, sigma: GuardedSigma) -> BoundResult:
    """Entropic bound for simple constraint systems, exact.

    With conditions of size <= 1 the weighted form is a simple-form
    inequality, so check_simple_sigma decides its validity over entropic
    functions, and each of its Invalid verdicts names a failing step set:
    the covering loop runs with it as the class checker. Each round is
    polynomial, n max-flows plus an LP over the entries. The number of
    rounds is bounded only by the number of distinct supports; it is
    polynomial only through the ellipsoid form of the separation argument.
    """
    if not is_simple(sigma):
        raise FormError("entropic bound requires conditions of size <= 1")
    return _covering_bound(sigma, "simple-entropic", check_simple_sigma)


def satisfies_degrees(
    data: Mapping[str, Relation], query: Query, sigma: GuardedSigma
) -> bool:
    """Whether every guarded degree stays within 2 to the power b."""
    uni = sigma.universe
    for entry in sigma.entries:
        guard_name = query.atoms[entry.guard][0]
        if guard_name not in data:
            raise DomainError(f"no data for relation {guard_name}")
        deg = degree_scan(
            data[guard_name],
            uni.names_of(entry.sigma.target),
            uni.names_of(entry.sigma.condition),
        )
        if deg <= 1:
            continue
        b = entry.log_degree
        if deg ** b.denominator > 2 ** b.numerator:
            return False
    return True


_QUERY_RE = re.compile(r"^query\s+(\w+)\s*\(([^)]*)\)\s*=\s*(.+)$")
_ATOM_RE = re.compile(r"(\w+)\s*\(([^)]*)\)")
_LOGDEG_RE = re.compile(
    r"^logdeg\s+(?:(\w+)\s+)?\(([^|)]*)(?:\|([^)]*))?\)\s*<=\s*(\S+)$"
)
_CARD_RE = re.compile(r"^card\s+(\w+)\s*<=\s*(?:2\s*\^\s*(\d+)|(\d+))$")


def parse_constraints(text: str) -> tuple[Query, GuardedSigma]:
    """Read a query line plus logdeg/card lines into a constraint system."""
    query: Optional[Query] = None
    pending: list[tuple[list[str], list[str], Optional[str], Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _QUERY_RE.match(line)
        if m:
            if query is not None:
                raise DomainError(f"line {lineno}: second query declaration")
            head = _split_names(m.group(2))
            uni = Universe(tuple(head))
            atoms = []
            rest = m.group(3)
            matched = _ATOM_RE.findall(rest)
            if not matched or "".join(
                _ATOM_RE.sub("", rest).split()
            ).strip(",") != "":
                raise DomainError(f"line {lineno}: malformed atom list")
            for name, vars_text in matched:
                atoms.append((name, uni.mask(_split_names(vars_text))))
            query = Query(uni, tuple(atoms))
            continue
        m = _LOGDEG_RE.match(line)
        if m:
            guard, v_text, u_text, b_text = m.groups()
            b = parse_fraction(b_text, f"line {lineno}: bad log-degree")
            pending.append(
                (_split_names(v_text), _split_names(u_text or ""), guard, b)
            )
            continue
        m = _CARD_RE.match(line)
        if m:
            name, exponent_text, count_text = m.groups()
            digits = exponent_text or count_text
            try:
                count = int(digits)
            except ValueError:  # past the interpreter's limit on integer digits
                raise DomainError(
                    f"line {lineno}: {len(digits)}-digit cardinality is too long"
                ) from None
            if exponent_text is not None:
                log_count = count
            else:
                if count < 1 or count & (count - 1):
                    raise DomainError(
                        f"line {lineno}: cardinality {count} is not a power of two"
                    )
                log_count = count.bit_length() - 1
            pending.append(([], [], name, Fraction(log_count)))
            continue
        raise DomainError(f"line {lineno}: unrecognized constraint {line!r}")
    if query is None:
        raise DomainError("missing query declaration")
    specs = []
    for v_names, u_names, guard, b in pending:
        if not v_names and guard is not None:
            # cardinality constraint: target is the named atom's full schema
            schema = query.atoms[query.atom_index(guard)][1]
            specs.append((conditional(schema, 0), guard, b))
        else:
            u = query.universe.mask(u_names)
            v = query.universe.mask(v_names)
            specs.append((conditional(v, u), guard, b))
    return query, build_sigma(query, specs)
