"""Validity checkers with witnesses and decomposition certificates.

Function classes nest as modular < step = normal < entropic < polymatroid <
monotone, so validity propagates the other way: monotone-valid implies
polymatroid-valid implies step-valid implies modular-valid. Each checker
returns a Verdict whose Invalid branch carries an evaluable counterexample and
whose Valid branch may carry an exact decomposition into axioms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    CapExceeded,
    DomainError,
    Expr,
    Universe,
    evaluate,
    make_expr,
    max_universe_size,
    self_check,
    set_representation,
)
from .functions import SetFunction, _elemental_rows, basic_modular, step_function
from .lp import LinearProgram, MINIMIZE, OPTIMAL, solve

POLYMATROID_MAX_N = 10

STEP_CLASSES = ("step", "normal")
SIMPLE_CLASSES = ("step", "normal", "entropic", "polymatroid")


class FormError(DomainError):
    """Input is not in the syntactic form a checker requires."""


class UnsupportedSemantics(Exception):
    """Requested semantics has no decision procedure here."""


@dataclass(frozen=True)
class Witness:
    """Counterexample function; evaluates strictly negative on the input."""

    kind: str  # 'step' | 'boolean_monotone' | 'polymatroid' | 'basic_modular'
    function: SetFunction
    step_set: Optional[int] = None
    generators: tuple[int, ...] = ()  # minimal 1-sets of a Boolean monotone fn
    variable: Optional[str] = None

    def describe(self) -> str:
        uni = self.function.universe
        if self.kind == "step":
            return f"step function on {uni.label(self.step_set)}"
        if self.kind == "basic_modular":
            return f"basic modular function of {self.variable}"
        if self.kind == "boolean_monotone":
            gens = ", ".join(uni.label(g) for g in self.generators)
            return f"monotone 0/1 function, upward closure of {gens}"
        return "polymatroid"


@dataclass(frozen=True)
class Axiom:
    kind: str  # 'nonneg' | 'mono'
    sup: int
    sub: int = 0  # only for 'mono': sup contains sub

    def as_expr_terms(self) -> dict[int, int]:
        if self.kind == "nonneg":
            return {self.sup: 1}
        return {self.sup: 1, self.sub: -1} if self.sup != self.sub else {}


@dataclass(frozen=True)
class Decomposition:
    """Positive combination of monotonicity and non-negativity axioms."""

    universe: Universe
    parts: tuple[tuple[Fraction, Axiom], ...]

    def recombine(self) -> Expr:
        acc: dict[int, Fraction] = {}
        for weight, axiom in self.parts:
            for mask, c in axiom.as_expr_terms().items():
                acc[mask] = acc.get(mask, Fraction(0)) + weight * c
        return make_expr(self.universe, acc)

    def is_separable(self) -> bool:
        """No subset receives both positive and negative contributions."""
        signs: dict[int, set[int]] = {}
        for weight, axiom in self.parts:
            if weight == 0:
                continue
            for mask, c in axiom.as_expr_terms().items():
                signs.setdefault(mask, set()).add(1 if c > 0 else -1)
        return all(len(s) == 1 for s in signs.values())


@dataclass(frozen=True)
class Verdict:
    valid: bool
    semantics: tuple[str, ...]
    method: str
    certificate: Optional[Decomposition] = None
    witness: Optional[Witness] = None
    iterations: Optional[int] = None
    lp_shape: Optional[tuple[int, int]] = None
    per_class: Optional[dict[str, "Verdict"]] = None


def _verified_witness(expr: Expr, witness: Witness) -> Witness:
    value = evaluate(expr, witness.function)
    self_check(value < 0, f"witness evaluates to {value}, expected negative")
    return witness


def check_modular(expr: Expr) -> Verdict:
    """Valid iff the inequality holds on every basic modular function."""
    uni = expr.universe
    for i, name in enumerate(uni.names):
        bit = 1 << i
        value = sum(
            (c for mask, c in expr.terms.items() if mask & bit), Fraction(0)
        )
        if value < 0:
            witness = Witness(
                "basic_modular", basic_modular(uni, name), step_set=bit,
                variable=name,
            )
            return Verdict(
                False, ("modular",), "modular",
                witness=_verified_witness(expr, witness),
            )
    return Verdict(True, ("modular",), "modular")


def _add_to_planes(planes: list[int], k: int, where: int) -> None:
    """Add k to the bit-sliced value of every set in the bitmap `where`.

    planes[j] holds bit j of each set's value; the ripple carry stops once
    k's bits are used up and no set carries any more.
    """
    carry, top = 0, k.bit_length()
    for j, plane in enumerate(planes):
        if k >> j & 1:
            planes[j] = plane ^ where ^ carry
            carry = (plane & where) | (carry & (plane ^ where))
        elif carry:
            planes[j] = plane ^ carry
            carry &= plane
        elif j >= top:
            return


def _plane_bytes(n: int, w: int) -> int:
    """About what check_step's n + w bit planes of 2^n bits take."""
    return (n + w) * ((1 << n) // 8 + 32)


def check_step(expr: Expr) -> Verdict:
    """Evaluate every step function at once; first failure in lexicographic
    order of the step sets as sorted index tuples: {0},{0,1},...,{n-1}.

    Bit V of each 2^n-bit integer below stands for the step set V. With N
    the total negative and P the total positive multiplicity, every set's
    value is kept as the w-bit number 2^(w-1) - N + (positives it meets) +
    (negatives it misses) = 2^(w-1) + f(V), spread over w bit planes, so
    the top plane is clear exactly on the failing sets.

    Those planes are the only limit: past what 64 planes of values take at
    the universe cap, CapExceeded is raised before anything is allocated.
    """
    uni = expr.universe
    n = uni.n
    positives, negatives = set_representation(expr)
    negative_total = sum(negatives.values())
    w = max(negative_total, sum(positives.values())).bit_length() + 1
    need, budget = _plane_bytes(n, w), _plane_bytes(max_universe_size(), 64)
    if need > budget:
        raise CapExceeded(
            f"step check needs about {need} bytes of bit planes, "
            f"over its budget of {budget}"
        )
    size = 1 << n
    every = (1 << size) - 1
    has = []  # has[i]: the sets that contain variable i
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
    planes = [every if start >> j & 1 else 0 for j in range(w)]
    for mask, k in positives.items():
        _add_to_planes(planes, k, hit(mask))
    for mask, k in negatives.items():
        _add_to_planes(planes, k, every ^ hit(mask))
    negative = every & ~planes[-1]
    if not negative:
        return Verdict(True, STEP_CLASSES, "step-enumeration")
    # Descend the lexicographic tree: the child v | 1 << i heads the subtree
    # of sets v | S with S inside {i+1..n-1}, whose bitmap is `below`.
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
    return Verdict(
        False, STEP_CLASSES, "step-enumeration",
        witness=_verified_witness(expr, witness),
    )


def _upset_indicator(uni: Universe, gens: list[int]) -> SetFunction:
    one, zero = Fraction(1), Fraction(0)
    values = [zero] * (1 << uni.n)
    for m in range(1, 1 << uni.n):
        if any(g & ~m == 0 for g in gens):
            values[m] = one
    return SetFunction(uni, tuple(values))


def _minimal_sets(masks: list[int]) -> tuple[int, ...]:
    mins = []
    for m in sorted(masks, key=lambda x: (bin(x).count("1"), x)):
        if not any(g & ~m == 0 for g in mins):
            mins.append(m)
    return tuple(sorted(mins))


def check_monotone_fixpoint(expr: Expr) -> Verdict:
    """Exact max-flow from the positive to the negative side.

    Positive terms supply monotonicity axioms, negative terms demand them;
    an axiom h(X) >= h(Y) is available whenever Y is a subset of X. The
    inequality is valid over monotone functions iff a flow meets every
    demand. Capacities are the exact coefficients, and each augmentation
    follows a shortest path (Edmonds-Karp), so the number of augmentations
    is bounded by the size of the graph, never by the coefficient values.
    The flow is the certificate; when demand is left unmet, the up-set of
    the sink side of a minimum cut is the witness.
    """
    uni = expr.universe
    supply, demand = expr.two_sided()
    pos = sorted(supply)
    neg = sorted(demand)
    forward = {x: [y for y in neg if y & ~x == 0] for x in pos}
    into = {y: [x for x in pos if y & ~x == 0] for y in neg}
    flow: dict[tuple[int, int], Fraction] = {}
    iterations = 0

    def shortest_path() -> Optional[list[int]]:
        # One BFS from every left node with supply left, in sorted order,
        # plays the super source. It follows forward edges and backward
        # edges that carry flow; a mask is never on both sides, so one
        # parent map serves both.
        queue = deque(x for x in pos if supply[x])
        parent: dict[int, Optional[int]] = dict.fromkeys(queue)
        while queue:
            node = queue.popleft()
            if node in supply:
                for y in forward[node]:
                    if y in parent:
                        continue
                    parent[y] = node
                    if demand[y]:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(y)
            else:
                for x in into[node]:
                    if x not in parent and flow.get((x, node)):
                        parent[x] = node
                        queue.append(x)
        return None

    while (path := shortest_path()) is not None:
        iterations += 1
        # path = [L0, R1, L1, R2, ..., Rk]: L(t-1) -> R(t) forward, R(t) -> L(t)
        # backward along the flow on edge (L(t), R(t)).
        backward = [(path[t + 1], path[t]) for t in range(1, len(path) - 1, 2)]
        delta = min(
            supply[path[0]], demand[path[-1]], *(flow[e] for e in backward)
        )
        for t in range(0, len(path) - 1, 2):
            edge = (path[t], path[t + 1])
            flow[edge] = flow.get(edge, 0) + delta
        for edge in backward:
            flow[edge] -= delta
        supply[path[0]] -= delta
        demand[path[-1]] -= delta

    if not any(demand.values()):
        # Axioms listed by the set they cover, then by the set covering it.
        parts: list[tuple[Fraction, Axiom]] = [
            (flow[x, y], Axiom("mono", x, y))
            for y, x in sorted((y, x) for x, y in flow)
            if flow[x, y]
        ]
        parts += [(supply[x], Axiom("nonneg", x)) for x in pos if supply[x]]
        cert = Decomposition(uni, tuple(parts))
        self_check(
            cert.recombine().terms == expr.terms,
            "certificate recombines to the inequality",
        )
        self_check(cert.is_separable(), "certificate is separable")
        return Verdict(
            True, ("monotone",), "fixpoint", certificate=cert,
            iterations=iterations,
        )

    # Reverse reachability from unmet demand nodes along reversed edges:
    # a right node is reached from any forward predecessor, a left node from
    # right nodes holding positive flow on the shared edge.
    reached_r = set()
    reached_l = set()
    queue = deque(y for y in neg if demand[y])
    reached_r.update(queue)
    while queue:
        y = queue.popleft()
        for x in into[y]:
            if x not in reached_l:
                reached_l.add(x)
                for y2 in forward[x]:
                    if flow.get((x, y2)) and y2 not in reached_r:
                        reached_r.add(y2)
                        queue.append(y2)
    gens = _minimal_sets(sorted(reached_r))
    witness = Witness(
        "boolean_monotone",
        _upset_indicator(uni, list(gens)),
        generators=gens,
    )
    return Verdict(
        False, ("monotone",), "fixpoint",
        witness=_verified_witness(expr, witness), iterations=iterations,
    )


# Kept under its old name: the one monotone decider, not a second path.
check_monotone_lp = check_monotone_fixpoint


def _cone_program(
    uni: Universe, sense: str
) -> tuple[LinearProgram, list[dict[int, int]]]:
    """The elemental cone as a program, one column per nonempty set (mask
    m at column m - 1), and its elemental rows, in the program's order."""
    elemental = _elemental_rows(uni)
    lp = LinearProgram(uni.full_mask, sense)
    for row in elemental:
        lp.add_row({m - 1: c for m, c in row.items()}, ">=", 0)
    return lp, elemental


def _cone_lp(expr: Expr) -> Verdict:
    """Minimize the form over the polymatroid cone sliced at h(full) <= 1.

    Any cone point with a negative value has h(full) > 0 and scales into the
    slice, so the slice minimum is negative exactly when the inequality fails
    over polymatroids, and the minimizer itself is the witness.
    """
    uni = expr.universe
    if uni.n > POLYMATROID_MAX_N:
        raise CapExceeded(
            f"polymatroid check capped at n <= {POLYMATROID_MAX_N}"
        )
    lp, _ = _cone_program(uni, MINIMIZE)
    lp.set_objective({m - 1: c for m, c in expr.terms.items()})
    lp.add_row({uni.full_mask - 1: 1}, "<=", 1)
    shape = lp.shape
    result = solve(lp)
    self_check(result.status == OPTIMAL, "the slice is compact")
    if result.value >= 0:
        return Verdict(True, ("polymatroid",), "cone-lp", lp_shape=shape)
    values = (Fraction(0),) + result.point
    witness = Witness("polymatroid", SetFunction(uni, values))
    return Verdict(
        False, ("polymatroid",), "cone-lp",
        witness=_verified_witness(expr, witness), lp_shape=shape,
    )


def check_polymatroid(expr: Expr) -> Verdict:
    """Polymatroid validity from the class chain (see `check_per_class`).

    A basic modular or step witness refutes the inequality and a monotone
    certificate proves it; only what those leave open reaches the cone LP
    and its variable cap.
    """
    return _walk_chain(expr)["polymatroid"]


@dataclass(frozen=True)
class AReduction:
    """Coefficient sums for one variable plus the reduced inequality."""

    variable: str
    c: Fraction
    d: Fraction
    reduced: Expr


def _reduced_mask(mask: int, i: int) -> int:
    """The mask with variable i removed and the higher bits shifted down."""
    low = (1 << i) - 1
    return (mask & low) | ((mask >> 1) & ~low)


def a_reduction(expr: Expr, name: str) -> AReduction:
    """Project the inequality away from one variable.

    Terms containing the variable collapse into their coefficient sums c and
    d; the reduced inequality carries (c - d) on the full remaining set and
    keeps every term avoiding the variable.
    """
    uni = expr.universe
    i = uni.index(name)
    bit = 1 << i
    red_uni = Universe(uni.names[:i] + uni.names[i + 1:])
    c = Fraction(0)
    d = Fraction(0)
    acc: dict[int, Fraction] = {}
    for mask, coeff in expr.terms.items():
        if mask & bit:
            if coeff > 0:
                c += coeff
            else:
                d -= coeff
        else:
            red_mask = _reduced_mask(mask, i)
            acc[red_mask] = acc.get(red_mask, Fraction(0)) + coeff
    if red_uni.n:
        full = red_uni.full_mask
        acc[full] = acc.get(full, Fraction(0)) + (c - d)
    return AReduction(name, c, d, make_expr(red_uni, acc))


def is_simple_form(expr: Expr) -> bool:
    """Every right-hand-side set is a singleton or the full universe."""
    _, rhs = expr.two_sided()
    full = expr.universe.full_mask
    return all(mask == full or bin(mask).count("1") == 1 for mask in rhs)


def check_simple_sigma(expr: Expr) -> Verdict:
    """Per-variable reduction pipeline for simple-form inequalities.

    Valid iff for every variable the coefficient sums satisfy c >= d and the
    reduced inequality is valid over monotone functions; the verdict holds
    simultaneously for step, normal, entropic, and polymatroid semantics.
    Invalid verdicts always carry a step witness.
    """
    if not is_simple_form(expr):
        raise FormError(
            "simple form needs every right-hand-side set to be a singleton "
            "or the full universe"
        )
    uni = expr.universe
    for i, name in enumerate(uni.names):
        red = a_reduction(expr, name)
        bit = 1 << i
        if red.c < red.d:
            witness = Witness("step", step_function(uni, bit), step_set=bit)
            return Verdict(
                False, SIMPLE_CLASSES, "simple-reduction",
                witness=_verified_witness(expr, witness),
            )
        if not red.reduced:
            continue
        sub = check_monotone_fixpoint(red.reduced)
        if sub.valid:
            continue
        ones = [
            j for j in range(red.reduced.universe.n)
            if sub.witness.function[1 << j] == 1
        ]
        self_check(bool(ones), "a failing reduction lights up a singleton")
        v = bit
        for j in ones:
            orig = j if j < i else j + 1
            v |= 1 << orig
        witness = Witness("step", step_function(uni, v), step_set=v)
        return Verdict(
            False, SIMPLE_CLASSES, "simple-reduction",
            witness=_verified_witness(expr, witness),
        )
    return Verdict(True, SIMPLE_CLASSES, "simple-reduction")


DECIDABLE = ("modular", "step", "polymatroid", "monotone")
_CLASS_SEMANTICS = {
    "step": STEP_CLASSES, "polymatroid": ("polymatroid",),
    "monotone": ("monotone",),
}


def _implied(cls: str, by: str, source: Verdict) -> Verdict:
    """The verdict on `cls` that the verdict on class `by` settles."""
    return Verdict(
        source.valid, _CLASS_SEMANTICS[cls], f"implied-by-{by}",
        certificate=source.certificate, witness=source.witness,
    )


def _walk_chain(expr: Expr) -> dict[str, Verdict]:
    """The verdict on every decidable class, walking the chain modular <
    step < polymatroid < monotone.

    Invalid on a class is Invalid on every larger one with the same witness:
    a basic modular function is a step function, and a step function is a
    polymatroid. A monotone certificate is a Shannon proof for every smaller
    class. So the cone LP runs only on step-Valid, monotone-Invalid input.
    """
    modular = check_modular(expr)
    if not modular.valid:
        per = {"modular": modular}
        for cls in DECIDABLE[1:]:
            per[cls] = _implied(cls, "modular", modular)
    else:
        monotone = check_monotone_fixpoint(expr)
        if monotone.valid:
            step = _implied("step", "monotone", monotone)
            poly = _implied("polymatroid", "monotone", monotone)
        else:
            step = check_step(expr)
            poly = (
                _cone_lp(expr) if step.valid
                else _implied("polymatroid", "step", step)
            )
        per = {
            "modular": modular, "step": step, "polymatroid": poly,
            "monotone": monotone,
        }
    return per


def check_per_class(expr: Expr) -> Verdict:
    """Every decidable class, from one walk down the class chain.

    Overall validity is the monotone verdict; an Invalid one carries the
    witness of the first Invalid class, a Valid one the monotone certificate.
    """
    per = _walk_chain(expr)
    top = per["monotone"]
    witness = next((v.witness for v in per.values() if not v.valid), None)
    return Verdict(
        top.valid, DECIDABLE, "per-class", certificate=top.certificate,
        witness=witness, per_class=per,
    )


def check(expr: Expr, semantics: str = "auto") -> Verdict:
    """Dispatch to the checker for the requested semantics.

    'auto' uses the simple-form pipeline when it applies (one verdict for
    step through polymatroid) and otherwise reports every decidable class
    through `check_per_class`. 'entropic' is answered only through the
    simple-form coincidence.
    """
    if semantics == "modular":
        return check_modular(expr)
    if semantics in ("step", "normal"):
        return check_step(expr)
    if semantics == "polymatroid":
        return check_polymatroid(expr)
    if semantics == "monotone":
        return check_monotone_fixpoint(expr)
    if semantics == "entropic":
        if is_simple_form(expr):
            return check_simple_sigma(expr)
        raise UnsupportedSemantics(
            "entropic validity is decided here only for inequalities whose "
            "right-hand-side sets are singletons or the full universe"
        )
    if semantics == "auto":
        if is_simple_form(expr):
            return check_simple_sigma(expr)
        return check_per_class(expr)
    raise DomainError(f"unknown semantics {semantics!r}")
