"""Validity checkers with witnesses and decomposition certificates.

Function classes nest as modular < step = normal < entropic < polymatroid <
monotone, so validity propagates the other way: monotone-valid implies
polymatroid-valid implies step-valid implies modular-valid. Each checker
returns a Verdict whose Invalid branch carries an evaluable counterexample and
whose Valid branch may carry an exact decomposition into axioms.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .core import (
    CapExceeded,
    DomainError,
    Expr,
    Rat,
    Universe,
    UnsupportedSemantics,
    evaluate,
    make_expr,
    self_check,
    set_representation,
)
from .functions import (
    SetFunction,
    UpSetValues,
    _elemental_rows,
    basic_modular,
    step_function,
)

if TYPE_CHECKING:  # lp is loaded only by the verdicts that solve a program
    from .lp import Head, LinearProgram

POLYMATROID_MAX_N = 10

STEP_CLASSES = ("step", "normal")
SIMPLE_CLASSES = ("step", "normal", "entropic", "polymatroid")


class FormError(DomainError):
    """Input is not in the syntactic form a checker requires."""


class Witness(NamedTuple):
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


class Axiom(NamedTuple):
    kind: str  # 'nonneg' | 'mono'
    sup: int
    sub: int = 0  # only for 'mono': sup contains sub

    def as_expr_terms(self) -> dict[int, int]:
        if self.kind == "nonneg":
            return {self.sup: 1}
        return {self.sup: 1, self.sub: -1} if self.sup != self.sub else {}


class Decomposition(NamedTuple):
    """Positive combination of monotonicity and non-negativity axioms."""

    universe: Universe
    parts: tuple[tuple[Rat, Axiom], ...]

    def recombine(self) -> Expr:
        acc: dict[int, Rat] = {}
        for weight, axiom in self.parts:
            for mask, c in axiom.as_expr_terms().items():
                acc[mask] = acc.get(mask, 0) + weight * c
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


class Verdict(NamedTuple):
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
    if value >= 0:  # formatted only on failure: a value may pass 4,300 digits
        self_check(False, f"witness evaluates to {value}, expected negative")
    return witness


def check_modular(expr: Expr) -> Verdict:
    """Valid iff the inequality holds on every basic modular function."""
    uni = expr.universe
    for i, name in enumerate(uni.names):
        bit = 1 << i
        value = sum(c for mask, c in expr.terms.items() if mask & bit)
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


# check_step's sets are split into blocks of 2^_STEP_LOW by their last
# _STEP_LOW variables. 15 was the fastest on the step-hard corpus, with 13, 14
# and 16 close behind (BENCH_step_blocks.json).
_STEP_LOW = 15

# The bitmap bytes the step check may hold at once (what the unblocked kernel
# held at n = 24 and w = 64) and all blocks may stream through: 30 random
# terms, coefficients ±1 and ±2, stream 42 GB at n = 32 and 82 GB at 33.
STEP_PLANE_BUDGET = 369_104_384
STEP_WORK_BUDGET = 1 << 36


def _patterns(m: int) -> list[int]:
    """has[i]: the subsets of m variables that contain variable i, as one
    2^m-bit integer."""
    size = 1 << m
    has = []
    for i in range(m):
        half = 1 << i
        pattern, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            pattern |= pattern << period
            period <<= 1
        has.append(pattern)
    return has


def _hit(has: list[int], part: int) -> int:
    """The bitmap of the sets that meet part."""
    out = 0
    while part:
        bit = part & -part
        out |= has[bit.bit_length() - 1]
        part ^= bit
    return out


def _add(cols: list[list[int]], x: int, times: int) -> None:
    """Add bitmap x `times` times to a carry-save sum: cols[j] holds at most
    two bitmaps of weight 2^j. A third one goes through a full adder that
    leaves the sum in column j and carries into column j + 1. Every set's
    value stays below 2^w, so nothing carries out of the top column."""
    for j in range(times.bit_length()):
        if times >> j & 1:
            c = x
            for i in range(j, len(cols)):  # a slice would copy O(w) per bit
                col = cols[i]
                if len(col) < 2:
                    col.append(c)
                    break
                a, b = col
                t = a ^ b
                col[:] = (t ^ c,)
                c = (a & b) | (c & t)


def _first_failing(cols: list[list[int]], has: list[int], every: int) -> int:
    """The lexicographically first nonempty set whose top bit is clear, or 0.

    One ripple over the columns gives the top plane. The descent then walks
    the lexicographic tree: the child v | 1 << i heads the subtree of sets
    v | S with S inside {i+1, ...}, whose bitmap is `below`, and a failing
    node comes before its subtree."""
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
    v = 0
    if negative >> 1:
        below = every
        for i, pattern in enumerate(has):
            below ^= below & pattern
            m = v | 1 << i
            if negative >> m & below:
                v = m
                if negative >> v & 1:
                    break
    return v


def _reversed(x: int, k: int) -> int:
    """x's k bits in reverse order."""
    return int(f"{x:0{k}b}"[::-1], 2)


def _first_set(terms: dict[int, int], n: int, w: int) -> int:
    """The lexicographically first set of n variables on which the terms,
    masks with signed multiplicities whose positive and negative totals
    are each below 2^(w-1), sum below zero; or 0.

    The sets come in blocks: the last `low` = min(n, _STEP_LOW) variables
    span a block, and each set P of the first k = n - low names one. Bit L
    of a block's 2^low-bit integers stands for the set P | L << k. In
    lexicographic order P comes before the sets of its subtree over the
    first k variables, and those come before the sets P | L with L != 0,
    which form one run headed by P | {k}. So the first failing P is this
    function's answer on the terms cut to their first k variables, and the
    blocks are visited in post-order, counting down with variable 0 as the
    top bit. The walk stops before the first block whose run that P sorts
    before, or at the first block with a failing P | L, L != 0. When no
    term names one of the first k variables, as at k = 0, every block is
    alike and the first one visited, P = the first k variables, sorts
    before the others: it alone is walked.

    Every set's value is kept as the w-bit number 2^(w-1) - N + (positive
    terms it meets) + (negative terms it misses) = 2^(w-1) + f(V), with N
    the negative total, summed bit-sliced in carry-save form, so the top
    bit plane is clear exactly on the failing sets. A term that names none
    of the first k variables has the same bitmap in every block, so those
    terms are summed once into shared columns. Each block copies them and
    adds the other terms: one that meets P adds its multiplicity as a
    constant if positive and nothing if negative, and one that misses P
    acts as its part past the first k variables does. The constants are
    added once per block, as the all-ones bitmap.
    """
    low = min(n, _STEP_LOW)
    k = n - low
    cut = (1 << k) - 1
    first = 0
    if k:
        net = {}
        for mask, c in terms.items():
            net[mask & cut] = net.get(mask & cut, 0) + c
        first = _first_set({m: c for m, c in net.items() if m and c}, k, w)
    # A block's rank is P read with variable 0 as the top bit, and the walk
    # counts ranks down. It stops at ranks up to first's or inside first's
    # subtree, that is up to rank | rank - 1, which is -1 when no P fails.
    rank = _reversed(first, k) if first else 0
    stop = rank | rank - 1
    if stop == cut:
        return first
    every = (1 << (1 << low)) - 1
    has = _patterns(low)
    start = (1 << (w - 1)) + sum(c for c in terms.values() if c < 0)
    shared = [[every] if start >> j & 1 else [] for j in range(w)]
    split = []  # (first part bit-reversed, the rest's bitmap, multiplicity)
    for mask, c in terms.items():
        bits = _hit(has, mask >> k)
        if mask & cut:
            split.append((_reversed(mask & cut, k), bits, c))
        elif c > 0:
            _add(shared, bits, c)
        else:
            _add(shared, every ^ bits, -c)
    for rank in range(cut, stop if split else cut - 1, -1):
        cols = [col[:] for col in shared]
        const = 0
        for part, bits, c in split:
            if part & rank:  # the term meets every set of the block
                const += max(c, 0)
            elif not bits:  # and here it meets none
                const += max(-c, 0)
            elif c > 0:
                _add(cols, bits, c)
            else:
                _add(cols, every ^ bits, -c)
        if const:
            _add(cols, every, const)
        v = _first_failing(cols, has, every)
        if v:
            return _reversed(rank, k) | v << k
    return first


def check_step(expr: Expr) -> Verdict:
    """Evaluate every step function at once; first failure in lexicographic
    order of the step sets as sorted index tuples: {0},{0,1},...,{n-1}.

    _first_set walks the sets in blocks of 2^low, low = min(n, _STEP_LOW),
    one per set of the first k = n - low variables. A block streams
    2(low + w) bitmaps of 2^low bits and one more, with 512 bytes for its
    tuple and digits, for each of the s terms that name one of the first k
    variables; when s > 0 it also holds 2w column bitmaps of its own beside
    the shared ones. The walk that finds the first failing set of the first
    k variables has no more variables per block, terms or bit positions, so
    it holds no more. CapExceeded is raised before anything is allocated
    when a block's held bytes pass STEP_PLANE_BUDGET, or its streamed bytes
    times 2^k (once when s = 0) pass STEP_WORK_BUDGET.
    """
    uni = expr.universe
    n = uni.n
    positives, negatives = set_representation(expr)
    w = max(sum(negatives.values()), sum(positives.values())).bit_length() + 1
    low = min(n, _STEP_LOW)
    k = n - low
    cut = (1 << k) - 1
    s = sum(1 for mask in expr.terms if mask & cut)
    plane = (1 << low) // 8 + 32
    block = (2 * (low + w) + s) * plane + 512 * s
    held = block + 2 * w * plane if s else block
    if held > STEP_PLANE_BUDGET:
        raise CapExceeded(
            f"step check holds {held} bytes at once, over {STEP_PLANE_BUDGET}"
        )
    streamed = block << k if s else block
    if streamed > STEP_WORK_BUDGET:
        raise CapExceeded(
            f"step check streams {streamed} bytes, over {STEP_WORK_BUDGET}"
        )
    terms = positives  # and the negative multiplicities, negated
    for mask, c in negatives.items():
        terms[mask] = -c
    first = _first_set(terms, n, w)
    if not first:
        return Verdict(True, STEP_CLASSES, "step-enumeration")
    witness = Witness("step", step_function(uni, first), step_set=first)
    return Verdict(
        False, STEP_CLASSES, "step-enumeration",
        witness=_verified_witness(expr, witness),
    )


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
    flow: dict[tuple[int, int], Rat] = {}
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
        parts: list[tuple[Rat, Axiom]] = [
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
    singles = sum(g for g in gens if g & (g - 1) == 0)
    larger = tuple(g for g in gens if g & (g - 1))
    witness = Witness(
        "boolean_monotone",
        SetFunction(uni, UpSetValues(uni.n, singles, larger)),
        generators=gens,
    )
    return Verdict(
        False, ("monotone",), "fixpoint",
        witness=_verified_witness(expr, witness), iterations=iterations,
    )


# Kept under its old name: the one monotone decider, not a second path.
check_monotone_lp = check_monotone_fixpoint


@functools.cache
def _cone_rows(n: int) -> tuple[tuple[dict[int, int], str, int], ...]:
    """The elemental rows as program rows, mask m at column m - 1, built
    once per universe size and shared by every program: never mutated.
    Only the capped polymatroid check and bound reach it, so it holds at
    most the rows of n <= POLYMATROID_MAX_N."""
    return tuple(
        ({m - 1: c for m, c in row.items()}, ">=", 0) for row in _elemental_rows(n)
    )


def _cone_program(uni: Universe, sense: str) -> LinearProgram:
    """The elemental cone as a program, one column per nonempty set (mask
    m at column m - 1); its first rows are the elemental rows."""
    from .lp import LinearProgram

    lp = LinearProgram(uni.full_mask, sense)
    lp.rows = list(_cone_rows(uni.n))
    return lp


@functools.cache
def _cone_head(n: int) -> Head:
    """The elemental rows pivoted for maximizing h(full): the head of every
    polymatroid bound program at n, built once per n, which the bound caps
    at POLYMATROID_MAX_N."""
    from .lp import Head, LinearProgram, MAXIMIZE

    full = (1 << n) - 1
    return Head(LinearProgram(full, MAXIMIZE, {full - 1: 1}, list(_cone_rows(n))))


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
    from .lp import MINIMIZE, OPTIMAL, solve

    lp = _cone_program(uni, MINIMIZE)
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
    """Polymatroid validity: its entry of the class-chain walk, which
    reaches the cone LP and its variable cap only when nothing cheaper
    settles the class (see `_walk_chain`)."""
    return _walk_chain(expr)["polymatroid"]


class AReduction(NamedTuple):
    """Coefficient sums for one variable plus the reduced inequality; like
    a coefficient, each sum is an int when the terms it adds are ints."""

    variable: str
    c: Rat
    d: Rat
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
    c = d = 0
    acc: dict[int, Rat] = {}
    for mask, coeff in expr.terms.items():
        if mask & bit:
            if coeff > 0:
                c += coeff
            else:
                d -= coeff
        else:
            red_mask = _reduced_mask(mask, i)
            acc[red_mask] = acc.get(red_mask, 0) + coeff
    if red_uni.n:
        full = red_uni.full_mask
        acc[full] = acc.get(full, 0) + (c - d)
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
        # A singleton is 1 under the up-set exactly when it is a generator.
        ones = [
            g.bit_length() - 1 for g in sub.witness.generators
            if g & (g - 1) == 0
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


def _walk_chain(expr: Expr, upto: str = "polymatroid") -> dict[str, Verdict]:
    """The verdicts, in chain order, of a walk through modular, monotone,
    step and polymatroid (the default, so all four) that stops at `upto`.

    Invalid on a class is Invalid on every larger one with the same witness:
    a basic modular function is a step function, and a step function is a
    polymatroid. A monotone certificate is a Shannon proof for every smaller
    class. On a simple form one simple reduction settles step and
    polymatroid together. So the cone LP runs only on step-Valid,
    monotone-Invalid input that is not simple.
    """
    modular = check_modular(expr)
    per = {"modular": modular}
    if not modular.valid:
        return per | {c: _implied(c, "modular", modular) for c in DECIDABLE[1:]}
    if upto == "modular":
        return per
    monotone = check_monotone_fixpoint(expr)
    if monotone.valid:
        per["step"] = _implied("step", "monotone", monotone)
        per["polymatroid"] = _implied("polymatroid", "monotone", monotone)
    elif upto != "monotone":
        if is_simple_form(expr):
            simple = check_simple_sigma(expr)
            for cls in ("step", "polymatroid"):
                per[cls] = simple._replace(semantics=_CLASS_SEMANTICS[cls])
        else:
            per["step"] = step = check_step(expr)
            if upto != "step":
                per["polymatroid"] = (
                    _cone_lp(expr) if step.valid
                    else _implied("polymatroid", "step", step)
                )
    per["monotone"] = monotone
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
    """The verdict on the requested class.

    A decidable class ('normal' is 'step') is its entry of one walk down the
    class chain, stopped once it is settled. 'auto' uses the simple-form
    pipeline when it applies (one verdict for step through polymatroid) and
    otherwise reports every decidable class through `check_per_class`.
    'entropic' is answered only through the simple-form coincidence.
    """
    cls = "step" if semantics == "normal" else semantics
    if cls in DECIDABLE:
        return _walk_chain(expr, cls)[cls]
    if cls not in ("auto", "entropic"):
        raise DomainError(f"unknown semantics {semantics!r}")
    if is_simple_form(expr):
        return check_simple_sigma(expr)
    if cls == "auto":
        return check_per_class(expr)
    raise UnsupportedSemantics(
        "entropic validity is decided here only for inequalities whose "
        "right-hand-side sets are singletons or the full universe"
    )
