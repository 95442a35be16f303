"""Hardness-reduction generators with exhaustive oracles.

Each generator turns a combinatorial instance into an information inequality
whose step-function validity decides the instance: a satisfying assignment, a
proper 3-coloring, or an equal-sum split exists exactly when the inequality
fails on some step function, and the failing set decodes back to a solution.
The oracles are deliberately brute force so round-trips are independent.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Optional

from .core import (
    CapExceeded,
    DomainError,
    Expr,
    Universe,
    _Record,
    _set_field,
)

if TYPE_CHECKING:
    from .validity import Witness

SAT_ORACLE_MAX_VARS = 20
COLORING_ORACLE_MAX_VERTICES = 8
PARTITION_ORACLE_MAX_ITEMS = 20
PARTITION_ORACLE_MAX_SUM = 60

COLORS = ("r", "g", "b")


class MonSat3Instance(_Record):
    """Monotone 3-SAT: all-positive and all-negative clauses of size 3."""

    __slots__ = ("variables", "positive", "negative")

    def __init__(
        self,
        variables: tuple[str, ...],
        positive: tuple[frozenset[str], ...],
        negative: tuple[frozenset[str], ...],
    ) -> None:
        if len(set(variables)) != len(variables):
            raise DomainError("duplicate variable")
        if not positive and not negative:
            raise DomainError("at least one clause required")
        pool = set(variables)
        for clause in (*positive, *negative):
            if len(clause) != 3:
                raise DomainError("clauses must have exactly 3 variables")
            if not clause <= pool:
                raise DomainError("clause mentions an undeclared variable")
        _set_field(self, "variables", variables)
        _set_field(self, "positive", positive)
        _set_field(self, "negative", negative)

    def _key(self) -> tuple:
        return (self.variables, self.positive, self.negative)


class Graph(_Record):
    __slots__ = ("vertices", "edges")

    def __init__(
        self,
        vertices: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],  # endpoint-sorted, deduplicated
    ) -> None:
        if not vertices:
            raise DomainError("graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise DomainError("duplicate vertex")
        pool = set(vertices)
        seen = set()
        for a, b in edges:
            if a == b:
                raise DomainError("self-loop")
            if a not in pool or b not in pool:
                raise DomainError("edge endpoint is not a vertex")
            if (a, b) != tuple(sorted((a, b))) or (a, b) in seen:
                raise DomainError("edges must be sorted pairs, no repeats")
            seen.add((a, b))
        _set_field(self, "vertices", vertices)
        _set_field(self, "edges", edges)

    def _key(self) -> tuple:
        return (self.vertices, self.edges)


def graph(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> Graph:
    pairs = sorted({tuple(sorted(e)) for e in edges})
    return Graph(tuple(vertices), tuple(pairs))


class PartitionInstance(_Record):
    """Multiset of positive integers with an even total."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[int, ...]) -> None:
        if not items:
            raise DomainError("at least one item required")
        if any(x < 1 for x in items):
            raise DomainError("items must be positive integers")
        if sum(items) % 2:
            raise DomainError("total sum must be even")
        _set_field(self, "items", items)

    def _key(self) -> tuple:
        return (self.items,)


def _bits(uni: Universe) -> dict[str, int]:
    """Each name's bit in the universe."""
    return {name: 1 << i for i, name in enumerate(uni.names)}


def _nonzero(uni: Universe, acc: dict[int, int]) -> Expr:
    """The expression of acc's nonzero int terms, in acc's order."""
    return Expr(uni, {mask: c for mask, c in acc.items() if c})


def from_3dmonsat(phi: MonSat3Instance) -> Expr:
    """Sum of h(X|C) over positive clauses plus the triple mutual
    information of each negative clause, against h(X).

    A step function falsifies the result exactly when its set, read as the
    truth assignment, satisfies every clause. The all-zero assignment has no
    step function, but it only matters when there are no positive clauses,
    and then singleton assignments satisfy the instance anyway.
    """
    uni = Universe(tuple(sorted(phi.variables)))
    bit = _bits(uni)
    acc = {uni.full_mask: len(phi.positive) - 1}
    for clause in phi.positive:
        a, b, c = clause
        m = bit[a] | bit[b] | bit[c]
        acc[m] = acc.get(m, 0) - 1
    for clause in phi.negative:
        # I(C)'s h-terms in core._inclusion_exclusion's order, largest set
        # first, + on odd sizes and - on even; x < y < z are C's bits
        x, y, z = sorted(bit[v] for v in clause)
        for m, sign in (
            (x | y | z, 1), (y | z, -1), (x | z, -1), (z, 1),
            (x | y, -1), (y, 1), (x, 1),
        ):
            acc[m] = acc.get(m, 0) + sign
    return _nonzero(uni, acc)


def from_3coloring(g: Graph) -> Expr:
    """Color-variable inequality that is step-valid iff G is not
    3-colorable.

    Universe holds one variable per vertex and color. Singleton entropies
    reward picking colors; blocks weighted just past their total count
    forbid giving a vertex two colors or an edge one, read through the
    complement of the failing step set.
    """
    uni = Universe(tuple(sorted(f"{v}_{c}" for v in g.vertices for c in COLORS)))
    bit = _bits(uni)
    weight = 2 * len(g.vertices) + 1
    # h(X | pair) once per ordered color pair of a vertex, once per color
    # of an edge, against h(X): the singletons and pairs are all distinct
    blocks = 6 * len(g.vertices) + 3 * len(g.edges)
    acc = {uni.full_mask: weight * (blocks - 1)}
    for v in g.vertices:
        red, green, blue = (bit[f"{v}_{c}"] for c in COLORS)
        acc[red] = acc[green] = acc[blue] = 1
        acc[red | green] = acc[red | blue] = acc[green | blue] = -2 * weight
    for a, b in g.edges:
        for c in COLORS:
            acc[bit[f"{a}_{c}"] | bit[f"{b}_{c}"]] = -weight
    return _nonzero(uni, acc)


def from_partition(inst: PartitionInstance) -> Expr:
    """Pairwise cross-product form that fails on a step function exactly
    when the items split into two halves of equal sum.

    Each unordered pair contributes its item product once through both
    one-sided conditional entropies, so a step set worth S on one side
    makes the subtracted part S(m-S), beating (m/2)^2 - 1 only at S = m/2.
    """
    items = inst.items
    m = sum(items)
    if m % 2:
        raise DomainError("total sum must be even")
    uni = Universe(tuple(f"A{i + 1}" for i in range(len(items))))
    acc = {uni.full_mask: (m // 2) ** 2 - 1}
    for i, j in itertools.combinations(range(len(items)), 2):
        x = items[i] * items[j]
        a, b = 1 << i, 1 << j
        # x(h(Ai|Aj) + h(Aj|Ai)) = x(2 h(AiAj) - h(Ai) - h(Aj))
        acc[a] = acc.get(a, 0) + x
        acc[b] = acc.get(b, 0) + x
        acc[a | b] = acc.get(a | b, 0) - 2 * x
    return _nonzero(uni, acc)


def assignment_satisfies(phi: MonSat3Instance, true_vars: frozenset) -> bool:
    return all(clause & true_vars for clause in phi.positive) and all(
        not clause <= true_vars for clause in phi.negative
    )


def sat_oracle(phi: MonSat3Instance) -> bool:
    """Exhaustive satisfiability check over all assignments."""
    if len(phi.variables) > SAT_ORACLE_MAX_VARS:
        raise CapExceeded(
            f"oracle capped at {SAT_ORACLE_MAX_VARS} variables"
        )
    for r in range(len(phi.variables) + 1):
        for chosen in itertools.combinations(phi.variables, r):
            if assignment_satisfies(phi, frozenset(chosen)):
                return True
    return False


def coloring_is_proper(g: Graph, colors: dict) -> bool:
    if set(colors) != set(g.vertices):
        return False
    if any(colors[v] not in COLORS for v in g.vertices):
        return False
    return all(colors[a] != colors[b] for a, b in g.edges)


def coloring_oracle(g: Graph) -> bool:
    """Exhaustive search for a proper 3-coloring."""
    if len(g.vertices) > COLORING_ORACLE_MAX_VERTICES:
        raise CapExceeded(
            f"oracle capped at {COLORING_ORACLE_MAX_VERTICES} vertices"
        )
    for assignment in itertools.product(COLORS, repeat=len(g.vertices)):
        colors = dict(zip(g.vertices, assignment))
        if coloring_is_proper(g, colors):
            return True
    return False


def partition_oracle(inst: PartitionInstance) -> bool:
    """Subset-sum reachability of half the total."""
    if len(inst.items) > PARTITION_ORACLE_MAX_ITEMS:
        raise CapExceeded(
            f"oracle capped at {PARTITION_ORACLE_MAX_ITEMS} items"
        )
    total = sum(inst.items)
    if total > PARTITION_ORACLE_MAX_SUM:
        raise CapExceeded(f"oracle capped at total sum {PARTITION_ORACLE_MAX_SUM}")
    reachable = 1  # bitset over sums
    for x in inst.items:
        reachable |= reachable << x
    return bool(reachable >> (total // 2) & 1)


def decode_monsat_witness(
    phi: MonSat3Instance, witness: Witness
) -> frozenset:
    """Failing step set, read directly as the set of true variables."""
    uni = witness.function.universe
    return frozenset(uni.names_of(witness.step_set))


def decode_coloring_witness(g: Graph, witness: Witness) -> dict:
    """Color each vertex by its unique color variable outside the step set."""
    uni = witness.function.universe
    kept = set(uni.names_of(uni.full_mask & ~witness.step_set))
    colors = {}
    for v in g.vertices:
        picks = [c for c in COLORS if f"{v}_{c}" in kept]
        if len(picks) != 1:
            raise DomainError(f"witness gives vertex {v} {len(picks)} colors")
        colors[v] = picks[0]
    return colors


def decode_partition_witness(
    inst: PartitionInstance, witness: Witness
) -> tuple[int, ...]:
    """Item indices on the step-set side; their sum is half the total."""
    uni = witness.function.universe
    side = tuple(
        i
        for i in range(len(inst.items))
        if witness.step_set >> uni.index(f"A{i + 1}") & 1
    )
    if 2 * sum(inst.items[i] for i in side) != sum(inst.items):
        raise DomainError("witness does not give an equal split")
    return side


def _ints(fields: list[str], lineno: int, what: str) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise DomainError(f"line {lineno}: bad {what}") from None


def _problem(text: str, kind: str) -> tuple[list[int], list[tuple[int, list[str]]]]:
    """The two counts of the `p <kind> <n> <m>` problem line, and the fields
    of each later line; blank lines and `c` comment lines are skipped."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and fields[0] != "c":
            lines.append((lineno, fields))
    if not lines or lines[0][1][0] != "p":
        raise DomainError("missing problem line")
    lineno, fields = lines[0]
    if len(fields) != 4 or fields[1] != kind:
        raise DomainError(f"line {lineno}: expected `p {kind} <n> <m>`")
    return _ints(fields[2:], lineno, "problem counts"), lines[1:]


def parse_monsat(text: str) -> MonSat3Instance:
    """DIMACS-like: `p monsat3 <vars> <clauses>` then `+ i j k` / `- i j k`."""
    (n_vars, n_clauses), lines = _problem(text, "monsat3")
    variables = tuple(f"x{i}" for i in range(1, n_vars + 1))
    positive, negative = [], []
    for lineno, fields in lines:
        if len(fields) != 4 or fields[0] not in ("+", "-"):
            raise DomainError(f"line {lineno}: expected `+ i j k` or `- i j k`")
        idx = _ints(fields[1:], lineno, "variable index")
        if any(i < 1 or i > n_vars for i in idx):
            raise DomainError(f"line {lineno}: variable index out of range")
        clause = frozenset(f"x{i}" for i in idx)
        (positive if fields[0] == "+" else negative).append(clause)
    if len(positive) + len(negative) != n_clauses:
        raise DomainError("clause count differs from the problem line")
    return MonSat3Instance(variables, tuple(positive), tuple(negative))


def parse_graph(text: str) -> Graph:
    """DIMACS edge list: `p edge <vertices> <edges>` then `e i j`."""
    (n_vertices, n_edges), lines = _problem(text, "edge")
    vertices = tuple(f"v{i}" for i in range(1, n_vertices + 1))
    edges = []
    for lineno, fields in lines:
        if len(fields) != 3 or fields[0] != "e":
            raise DomainError(f"line {lineno}: expected `e i j`")
        i, j = _ints(fields[1:], lineno, "vertex index")
        if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
            raise DomainError(f"line {lineno}: vertex index out of range")
        edges.append((f"v{i}", f"v{j}"))
    if len(edges) != n_edges:
        raise DomainError("edge count differs from the problem line")
    return graph(vertices, edges)


def parse_partition(text: str) -> PartitionInstance:
    """Whitespace-separated positive integers."""
    fields = text.split()
    if not fields:
        raise DomainError("empty partition instance")
    try:
        items = tuple(int(f) for f in fields)
    except ValueError:
        raise DomainError("partition items must be integers") from None
    return PartitionInstance(items)
