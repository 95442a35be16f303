"""Variable universes, inequality expressions, and information measures.

Subsets of the universe are plain int bitmasks (bit i = i-th universe name).
All coefficient arithmetic is exact rational; floats never enter a verdict.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rat = Union[Fraction, int]

DEFAULT_MAX_N = 24


class DomainError(ValueError):
    """Input violates a structural precondition."""


class CapExceeded(RuntimeError):
    """A configured size cap was exceeded."""


class ConsistencyError(RuntimeError):
    """A result failed its exact self-check: a bug here, never bad input."""


def self_check(condition: bool, claim: str) -> None:
    """Raise ConsistencyError unless the claim holds; unlike assert, this
    survives python -O."""
    if not condition:
        raise ConsistencyError(f"self-check failed: {claim}")


def parse_fraction(text: str, context: str) -> Fraction:
    """Fraction(text); input that is not a rational number raises a
    DomainError reading `<context> '<text>'`."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{context} {text!r}") from None


def max_universe_size() -> int:
    """Universe size cap; ENTROPLEX_MAX_N overrides the default of 24."""
    raw = os.environ.get("ENTROPLEX_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"ENTROPLEX_MAX_N must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError("ENTROPLEX_MAX_N must be positive")
    return value


def _is_identifier(name: str) -> bool:
    if not name:
        return False
    head, tail = name[0], name[1:]
    if not (head.isalpha() or head == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in tail)


@dataclass(frozen=True)
class Universe:
    """An ordered tuple of distinct variable names."""

    names: tuple[str, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(self.names) > max_universe_size():
            raise CapExceeded(
                f"universe of {len(self.names)} variables exceeds cap "
                f"{max_universe_size()}"
            )
        seen: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if not _is_identifier(name):
                raise DomainError(f"invalid variable name {name!r}")
            if name in seen:
                raise DomainError(f"duplicate variable name {name!r}")
            seen[name] = i
        object.__setattr__(self, "_index", seen)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DomainError(f"unknown variable {name!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        if mask < 0 or mask > self.full_mask:
            raise DomainError(f"mask {mask} outside universe of size {self.n}")
        return tuple(self.names[i] for i in range(self.n) if mask >> i & 1)

    def subsets(self, nonempty: bool = True) -> Iterator[int]:
        """All subset masks in increasing numeric order."""
        return iter(range(1 if nonempty else 0, self.full_mask + 1))

    def label(self, mask: int) -> str:
        return "{" + ",".join(self.names_of(mask)) + "}"


def universe(*names: str) -> Universe:
    return Universe(tuple(names))


@dataclass(frozen=True)
class Expr:
    """Sparse linear form sum(c_S * h(S)) >= 0 over nonempty subsets.

    terms maps subset mask -> nonzero Fraction. Treated as immutable; all
    operations return fresh expressions.
    """

    universe: Universe
    terms: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        for mask, coeff in self.terms.items():
            if mask == 0:
                raise DomainError("h({}) terms must be eliminated at construction")
            if mask < 0 or mask > self.universe.full_mask:
                raise DomainError(f"term mask {mask} outside universe")
            if coeff == 0:
                raise DomainError("zero coefficients must be dropped")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mask: int) -> Fraction:
        return self.terms.get(mask, Fraction(0))

    def two_sided(self) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """Split into (LHS, RHS) maps, both with positive coefficients."""
        lhs = {m: c for m, c in self.terms.items() if c > 0}
        rhs = {m: -c for m, c in self.terms.items() if c < 0}
        return lhs, rhs

    def variables_mentioned(self) -> int:
        m = 0
        for mask in self.terms:
            m |= mask
        return m


def make_expr(uni: Universe, terms: Mapping[int, Rat]) -> Expr:
    cleaned = {}
    for mask, coeff in terms.items():
        c = Fraction(coeff)
        if mask != 0 and c != 0:
            cleaned[mask] = c
    return Expr(uni, cleaned)


def combine(uni: Universe, parts: Iterable[tuple[Rat, Expr]]) -> Expr:
    """Exact linear combination; zero coefficients and h({}) keys vanish."""
    acc: dict[int, Fraction] = {}
    for weight, expr in parts:
        if expr.universe != uni:
            raise DomainError("universe mismatch in combine")
        w = Fraction(weight)
        if w == 0:
            continue
        for mask, coeff in expr.terms.items():
            acc[mask] = acc.get(mask, Fraction(0)) + w * coeff
    return make_expr(uni, acc)


# Information measures. Each is expanded into plain h-terms on construction;
# empty operands contribute nothing since h({}) = 0.

@dataclass(frozen=True)
class Measure:
    """One of the standard Shannon measures, by kind and operand masks."""

    kind: str  # 'h' | 'cond_h' | 'mi' | 'cmi' | 'multi'
    operands: tuple[int, ...]


def entropy(s: int) -> Measure:
    return Measure("h", (s,))


def cond_entropy(v: int, u: int) -> Measure:
    return Measure("cond_h", (v, u))


def mutual_info(x: int, y: int) -> Measure:
    return Measure("mi", (x, y))


def cond_mutual_info(y: int, z: int, x: int) -> Measure:
    """I(Y;Z|X)."""
    return Measure("cmi", (y, z, x))


def multi_mutual_info(s: int) -> Measure:
    return Measure("multi", (s,))


def expand_measure(uni: Universe, m: Measure, weight: Rat = 1) -> Expr:
    """Weighted h-term expansion of a measure."""
    w = Fraction(weight)
    full = uni.full_mask
    for op in m.operands:
        if op < 0 or op > full:
            raise DomainError("measure operand outside universe")
    acc: dict[int, Fraction] = {}

    def add(mask: int, coeff: Fraction) -> None:
        if mask == 0 or coeff == 0:
            return
        acc[mask] = acc.get(mask, Fraction(0)) + coeff

    if m.kind == "h":
        (s,) = m.operands
        add(s, w)
    elif m.kind == "cond_h":
        v, u = m.operands
        add(v | u, w)
        add(u, -w)
    elif m.kind == "mi":
        x, y = m.operands
        add(x, w)
        add(y, w)
        add(x | y, -w)
    elif m.kind == "cmi":
        y, z, x = m.operands
        add(x | y, w)
        add(x | z, w)
        add(x, -w)
        add(x | y | z, -w)
    elif m.kind == "multi":
        (s,) = m.operands
        if s == 0:
            raise DomainError("multivariate mutual information needs a nonempty set")
        # inclusion-exclusion over nonempty T subseteq S
        t = s
        while t:
            sign = -1 if bin(t).count("1") % 2 == 0 else 1
            add(t, sign * w)
            t = (t - 1) & s
    else:
        raise DomainError(f"unknown measure kind {m.kind!r}")
    return make_expr(uni, acc)


def evaluate(expr: Expr, values: Mapping[int, Rat]) -> Fraction:
    """Exact value of the linear form at a set function given as mask -> value."""
    total = Fraction(0)
    for mask, coeff in expr.terms.items():
        value = values[mask]
        if not isinstance(value, Fraction):
            value = Fraction(value)  # exact, floats included
        total += coeff * value
    return total


def _integer_row(values: Mapping[int, Rat]) -> tuple[dict[int, int], int]:
    """The nonzero values as numerators over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values.values()))
    nums = {j: v.numerator * (den // v.denominator) for j, v in values.items() if v}
    return nums, den


# Not exported: the step checker's only entry to its integer coefficients,
# kept by this name because the benchmark's tracer times it.
def set_representation(expr: Expr) -> tuple[dict[int, int], dict[int, int]]:
    """The paper's (S+, S-) split: the coefficients scaled to integers by
    the lcm of their denominators, as positive multiplicities per set."""
    nums, _ = _integer_row(expr.terms)
    positives = {m: k for m, k in nums.items() if k > 0}
    negatives = {m: -k for m, k in nums.items() if k < 0}
    return positives, negatives
