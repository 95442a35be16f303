"""Variable universes, inequality expressions, and information measures.

Subsets of the universe are plain int bitmasks (bit i = i-th universe name).
All coefficient arithmetic is exact rational; floats never enter a verdict.
An expression stores a whole-number coefficient as an int and any other as
its exact Fraction, so integer forms are summed as plain ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Rat = Union[Fraction, int]


class DomainError(ValueError):
    """Input violates a structural precondition."""


class CapExceeded(RuntimeError):
    """A size cap was exceeded."""


class ConsistencyError(RuntimeError):
    """A result failed its exact self-check: a bug here, never bad input."""


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnsupportedSemantics(Exception):
    """Requested semantics has no decision procedure here."""


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


def _csv_rows(text: str) -> list[list[str]]:
    """The rows of every data file: quoting honoured, cells stripped, and
    rows with no nonempty cell dropped."""
    import csv
    import io

    rows = ([cell.strip() for cell in row] for row in csv.reader(io.StringIO(text)))
    return [row for row in rows if any(row)]


def _split_names(text: str) -> list[str]:
    """The nonempty comma-separated names of a list such as `A, B`."""
    return [v.strip() for v in text.split(",") if v.strip()]


def _is_identifier(name: str) -> bool:
    """A letter or `_`, then letters, digits and `_`. On ASCII names that
    is Python's identifier rule."""
    if name.isascii():
        return name.isidentifier()
    head, tail = name[0], name[1:]
    if not (head.isalpha() or head == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in tail)


_set_field = object.__setattr__


class _Record:
    """Base of the immutable slotted types: __init__ checks its input, if
    any check applies, and sets every slot once through `_set_field`; any
    later assignment raises AttributeError. Each type's `_key` gives its
    fields, the constructor's arguments in order: equality needs the same
    class and compares them, the hash is that of their tuple, repr names
    each, and a copy or pickle calls the constructor with them again."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), self._key()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        names = [name for name in self.__slots__ if name[0] != "_"]
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Universe(_Record):
    """An ordered tuple of distinct variable names."""

    __slots__ = ("names", "_index")  # the index is derived from the names

    def __init__(self, names: tuple[str, ...]) -> None:
        seen: dict[str, int] = {}
        for i, name in enumerate(names):
            if not _is_identifier(name):
                raise DomainError(f"invalid variable name {name!r}")
            if name in seen:
                raise DomainError(f"duplicate variable name {name!r}")
            seen[name] = i
        _set_field(self, "names", names)
        _set_field(self, "_index", seen)

    def _key(self) -> tuple:
        return (self.names,)

    def __eq__(self, other):  # direct, since every combine() compares universes
        if other.__class__ is Universe:
            return self.names == other.names
        return NotImplemented

    __hash__ = _Record.__hash__

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


class Expr(_Record):
    """Sparse linear form sum(c_S * h(S)) >= 0 over nonempty subsets.

    terms maps subset mask -> nonzero coefficient: an int when it is a whole
    number and otherwise a Fraction, as `make_expr` stores it; any other
    type, a float or a bool included, raises DomainError.
    Treated as immutable; all operations return fresh expressions.
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe: Universe, terms: Mapping[int, Rat]) -> None:
        full = universe.full_mask
        for mask, coeff in terms.items():
            if type(coeff) is not int and type(coeff) is not Fraction:
                raise DomainError(
                    f"coefficient {coeff!r} is neither an int nor a Fraction"
                )
            if mask == 0:
                raise DomainError("h({}) terms must be eliminated at construction")
            if mask < 0 or mask > full:
                raise DomainError(f"term mask {mask} outside universe")
            if coeff == 0:
                raise DomainError("zero coefficients must be dropped")
        _set_field(self, "universe", universe)
        _set_field(self, "terms", terms)

    def _key(self) -> tuple:
        return (self.universe, self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mask: int) -> Rat:
        return self.terms.get(mask, 0)

    def two_sided(self) -> tuple[dict[int, Rat], dict[int, Rat]]:
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
    """The expression of the nonzero terms off the empty set, each
    coefficient an int when it is a whole number and otherwise its exact
    Fraction."""
    cleaned = {}
    for mask, coeff in terms.items():
        if type(coeff) is not int:
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff.denominator == 1:
                coeff = coeff.numerator
        if mask != 0 and coeff != 0:
            cleaned[mask] = coeff
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

class Measure(NamedTuple):
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


def _inclusion_exclusion(s: int) -> Iterator[tuple[int, int]]:
    """(T, +1 or -1) for each nonempty T inside s, +1 on odd |T|: the
    h-terms of the multivariate mutual information of s, largest T first."""
    t = s
    while t:
        yield t, 1 if bin(t).count("1") % 2 else -1
        t = (t - 1) & s


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
        for t, sign in _inclusion_exclusion(s):
            add(t, sign * w)
    else:
        raise DomainError(f"unknown measure kind {m.kind!r}")
    return make_expr(uni, acc)


def evaluate(expr: Expr, values: Mapping[int, Rat]) -> Fraction:
    """Exact value of the linear form at a set function given as mask -> value.

    Zero values are skipped. Integer values, such as a witness's 0/1 values,
    are summed exactly as integer numerators per coefficient denominator,
    so only the other values cost a Fraction product each."""
    total = Fraction(0)
    sums: dict[int, int] = {}  # coefficient denominator -> numerator sum
    for mask, coeff in expr.terms.items():
        value = values[mask]
        if not value:
            continue
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)  # exact, floats included
        if value.denominator == 1:
            den = coeff.denominator
            sums[den] = sums.get(den, 0) + coeff.numerator * value.numerator
        else:
            total += coeff * value
    for den, num in sums.items():
        total += Fraction(num, den)
    return total


def _integer_row(values: Mapping[int, Rat]) -> tuple[dict[int, int], int]:
    """The nonzero values as numerators over the lcm of their denominators;
    an all-int row is its own numerators over 1."""
    if all(type(v) is int for v in values.values()):
        return {j: v for j, v in values.items() if v}, 1
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
