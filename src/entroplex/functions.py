"""Set functions: steps, modular functions, entropic vectors, classifiers,
and the relations whose degrees the bounds' data-side checks scan.

The exact side works in Fractions; entropies computed from a distribution are
the single floating-point surface and live in their own type.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from typing import Iterator

from .core import (
    DomainError,
    Expr,
    Rat,
    Universe,
    _csv_rows,
    _Record,
    _set_field,
    parse_fraction,
)


class SetFunction(_Record):
    """2^n exact values with value({}) = 0, indexed by mask.

    The values are a tuple, or an UpSetValues that computes them on demand
    and equals only an UpSetValues with the same generators.
    """

    __slots__ = ("universe", "values")

    def __init__(self, universe: Universe, values: Sequence[Fraction]) -> None:
        if isinstance(values, UpSetValues):
            size_ok = values.n == universe.n
        else:
            size_ok = len(values) == 1 << universe.n
        if not size_ok:
            raise DomainError("value vector length must be 2^n")
        if values[0] != 0:
            raise DomainError("a set function must vanish on the empty set")
        _set_field(self, "universe", universe)
        _set_field(self, "values", values)

    def _key(self) -> tuple:
        return (self.universe, self.values)

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]

    def table(self) -> dict[str, Fraction]:
        """Readable mapping from '{A,B}' labels to values, nonempty sets only."""
        return {
            self.universe.label(m): self.values[m]
            for m in range(1, 1 << self.universe.n)
        }


_ONE, _ZERO = Fraction(1), Fraction(0)


class UpSetValues(_Record, Sequence):
    """The 2^n values of a monotone 0/1 function, computed on demand: 1 on
    the masks that contain one of its generators, 0 elsewhere.

    The singleton generators are held as one mask, `singles`, so a step
    function s^V (singles = V) and a basic modular one cost a single `&` per
    value. The other generators, `larger`, must be minimal and sorted, so
    that equal functions have equal fields: equality and hash compare the
    fields and never build the values. len() exists only below 63
    variables, where 2^n fits a Py_ssize_t.
    """

    __slots__ = ("n", "singles", "larger")

    def __init__(self, n: int, singles: int, larger: tuple[int, ...] = ()) -> None:
        _set_field(self, "n", n)
        _set_field(self, "singles", singles)
        _set_field(self, "larger", larger)

    def _key(self) -> tuple:
        return (self.n, self.singles, self.larger)

    def __len__(self) -> int:
        return 1 << self.n

    def __getitem__(self, index):
        if type(index) is int and 0 <= index < 1 << self.n:
            return self._at(index)
        masks = range(1 << self.n)[index]  # an int, or a range for a slice
        if isinstance(masks, range):
            return tuple(map(self._at, masks))
        return self._at(masks)

    def __iter__(self) -> Iterator[Fraction]:
        return map(self._at, range(1 << self.n))

    def _at(self, mask: int) -> Fraction:
        if mask & self.singles:
            return _ONE
        for g in self.larger:
            if g & mask == g:
                return _ONE
        return _ZERO


def from_values(uni: Universe, values: Sequence[Rat]) -> SetFunction:
    return SetFunction(uni, tuple(Fraction(v) for v in values))


def zero_function(uni: Universe) -> SetFunction:
    return SetFunction(uni, (Fraction(0),) * (1 << uni.n))


def step_function(uni: Universe, v: int) -> SetFunction:
    """s^V: value 1 exactly on sets that intersect V; V must be nonempty."""
    if v == 0:
        raise DomainError("a step function needs a nonempty witness set")
    if v > uni.full_mask:
        raise DomainError("step set outside universe")
    return SetFunction(uni, UpSetValues(uni.n, v))


def basic_modular(uni: Universe, name: str) -> SetFunction:
    """s^{{A}}: value 1 exactly on sets containing the variable A."""
    return step_function(uni, 1 << uni.index(name))


def is_monotone(fn: SetFunction) -> bool:
    """value(S) <= value(S | {i}) for every S and i, hence for all supersets."""
    n = fn.universe.n
    for m in range(1 << n):
        for i in range(n):
            if not m >> i & 1:
                if fn.values[m] > fn.values[m | 1 << i]:
                    return False
    return True


def _elemental_rows(n: int) -> list[dict[int, int]]:
    """Minimal generating inequalities of the polymatroid cone over n
    variables, as mask -> coefficient rows; h({}) = 0."""
    full = (1 << n) - 1
    rows: list[dict[int, int]] = []
    for i in range(n):
        row = {full: 1}
        rest = full & ~(1 << i)
        if rest:
            row[rest] = -1
        rows.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            pair = (1 << i) | (1 << j)
            others = full & ~pair
            k = others
            while True:
                # I(i;j|K) >= 0; the four sets are distinct, only K may be empty
                terms = ((k | 1 << i, 1), (k | 1 << j, 1), (k, -1), (k | pair, -1))
                rows.append({mask: c for mask, c in terms if mask})
                if k == 0:
                    break
                k = (k - 1) & others
    return rows


def is_polymatroid(fn: SetFunction) -> bool:
    """Monotone plus submodular: every elemental inequality holds."""
    return all(
        sum(c * fn.values[m] for m, c in row.items()) >= 0
        for row in _elemental_rows(fn.universe.n)
    )


def is_modular(fn: SetFunction) -> bool:
    """Additive over singletons with nonnegative weights."""
    n = fn.universe.n
    singles = [fn.values[1 << i] for i in range(n)]
    if any(s < 0 for s in singles):
        return False
    for m in range(1 << n):
        total = sum(singles[i] for i in range(n) if m >> i & 1)
        if fn.values[m] != total:
            return False
    return True


class JointDistribution(_Record):
    """Finite joint distribution: distinct value rows with positive weights."""

    __slots__ = ("universe", "rows")

    def __init__(
        self, universe: Universe, rows: tuple[tuple[tuple[str, ...], Fraction], ...],
    ) -> None:
        width = universe.n
        seen = set()
        total = Fraction(0)
        for values, p in rows:
            if len(values) != width:
                raise DomainError("row width does not match the schema")
            if values in seen:
                raise DomainError(f"duplicate row {values!r}")
            seen.add(values)
            if p <= 0:
                raise DomainError("probabilities must be positive")
            total += p
        if total != 1:
            raise DomainError(f"probabilities sum to {total}, expected 1")
        _set_field(self, "universe", universe)
        _set_field(self, "rows", rows)

    def _key(self) -> tuple:
        return (self.universe, self.rows)


class EntropyVector(_Record):
    """Marginal entropies in bits, one float per subset. Display and
    tolerance checks only; never feeds an exact verdict."""

    __slots__ = ("universe", "values")

    def __init__(self, universe: Universe, values: tuple[float, ...]) -> None:
        _set_field(self, "universe", universe)
        _set_field(self, "values", values)

    def _key(self) -> tuple:
        return (self.universe, self.values)

    def __getitem__(self, mask: int) -> float:
        return self.values[mask]


def _marginal_entropy(dist: JointDistribution, mask: int) -> float:
    """Entropy (base 2) of the marginal on the variables in mask."""
    idx = [i for i in range(dist.universe.n) if mask >> i & 1]
    marginal: dict[tuple[str, ...], Fraction] = {}
    for values, p in dist.rows:
        key = tuple(values[i] for i in idx)
        marginal[key] = marginal.get(key, Fraction(0)) + p
    return -sum(float(p) * math.log2(float(p)) for p in marginal.values())


def entropic_from_distribution(dist: JointDistribution) -> EntropyVector:
    """Entropy (base 2) of every marginal of the distribution."""
    n = dist.universe.n
    out = [0.0] + [_marginal_entropy(dist, mask) for mask in range(1, 1 << n)]
    return EntropyVector(dist.universe, tuple(out))


def distribution_from_csv(text: str) -> JointDistribution:
    """Read a distribution CSV: a column per variable, then a `prob` column
    of exact rationals (`p/q` or integer)."""
    table = _csv_rows(text)
    if not table:
        raise DomainError("empty distribution file")
    header = table[0]
    if header[-1] != "prob":
        raise DomainError("last CSV column must be 'prob'")
    uni = Universe(tuple(header[:-1]))
    rows = []
    for cells in table[1:]:
        if len(cells) != len(header):
            raise DomainError(f"row has {len(cells)} cells, expected {len(header)}")
        p = parse_fraction(cells[-1], f"bad probability in row {','.join(cells)!r}:")
        rows.append((tuple(cells[:-1]), p))
    return JointDistribution(uni, tuple(rows))


class Relation(_Record):
    """A named table: a schema of distinct variables and rows of its width."""

    __slots__ = ("name", "schema", "rows")

    def __init__(
        self, name: str, schema: tuple[str, ...], rows: tuple[tuple[str, ...], ...],
    ) -> None:
        if len(set(schema)) != len(schema):
            raise DomainError("relation schema repeats a variable")
        for row in rows:
            if len(row) != len(schema):
                raise DomainError("row width differs from schema width")
        _set_field(self, "name", name)
        _set_field(self, "schema", schema)
        _set_field(self, "rows", rows)

    def _key(self) -> tuple:
        return (self.name, self.schema, self.rows)


def relation_from_csv(name: str, text: str) -> Relation:
    rows = _csv_rows(text)
    if not rows:
        raise DomainError("empty relation file")
    return Relation(name, tuple(rows[0]), tuple(tuple(row) for row in rows[1:]))


def degree_scan(
    relation: Relation,
    target: Sequence[str],
    condition: Sequence[str] = (),
) -> int:
    """Maximum number of distinct target projections per condition value."""
    condition = tuple(condition)
    target = tuple(v for v in target if v not in condition)
    if not target:
        raise DomainError("degree target is empty after normalization")
    for v in (*target, *condition):
        if v not in relation.schema:
            raise DomainError(f"{v!r} is not in the schema of {relation.name}")
    t_idx = [relation.schema.index(v) for v in target]
    c_idx = [relation.schema.index(v) for v in condition]
    groups: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for row in relation.rows:
        key = tuple(row[i] for i in c_idx)
        groups.setdefault(key, set()).add(tuple(row[i] for i in t_idx))
    return max((len(vals) for vals in groups.values()), default=0)
