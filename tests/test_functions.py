"""Set functions, classifiers, the monotone enumeration, entropy vectors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroplex import (
    DomainError,
    SetFunction,
    basic_modular,
    distribution_from_csv,
    entropic_from_distribution,
    from_values,
    is_modular,
    is_monotone,
    is_polymatroid,
    step_function,
    universe,
    zero_function,
)
from entroplex.functions import UpSetValues
from entroplex.validity import _minimal_sets
from helpers import (
    MONOTONE_ENUM_MAX_N,
    enumerate_monotone_boolean,
    polymatroid_brute,
    upset_indicator,
)

XOR_CSV = "A,B,C,prob\n0,0,0,1/4\n0,1,1,1/4\n1,0,1,1/4\n1,1,0,1/4\n"


def test_set_function_validation():
    uni = universe("A", "B")
    with pytest.raises(DomainError):
        from_values(uni, [0, 1, 1])  # wrong length
    with pytest.raises(DomainError):
        from_values(uni, [1, 0, 0, 0])  # nonzero on the empty set


def test_step_function_values():
    uni = universe("A", "B", "C")
    s = step_function(uni, 0b011)
    assert [s[m] for m in range(8)] == [0, 1, 1, 1, 0, 1, 1, 1]
    with pytest.raises(DomainError):
        step_function(uni, 0)
    with pytest.raises(DomainError):
        step_function(uni, 8)


def test_step_values_computed_on_demand():
    uni = universe("A", "B", "C")
    for v in range(1, 8):
        lazy = step_function(uni, v)
        dense = from_values(uni, [1 if m & v else 0 for m in range(8)])
        assert isinstance(lazy.values, UpSetValues)
        assert tuple(lazy.values) == dense.values
        # Lazy values equal only lazy values with the same generators.
        assert lazy != dense and dense != lazy
        assert lazy.values != dense.values and dense.values != lazy.values
        assert is_monotone(lazy) and is_polymatroid(lazy)
    s = step_function(uni, 0b011)
    assert s != step_function(uni, 0b101)
    assert s.values != step_function(universe("A", "B"), 0b11).values
    assert list(s.values) == [0, 1, 1, 1, 0, 1, 1, 1]
    assert s.values != "01110111"
    assert len(s.values) == 8
    assert s.values[-1] == 1 and s.values[-4] == 0
    assert s.values[1:5] == (1, 1, 1, 0)
    assert s.values[::-3] == (1, 0, 1)
    with pytest.raises(IndexError):
        s.values[8]
    assert basic_modular(uni, "B") == step_function(uni, 0b010)
    with pytest.raises(DomainError):
        SetFunction(universe("A", "B"), s.values)
    # Generator families in general, against the eager loop.
    rng = random.Random(11)
    for n in range(1, 7):
        uni = universe(*[f"V{i}" for i in range(n)])
        size = 1 << n
        for _ in range(60):
            gens = _minimal_sets(
                [rng.randrange(1, size) for _ in range(rng.randint(1, 5))]
            )
            singles = sum(g for g in gens if g & (g - 1) == 0)
            larger = tuple(g for g in gens if g & (g - 1))
            lazy = UpSetValues(n, singles, larger)
            eager = upset_indicator(uni, gens).values
            assert tuple(lazy) == eager and len(lazy) == size
            assert lazy != eager and eager != lazy and lazy != list(eager)
            same = UpSetValues(n, singles, larger)
            assert lazy == same and hash(lazy) == hash(same)
            assert SetFunction(uni, lazy) != SetFunction(uni, eager)
            assert SetFunction(uni, lazy) == SetFunction(uni, same)
            assert hash(SetFunction(uni, lazy)) == hash(SetFunction(uni, same))
            for i in range(-size, size):  # negatives, then the int fast path
                assert lazy[i] == eager[i]
            assert lazy[True] == eager[True]
            for sl in (slice(1, None), slice(None, None, -1),
                       slice(-3, None, 2), slice(size // 2, 1, -3)):
                assert lazy[sl] == eager[sl]
            for i in (size, -size - 1, 1 << 70):
                with pytest.raises(IndexError):
                    lazy[i]
            assert is_monotone(SetFunction(uni, lazy))
            other = list(eager)
            other[-1] = 1 - other[-1]
            assert lazy != other and other != lazy
            if singles != size - 1 or larger:
                assert lazy != UpSetValues(n, size - 1)


def test_basic_modular_values():
    uni = universe("A", "B")
    s = basic_modular(uni, "B")
    assert [s[m] for m in range(4)] == [0, 0, 1, 1]
    assert is_modular(s)


def test_table_labels():
    uni = universe("A", "B")
    s = step_function(uni, 1)
    assert s.table() == {"{A}": 1, "{B}": 0, "{A,B}": 1}


def test_classifier_chain_on_knowns():
    uni = universe("A", "B", "C")
    step = step_function(uni, 0b101)
    assert is_monotone(step) and is_polymatroid(step)
    assert not is_modular(step)

    assert is_modular(zero_function(uni))

    # uniform XOR entropies are integral, so the exact classifier applies
    xor = from_values(uni, [0, 1, 1, 2, 1, 2, 2, 2])
    assert is_polymatroid(xor) and not is_modular(xor)

    # monotone but supermodular on {A,B}
    bump = from_values(universe("A", "B"), [0, 0, 0, 1])
    assert is_monotone(bump) and not is_polymatroid(bump)

    dip = from_values(universe("A", "B"), [0, 1, 1, 0])
    assert not is_monotone(dip)


@st.composite
def near_polymatroids(draw):
    """Sums of step functions (polymatroids), sometimes with a few values
    bumped up or down."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    values = [0] * size
    for v in draw(st.lists(st.integers(1, size - 1), max_size=4)):
        c = draw(st.integers(1, 3))
        for m in range(size):
            if m & v:
                values[m] += c
    bumps = st.tuples(st.integers(1, size - 1), st.integers(-2, 2))
    for m, d in draw(st.lists(bumps, max_size=2)):
        values[m] += d
    return from_values(universe(*"ABCD"[:n]), values)


@given(near_polymatroids())
@settings(max_examples=300, deadline=None)
def test_is_polymatroid_matches_brute_force(fn):
    assert is_polymatroid(fn) == polymatroid_brute(fn)


def test_modular_needs_nonnegative_weights():
    uni = universe("A", "B")
    signed = from_values(uni, [0, -1, 2, 1])
    assert not is_modular(signed)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 19), (4, 167), (5, 7580)])
def test_monotone_enumeration_counts(n, count):
    uni = universe(*[f"V{i}" for i in range(n)])
    fns = list(enumerate_monotone_boolean(uni))
    assert len(fns) == count
    seen = {tuple(fn.values) for fn in fns}
    assert len(seen) == count
    for fn in random.Random(7).sample(fns, min(40, count)):
        assert fn[0] == 0
        assert is_monotone(fn)
        assert all(v in (0, 1) for v in fn.values)


def test_monotone_enumeration_cap():
    uni = universe(*[f"V{i}" for i in range(MONOTONE_ENUM_MAX_N + 1)])
    with pytest.raises(DomainError):
        list(enumerate_monotone_boolean(uni))


def test_distribution_validation():
    with pytest.raises(DomainError):
        distribution_from_csv("A,B\n0,1\n")  # no prob column
    with pytest.raises(DomainError):
        distribution_from_csv("A,prob\n0,1/2\n0,1/2\n")  # duplicate row
    with pytest.raises(DomainError):
        distribution_from_csv("A,prob\n0,1/2\n1,1/3\n")  # does not sum to 1
    with pytest.raises(DomainError):
        distribution_from_csv("A,prob\n0,0\n1,1\n")  # zero probability


def test_xor_entropies():
    vec = entropic_from_distribution(distribution_from_csv(XOR_CSV))
    expect = [0, 1, 1, 2, 1, 2, 2, 2]
    for mask, h in enumerate(expect):
        assert vec[mask] == pytest.approx(h, abs=1e-12)


def test_fair_coin_entropy():
    vec = entropic_from_distribution(
        distribution_from_csv("A,prob\nheads,1/2\ntails,1/2\n")
    )
    assert vec[1] == pytest.approx(1.0)


@st.composite
def distributions(draw):
    n = draw(st.integers(1, 3))
    uni = universe(*[f"V{i}" for i in range(n)])
    support = draw(
        st.lists(
            st.tuples(*([st.sampled_from("abc")] * n)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, 9), min_size=len(support), max_size=len(support)
        )
    )
    total = sum(weights)
    rows = tuple(
        (tuple(vals), Fraction(w, total)) for vals, w in zip(support, weights)
    )
    return uni, rows


@given(distributions())
@settings(max_examples=60, deadline=None)
def test_entropy_vectors_look_polymatroidal(data):
    """Entropies satisfy monotonicity and submodularity up to float noise."""
    from entroplex import JointDistribution

    uni, rows = data
    vec = entropic_from_distribution(JointDistribution(uni, rows))
    eps = 1e-9
    full = uni.full_mask
    for m in range(full + 1):
        for i in range(uni.n):
            if not m >> i & 1:
                assert vec[m] <= vec[m | 1 << i] + eps
    for m in range(full + 1):
        for k in range(full + 1):
            assert vec[m] + vec[k] + eps >= vec[m | k] + vec[m & k]
    assert vec[0] == 0.0
    assert math.isfinite(vec[full])
