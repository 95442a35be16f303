"""Record types: read-only fields, equality, hash and repr by field."""

import copy
import pickle

from entroplex import (
    Axiom,
    Decomposition,
    EntropyVector,
    MonSat3Instance,
    PartitionInstance,
    a_reduction,
    check,
    conditional,
    distribution_from_csv,
    entropy,
    from_values,
    graph,
    logbound_modular,
    make_expr,
    parse_constraints,
    parse_inequality,
    relation_from_csv,
    step_function,
    universe,
)
from entroplex.dsl import parse_program, tokenize
from entroplex.functions import UpSetValues
from entroplex.lp import LPResult


def _records() -> list:
    uni = universe("A", "B")
    expr = parse_inequality("h(A) >= h(A,B)")
    verdict = check(expr, "step")
    query, sigma = parse_constraints("query Q(A,B) = R(A,B)\nlogdeg (A,B) <= 1\n")
    return [
        uni, make_expr(uni, {1: 1}), entropy(1), tokenize("h")[0],
        parse_program("h(A) >= 0"), from_values(uni, [0, 1, 1, 1]),
        step_function(uni, 1), UpSetValues(2, 1, (3,)),
        distribution_from_csv("A,prob\n0,1\n"), EntropyVector(uni, (0.0,) * 4),
        LPResult("optimal"), verdict, verdict.witness, Axiom("nonneg", 1),
        Decomposition(uni, ((1, Axiom("mono", 3, 1)),)), a_reduction(expr, "A"),
        conditional(1, 2), query, sigma, sigma.entries[0],
        logbound_modular(query, sigma), relation_from_csv("R", "A\n1\n"),
        MonSat3Instance(("a", "b", "c"), (frozenset("abc"),), ()),
        graph(["a", "b"], [("b", "a")]), PartitionInstance((1, 1)),
    ]


def test_records_are_read_only_and_compare_by_field():
    """A record rebuilt from its fields, pickled or copied is equal, with the
    same repr and hash; only the tuple records equal a tuple of their
    fields."""
    for record in _records():
        kind = type(record)
        is_tuple = isinstance(record, tuple)
        fields = kind._fields if is_tuple else [
            name for name in kind.__slots__ if not name.startswith("_")
        ]
        values = tuple(getattr(record, name) for name in fields)
        for name in fields:
            try:
                setattr(record, name, values[0])
            except AttributeError:
                pass
            else:
                raise AssertionError(f"{kind.__name__}.{name} is writable")
        assert not hasattr(record, "__dict__")
        rebuilt = kind(*values)
        assert rebuilt == record and not rebuilt != record
        assert repr(rebuilt) == repr(record)
        assert repr(record).startswith(f"{kind.__name__}({fields[0]}=")
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        try:
            assert hash(rebuilt) == hash(record)
        except TypeError:  # an Expr, or a record holding one: terms are a dict
            assert "Expr(" in repr(record)
        assert (record == values) is is_tuple, kind.__name__
