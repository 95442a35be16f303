"""Hardness reductions: instances, oracles, round trips, witness decoding."""

import itertools
import random

import pytest

from entroplex import (
    DomainError,
    Graph,
    MonSat3Instance,
    PartitionInstance,
    check_step,
    coloring_oracle,
    decode_coloring_witness,
    decode_monsat_witness,
    decode_partition_witness,
    from_3coloring,
    from_3dmonsat,
    from_partition,
    graph,
    parse_graph,
    parse_monsat,
    parse_partition,
    partition_oracle,
    sat_oracle,
)
from entroplex.reductions import COLORS, assignment_satisfies, coloring_is_proper
from helpers import (
    coloring_by_measures,
    load_bench,
    monsat_by_measures,
    partition_by_measures,
)


def rand_monsat(rng):
    n = rng.randint(3, 8)
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    triples = list(itertools.combinations(variables, 3))
    positive = tuple(
        frozenset(rng.choice(triples)) for _ in range(rng.randint(0, 6))
    )
    negative = tuple(
        frozenset(rng.choice(triples)) for _ in range(rng.randint(0, 6))
    )
    if not positive and not negative:
        positive = (frozenset(triples[0]),)
    return MonSat3Instance(variables, positive, negative)


def test_instance_validation():
    with pytest.raises(DomainError):
        MonSat3Instance(("x1", "x1", "x2"), (frozenset(["x1", "x2"]),), ())
    with pytest.raises(DomainError):
        MonSat3Instance(("x1", "x2"), (frozenset(["x1", "x2"]),), ())
    with pytest.raises(DomainError):
        MonSat3Instance(("x1", "x2", "x3"), (), ())
    with pytest.raises(DomainError):
        MonSat3Instance(
            ("x1", "x2", "x3"), (frozenset(["x1", "x2", "x9"]),), ()
        )
    with pytest.raises(DomainError):
        Graph(("v1",), (("v1", "v1"),))
    with pytest.raises(DomainError):
        Graph(("v1", "v2"), (("v2", "v1"),))  # must be endpoint-sorted
    with pytest.raises(DomainError):
        PartitionInstance((1, 2))  # odd total
    with pytest.raises(DomainError):
        PartitionInstance((0, 2))
    with pytest.raises(DomainError):
        PartitionInstance(())


def test_graph_factory_normalizes():
    g = graph(["v1", "v2", "v3"], [("v3", "v1"), ("v1", "v3"), ("v1", "v2")])
    assert g.edges == (("v1", "v2"), ("v1", "v3"))


def test_assignment_satisfies():
    phi = MonSat3Instance(
        ("x1", "x2", "x3", "x4"),
        (frozenset(["x1", "x2", "x3"]),),
        (frozenset(["x2", "x3", "x4"]),),
    )
    assert assignment_satisfies(phi, frozenset(["x1"]))
    assert not assignment_satisfies(phi, frozenset())  # positive clause fails
    assert not assignment_satisfies(phi, frozenset(["x2", "x3", "x4"]))


def test_partition_oracle_against_subset_scan():
    rng = random.Random(11)
    for _ in range(60):
        items = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
        if sum(items) % 2:
            items.append(1)
        inst = PartitionInstance(tuple(items))
        half = sum(items) // 2
        want = any(
            sum(sub) == half
            for r in range(len(items) + 1)
            for sub in itertools.combinations(items, r)
        )
        assert partition_oracle(inst) == want


def test_monsat_round_trip():
    rng = random.Random(12)
    for _ in range(25):
        phi = rand_monsat(rng)
        expr = from_3dmonsat(phi)
        assert expr.universe.names == tuple(sorted(phi.variables))
        verdict = check_step(expr)
        satisfiable = sat_oracle(phi)
        assert verdict.valid == (not satisfiable)
        if not verdict.valid:
            true_vars = decode_monsat_witness(phi, verdict.witness)
            assert assignment_satisfies(phi, true_vars)


def test_monsat_unsat_family_is_valid():
    variables = tuple(f"x{i}" for i in range(1, 7))
    triples = tuple(
        frozenset(t) for t in itertools.combinations(variables, 3)
    )
    phi = MonSat3Instance(variables, triples, triples)
    assert not sat_oracle(phi)
    assert check_step(from_3dmonsat(phi)).valid


def test_coloring_round_trip():
    rng = random.Random(13)
    vertices = ["v1", "v2", "v3", "v4", "v5"]
    for _ in range(15):
        k = rng.randint(1, 5)
        vs = vertices[:k]
        pool = list(itertools.combinations(vs, 2))
        edges = [e for e in pool if rng.random() < 0.6]
        g = graph(vs, edges)
        expr = from_3coloring(g)
        assert expr.universe.n == 3 * k
        verdict = check_step(expr)
        colorable = coloring_oracle(g)
        assert verdict.valid == (not colorable)
        if not verdict.valid:
            colors = decode_coloring_witness(g, verdict.witness)
            assert coloring_is_proper(g, colors)


def test_k4_not_colorable():
    vs = ["v1", "v2", "v3", "v4"]
    k4 = graph(vs, itertools.combinations(vs, 2))
    assert not coloring_oracle(k4)
    assert check_step(from_3coloring(k4)).valid


def test_coloring_decode_rejects_ambiguity():
    g = graph(["v1"], [])
    expr = from_3coloring(g)
    verdict = check_step(expr)
    assert not verdict.valid  # a single vertex is trivially colorable
    # a witness covering every color variable leaves no color choices
    from entroplex import step_function
    from entroplex.validity import Witness

    uni = expr.universe
    fake = Witness(
        "step", step_function(uni, uni.full_mask), step_set=uni.full_mask
    )
    with pytest.raises(DomainError):
        decode_coloring_witness(g, fake)


def test_partition_round_trip():
    rng = random.Random(14)
    count = 0
    for _ in range(40):
        items = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
        if sum(items) % 2:
            continue
        count += 1
        inst = PartitionInstance(items)
        expr = from_partition(inst)
        verdict = check_step(expr)
        assert verdict.valid == (not partition_oracle(inst))
        if not verdict.valid:
            side = decode_partition_witness(inst, verdict.witness)
            assert 2 * sum(inst.items[i] for i in side) == sum(inst.items)
    assert count > 10


def test_partition_13_is_valid():
    inst = PartitionInstance((1, 3))
    assert not partition_oracle(inst)
    assert check_step(from_partition(inst)).valid


def test_pair_form_of_coloring_and_partition():
    """Negative sets of these reductions are pairs (or smaller)."""
    g = graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
    for expr in (from_3coloring(g), from_partition(PartitionInstance((2, 1, 1)))):
        _, rhs = expr.two_sided()
        assert all(bin(mask).count("1") <= 2 for mask in rhs)


def test_generators_equal_measure_form():
    """Each generator equals its inequality written as measures, on seeded
    instances of the step-hard benchmark's shapes (n = 14-18) and on the
    inputs of README's `reduce` examples."""
    workloads = load_bench("workloads")
    forms = {
        "monsat3": (from_3dmonsat, monsat_by_measures),
        "coloring": (from_3coloring, coloring_by_measures),
        "partition": (from_partition, partition_by_measures),
    }
    rng = random.Random(14)
    cases = [(family, make(rng, size))
             for family, make, size, _ in workloads._STEP_ROUND]
    files = workloads.CLI_FILES
    cases += [
        ("monsat3", parse_monsat(files["phi.cnf"])),
        ("coloring", parse_graph(files["graph.col"])),
        ("partition", parse_partition(files["nums.txt"])),
    ]
    sizes = set()
    for family, instance in cases:
        generate, by_measures = forms[family]
        expr = generate(instance)
        assert expr == by_measures(instance)
        assert all(type(c) is int for c in expr.terms.values())
        sizes.add(expr.universe.n)
    assert {14, 15, 16, 18} <= sizes


def test_parse_monsat():
    phi = parse_monsat("c comment\np monsat3 4 2\n+ 1 2 3\n- 2 3 4\n")
    assert phi.variables == ("x1", "x2", "x3", "x4")
    assert phi.positive == (frozenset(["x1", "x2", "x3"]),)
    assert phi.negative == (frozenset(["x2", "x3", "x4"]),)
    with pytest.raises(DomainError):
        parse_monsat("+ 1 2 3\n")
    with pytest.raises(DomainError):
        parse_monsat("p monsat3 4 1\n+ 1 2 9\n")
    with pytest.raises(DomainError):
        parse_monsat("p monsat3 4 2\n+ 1 2 3\n")  # count mismatch
    with pytest.raises(DomainError):
        parse_monsat("p monsat3 4 1\n* 1 2 3\n")


def test_parse_graph():
    g = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g.vertices == ("v1", "v2", "v3")
    assert g.edges == (("v1", "v2"), ("v2", "v3"))
    with pytest.raises(DomainError):
        parse_graph("p edge 2 1\ne 1 5\n")
    with pytest.raises(DomainError):
        parse_graph("p graph 2 0\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_graph, "p edge x 1\ne 1 2\n", "line 1: bad problem counts"),
        (parse_graph, "p edge 2 1\ne 1 y\n", "line 2: bad vertex index"),
        (parse_monsat, "p monsat3 4 z\n+ 1 2 3\n", "line 1: bad problem counts"),
        (parse_monsat, "p monsat3 4 1\n+- 1 2 3\n", "line 2: expected"),
    ],
)
def test_parse_instance_rejects_malformed_fields(parse, text, message):
    with pytest.raises(DomainError, match=message):
        parse(text)


def test_parse_partition():
    assert parse_partition(" 1 3\n").items == (1, 3)
    with pytest.raises(DomainError):
        parse_partition("")
    with pytest.raises(DomainError):
        parse_partition("1 two")
