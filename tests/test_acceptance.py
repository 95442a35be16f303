"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines;
under plain `pytest -v` the per-test PASSED/FAILED verdicts carry the same
information.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from entroplex import (
    DomainError,
    MonSat3Instance,
    PartitionInstance,
    check_modular,
    check_monotone_fixpoint,
    check_polymatroid,
    check_simple_sigma,
    check_step,
    coloring_oracle,
    decode_coloring_witness,
    decode_monsat_witness,
    decode_partition_witness,
    from_3coloring,
    from_3dmonsat,
    from_partition,
    graph,
    logbound_modular,
    logbound_polymatroid_dual,
    logbound_simple_entropic,
    logbound_step,
    make_expr,
    parse_constraints,
    parse_inequality,
    partition_oracle,
    relation_from_csv,
    sat_oracle,
    satisfies_degrees,
    sigma_inequality,
    universe,
)
from entroplex.cli import main as cli_main
from entroplex.reductions import assignment_satisfies, coloring_is_proper
from helpers import (
    enumerate_monotone_boolean,
    pairing_lp_monotone,
    product_join,
    rand_sigma,
)

WORKED_TEXT = "h(X,Y) + h(Y,Z) + 2*h(X,Z) + h(X) >= h(Y) + 3*h(Z)"
SUBMOD_TEXT = "h(X,Y) + h(X,Z) >= h(X) + h(X,Y,Z)"
XOR_CSV = "A,B,C,prob\n0,0,0,1/4\n0,1,1,1/4\n1,0,1,1/4\n1,1,0,1/4\n"


class stopwatch:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def report(num: int, clock: stopwatch, detail: str) -> None:
    print(f"criterion {num}: PASS in {clock.elapsed:.2f}s ({detail})")


def test_criterion_01_worked_example():
    with stopwatch() as clock:
        expr = parse_inequality(WORKED_TEXT)
        fix = check_monotone_fixpoint(expr)
        assert fix.valid and pairing_lp_monotone(expr)
        assert fix.iterations <= 4
        cert = fix.certificate
        assert cert is not None
        assert cert.recombine().terms == expr.terms
        assert cert.is_separable()
    assert clock.elapsed < 1
    report(1, clock, f"valid twice, {fix.iterations} fixpoint iterations")


def test_criterion_02_submodularity():
    with stopwatch() as clock:
        expr = parse_inequality(SUBMOD_TEXT)
        full = expr.universe.full_mask
        assert not pairing_lp_monotone(expr)
        verdict = check_monotone_fixpoint(expr)
        assert not verdict.valid
        w = verdict.witness
        assert w is not None
        assert w.function[full] == 1
        assert all(
            w.function[m] == 0 for m in range(full)
        ), "witness must be the indicator of the full set"
        assert check_polymatroid(expr).valid
        assert check_step(expr).valid
        assert check_modular(expr).valid
    assert clock.elapsed < 1
    report(2, clock, "monotone witness h(XYZ)=1; valid in the smaller classes")


def test_criterion_03_monotone_triple_agreement():
    uni = universe("A", "B", "C")
    fns = [tuple(fn.values) for fn in enumerate_monotone_boolean(uni)]
    assert len(fns) == 19
    # Each function is 0/1, so its value on vec is the sum over its ones.
    ones = [[m - 1 for m in range(1, 8) if fn[m]] for fn in fns]
    assert all(set(fn) <= {0, 1} for fn in fns)
    checked = 0
    with stopwatch() as clock:
        for vec in itertools.product((-2, -1, 0, 1, 2), repeat=7):
            expr = make_expr(
                uni,
                {m: Fraction(vec[m - 1]) for m in range(1, 8) if vec[m - 1]},
            )
            brute = all(sum(vec[i] for i in idx) >= 0 for idx in ones)
            assert check_monotone_fixpoint(expr).valid == brute, vec
            assert pairing_lp_monotone(expr) == brute, vec
            checked += 1
    assert checked == 5 ** 7
    assert clock.elapsed < 600
    report(3, clock, f"exhaustive, {checked} inequalities, zero disagreements")


def test_criterion_04_monsat_round_trip():
    rng = random.Random(3401)
    with stopwatch() as clock:
        for _ in range(50):
            n = rng.randint(3, 8)
            variables = tuple(f"x{i}" for i in range(1, n + 1))
            triples = list(itertools.combinations(variables, 3))
            positive = tuple(
                frozenset(rng.choice(triples))
                for _ in range(rng.randint(1, 7))
            )
            negative = tuple(
                frozenset(rng.choice(triples))
                for _ in range(rng.randint(0, 7))
            )
            phi = MonSat3Instance(variables, positive, negative)
            verdict = check_step(from_3dmonsat(phi))
            assert verdict.valid == (not sat_oracle(phi))
            if not verdict.valid:
                true_vars = decode_monsat_witness(phi, verdict.witness)
                assert assignment_satisfies(phi, true_vars)
    assert clock.elapsed < 60
    report(4, clock, "50 instances, verdicts match the oracle, witnesses decode")


def test_criterion_05_coloring_round_trip():
    vertices = ("v1", "v2", "v3", "v4")
    pool = list(itertools.combinations(vertices, 2))
    assert len(pool) == 6
    valid_count = 0
    with stopwatch() as clock:
        for picks in itertools.product([False, True], repeat=6):
            g = graph(vertices, [e for e, take in zip(pool, picks) if take])
            verdict = check_step(from_3coloring(g))
            assert verdict.valid == (not coloring_oracle(g))
            if not verdict.valid:
                colors = decode_coloring_witness(g, verdict.witness)
                assert coloring_is_proper(g, colors)
            else:
                valid_count += 1
        k4 = graph(vertices, pool)
        assert check_step(from_3coloring(k4)).valid
    assert clock.elapsed < 120
    report(5, clock, f"64 graphs, {valid_count} uncolorable, K4 among them")


def test_criterion_06_partition_round_trip():
    with stopwatch() as clock:
        count = 0
        for size in range(1, 6):
            for items in itertools.combinations_with_replacement(
                range(1, 6), size
            ):
                if sum(items) % 2:
                    with pytest.raises(DomainError):
                        PartitionInstance(items)
                    continue
                count += 1
                inst = PartitionInstance(items)
                verdict = check_step(from_partition(inst))
                assert verdict.valid == (not partition_oracle(inst))
                if not verdict.valid:
                    side = decode_partition_witness(inst, verdict.witness)
                    assert 2 * sum(inst.items[i] for i in side) == sum(
                        inst.items
                    )
        assert check_step(from_partition(PartitionInstance((1, 3)))).valid
    assert clock.elapsed < 60
    report(6, clock, f"{count} even multisets, odd ones rejected")


def test_criterion_07_validity_chain():
    rng = random.Random(3407)
    with stopwatch() as clock:
        for _ in range(1000):
            n = rng.randint(1, 4)
            uni = universe(*[f"V{i}" for i in range(n)])
            terms = {
                m: Fraction(rng.randint(-2, 2))
                for m in range(1, uni.full_mask + 1)
            }
            expr = make_expr(uni, terms)
            mono = pairing_lp_monotone(expr)
            poly = check_polymatroid(expr).valid
            step = check_step(expr).valid
            modular = check_modular(expr).valid
            assert (not mono or poly) and (not poly or step) and (
                not step or modular
            )
    report(7, clock, "1000 inequalities, chain never violated")


def test_criterion_08_simple_sigma_coincidence():
    rng = random.Random(3408)
    finite = 0
    with stopwatch() as clock:
        for _ in range(200):
            query, sigma = rand_sigma(rng, n_max=6, simple=True)
            weights = tuple(
                Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
                for _ in sigma.entries
            )
            expr = sigma_inequality(sigma, weights)
            a = check_simple_sigma(expr).valid
            b = check_step(expr).valid
            c = check_polymatroid(expr).valid
            assert a == b == c

            r1 = logbound_simple_entropic(query, sigma)
            r2 = logbound_step(query, sigma)
            r3 = logbound_polymatroid_dual(query, sigma)
            assert r1.value == r2.value == r3.value
            if r1.is_finite:
                finite += 1
    assert clock.elapsed < 600
    report(8, clock, f"200 systems agree; {finite} with finite bounds")


def test_criterion_09_agm_desk_check():
    with stopwatch() as clock:
        query, sigma = parse_constraints(
            "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
            "card R1 <= 2\ncard R2 <= 2\ncard R3 <= 2\n"
        )
        for method in (
            logbound_simple_entropic,
            logbound_step,
            logbound_polymatroid_dual,
        ):
            assert method(query, sigma).value == Fraction(3, 2)

        # same shape with cardinality 4 per relation, full binary relations
        query4, sigma4 = parse_constraints(
            "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
            "card R1 <= 4\ncard R2 <= 4\ncard R3 <= 4\n"
        )
        bound = logbound_simple_entropic(query4, sigma4)
        assert bound.value == 3
        rows = "A,B\n0,0\n0,1\n1,0\n1,1\n"
        data = {
            "R1": relation_from_csv("R1", rows),
            "R2": relation_from_csv("R2", "B,C\n0,0\n0,1\n1,0\n1,1\n"),
            "R3": relation_from_csv("R3", "A,C\n0,0\n0,1\n1,0\n1,1\n"),
        }
        assert satisfies_degrees(data, query4, sigma4)
        out = product_join(
            [data[name].schema for name, _ in query4.atoms],
            [set(data[name].rows) for name, _ in query4.atoms],
        )
        assert len(out) == 8
        assert len(out) <= 2 ** bound.value
    report(9, clock, "3/2 by three methods; 8 joined tuples within 2^3")


def test_criterion_10_acyclic_coincidence():
    rng = random.Random(3410)
    with stopwatch() as clock:
        for _ in range(100):
            query, sigma = rand_sigma(rng, n_max=5, acyclic=True)
            a = logbound_modular(query, sigma)
            b = logbound_polymatroid_dual(query, sigma)
            assert a.value == b.value
    report(10, clock, "100 acyclic systems, modular equals polymatroid")


def test_criterion_11_xor_entropic_check(tmp_path, capsys):
    with stopwatch() as clock:
        ineq = tmp_path / "im.ineq"
        ineq.write_text("Im(A,B,C) >= 0\n")
        data = tmp_path / "xor.csv"
        data.write_text(XOR_CSV)
        code = cli_main(["eval", str(ineq), str(data)])
        printed = capsys.readouterr().out
        assert code == 0
        assert abs(float(printed) + 1.0) <= 1e-9

        verdict = check_step(parse_inequality("Im(A,B,C) >= 0"))
        assert verdict.valid

        # the same check through the CLI, for completeness
        code = cli_main(["check", str(ineq), "--class", "step", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["valid"] is True
    report(11, clock, "evaluates to -1.0 on XOR, still valid over steps")
