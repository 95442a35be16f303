"""Seeded workloads for the entroplex benchmark.

Every workload hands the package only generated inputs and produces its
corpus in rounds: one round is a fixed mix of item kinds, drawn fresh from the
seeded generator. An item is one verdict, one bound, or one CLI invocation.
Its ``run`` is what the benchmark times; its ``check`` runs afterwards,
outside the timed region, and recomputes the answer by an independent path.
A check returns None when the answer is right and a short reason otherwise.

The package is reached only through the ``entroplex`` namespace at call time,
so the tracer's wrappers (installed into every entroplex module) see each
call the items make.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

import entroplex as ex


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # step-Valid and monotone-Invalid, i.e. an input only the polymatroid LP
    # can settle; None where the benchmark has no brute-force truth.
    lp_needed: Optional[bool] = None
    span: str = "item"
    answer: object = None


def _value(terms: dict[int, Fraction], values) -> Fraction:
    return sum((c * values[m] for m, c in terms.items()), Fraction(0))


def _witness_negative(expr, verdict) -> Optional[str]:
    if verdict.witness is None:
        return "Invalid verdict without a witness"
    if _value(expr.terms, verdict.witness.function.values) >= 0:
        return "witness does not refute the inequality"
    return None


# ---------------------------------------------------------------- sweep3-auto

_SWEEP_ROUND = 400
_N3 = 3
_MASKS3 = range(1, 8)


def _brute_families() -> dict[str, list[tuple[int, ...]]]:
    """Value vectors, indexed by mask 0..7, of the functions the brute force uses."""
    popcount = [bin(m).count("1") for m in range(8)]
    monotone = []
    for bits in range(1 << 7):
        f = (0,) + tuple(bits >> (m - 1) & 1 for m in _MASKS3)
        if all(f[m] <= f[m | 1 << i] for m in range(8) for i in range(_N3)):
            monotone.append(f)
    steps = [tuple(1 if m & v else 0 for m in range(8)) for v in _MASKS3]
    modular = [tuple(m >> i & 1 for m in range(8)) for i in range(_N3)]
    # The polymatroid cone on three variables is generated by its 8 extreme
    # rays: the 7 step functions and the rank function of U(2,3).
    rays = steps + [tuple(min(popcount[m], 2) for m in range(8))]
    assert len(monotone) == 19  # monotone 0/1 functions vanishing on {}
    return {"monotone": monotone, "step": steps, "modular": modular,
            "polymatroid": rays}


_FAMILIES = _brute_families()


def _sweep_truth(vec: tuple[int, ...]) -> dict[str, bool]:
    return {
        cls: all(sum(vec[m - 1] * f[m] for m in _MASKS3) >= 0 for f in fns)
        for cls, fns in _FAMILIES.items()
    }


def _sweep_item(uni, code: int) -> Item:
    vec = tuple((code // 5 ** k) % 5 - 2 for k in range(7))
    expr = ex.make_expr(uni, {m: vec[m - 1] for m in _MASKS3 if vec[m - 1]})
    text = ex.format_inequality(expr)
    truth = _sweep_truth(vec)
    simple = all(m == 7 or bin(m).count("1") == 1
                 for m in _MASKS3 if vec[m - 1] < 0)

    def run():
        return ex.check(ex.parse_inequality(text), "auto")

    def check(verdict) -> Optional[str]:
        if simple:
            if verdict.per_class is not None:
                return "simple form answered per class"
            if verdict.valid != truth["step"]:
                return f"simple-form verdict {verdict.valid}, brute {truth['step']}"
            return None if verdict.valid else _witness_negative(expr, verdict)
        if verdict.per_class is None:
            return "non-simple form answered as simple"
        for cls in ("modular", "step", "polymatroid", "monotone"):
            sub = verdict.per_class[cls]
            if sub.valid != truth[cls]:
                return f"{cls} verdict {sub.valid}, brute {truth[cls]}"
            if not sub.valid:
                problem = _witness_negative(expr, sub)
                if problem is not None and not sub.witness_absent:
                    return f"{cls}: {problem}"
        if verdict.valid != all(truth[c] for c in ("modular", "step",
                                                  "polymatroid", "monotone")):
            return "overall verdict is not the conjunction"
        return None

    return Item("check(auto) simple" if simple else "check(auto) per-class",
                run, check, lp_needed=truth["step"] and not truth["monotone"])


def sweep3_rounds(rng: random.Random) -> Iterator[list[Item]]:
    uni = ex.universe("A", "B", "C")
    while True:
        yield [_sweep_item(uni, code)
               for code in rng.sample(range(5 ** 7), _SWEEP_ROUND)]


def sweep3_warmup() -> None:
    ex.check(ex.parse_inequality(
        "h(X,Y) + h(Y,Z) + 2*h(X,Z) + h(X) >= h(Y) + 3*h(Z)"), "auto")


# ---------------------------------------------------------------- cone-lp

# Sizes per round. Instances at n=6 cost 0.3 to 2.3 s each, so a 20 s run
# would average over too few of them to be steady; the timed rounds stop at
# n=5 and traced runs add one round with the larger Baseline sizes. The mix
# puts the median inside the n=4 dual class and the 90th percentile inside
# the n=5 dual class instead of in a gap between classes.
_CONE_POLY = (5,) * 8            # check_polymatroid
_CONE_DUAL = (4,) * 6 + (5,) * 5  # cyclic logbound_polymatroid_dual
_CONE_SYSTEMS = (2, 3, 4, 5)     # criterion-08 simple systems, by size
_CONE_HEAVY_POLY = (6,)          # check_polymatroid n=7 takes 9 to 32 s
_CONE_HEAVY_DUAL = (6,)
_CONE_HEAVY_SYSTEMS = (6,)


def _random_cone_expr(rng: random.Random, n: int):
    uni = ex.universe(*[f"V{i}" for i in range(n)])
    masks = rng.sample(range(1, 1 << n), 3 * n)
    return ex.make_expr(uni, {m: rng.choice((-2, -1, 1, 2)) for m in masks})


def _poly_item(rng: random.Random, n: int) -> Item:
    expr = _random_cone_expr(rng, n)

    def check(verdict) -> Optional[str]:
        if verdict.valid:
            if not ex.check_step(expr).valid:
                return "polymatroid-Valid but step-Invalid"
            return None
        if not ex.is_polymatroid(verdict.witness.function):
            return "witness is not a polymatroid"
        return _witness_negative(expr, verdict)

    return Item(f"check_polymatroid n={n}",
                lambda: ex.check_polymatroid(expr), check)


def _cyclic_system(rng: random.Random, n: int):
    names = [f"V{i}" for i in range(n)]
    atoms = [(names[i], names[(i + 1) % n], names[(i + 2) % n]) for i in range(n)]
    lines = ["query Q(%s) = %s" % (",".join(names), ", ".join(
        f"R{i}({','.join(a)})" for i, a in enumerate(atoms)))]
    for i, (a, b, c) in enumerate(atoms):
        lines.append(f"card R{i} <= {2 ** rng.randint(2, 5)}")
        lines.append(f"logdeg R{i} ({c} | {a},{b}) <= {rng.randint(0, 2)}")
    return ex.parse_constraints("\n".join(lines))


def _bound_le(a, b) -> bool:
    return b == math.inf or (a != math.inf and a <= b)


def _bound_self_check(sigma, result) -> Optional[str]:
    """The weights are a proof: their budget sum is the bound itself."""
    if not result.is_finite:
        return None
    budget = sum((w * e.log_degree for w, e in zip(result.weights, sigma.entries)),
                 Fraction(0))
    if budget != result.value:
        return f"weights give {budget}, bound says {result.value}"
    return None


def _dual_item(rng: random.Random, n: int) -> Item:
    query, sigma = _cyclic_system(rng, n)

    def check(result) -> Optional[str]:
        problem = _bound_self_check(sigma, result)
        if problem is not None:
            return problem
        modular = ex.logbound_modular(query, sigma).value
        step = ex.logbound_step(query, sigma).value
        if not (_bound_le(modular, step) and _bound_le(step, result.value)):
            return f"chain broken: modular {modular}, step {step}, " \
                   f"polymatroid {result.value}"
        return None

    return Item(f"logbound_polymatroid_dual cyclic n={n}",
                lambda: ex.logbound_polymatroid_dual(query, sigma), check)


def _simple_system(rng: random.Random, n: int):
    """Criterion-08 generator at a given size: a random simple system over
    one covering atom."""
    uni = ex.universe(*[f"V{i}" for i in range(n)])
    query = ex.Query(uni, (("R0", uni.full_mask),))
    entries = []
    for _ in range(rng.randint(1, 6)):
        v = rng.randint(1, uni.full_mask)
        u = (1 << rng.randrange(n)) & ~v if rng.random() < 0.7 else 0
        d = rng.choice([1, 2, 3, 4])
        b = Fraction(rng.randint(0, 3 * d), d)
        entries.append(ex.GuardedEntry(ex.conditional(v, u), 0, b))
    return query, ex.GuardedSigma(uni, tuple(entries))


# The three exact methods agree on a simple system; the modular bound, timed
# as a fourth item, lies at or below them.
_SYSTEM_EXACT = ("logbound_simple_entropic", "logbound_step",
                 "logbound_polymatroid_dual")
_SYSTEM_METHODS = _SYSTEM_EXACT + ("logbound_modular",)


def _system_items(rng: random.Random, n: int) -> list[Item]:
    query, sigma = _simple_system(rng, n)
    items: list[Item] = []

    def check(result) -> Optional[str]:
        problem = _bound_self_check(sigma, result)
        if problem is not None:
            return problem
        answers = {m: it.answer.value for m, it in zip(_SYSTEM_METHODS, items)
                   if it.answer is not None}
        exact = [answers[m] for m in _SYSTEM_EXACT if m in answers]
        if any(v != exact[0] for v in exact):
            return f"exact bound methods disagree: {exact}"
        modular = answers.get("logbound_modular")
        if modular is not None and exact and not _bound_le(modular, exact[0]):
            return f"modular bound {modular} above {exact[0]}"
        return None

    # The method is looked up at call time, so a traced run sees the wrapper.
    for method in _SYSTEM_METHODS:
        items.append(Item(f"{method} simple n={n}",
                          lambda m=method: getattr(ex, m)(query, sigma), check))
    return items


def _cone_round(rng: random.Random, poly, dual, systems) -> list[Item]:
    items = [_poly_item(rng, n) for n in poly]
    items += [_dual_item(rng, n) for n in dual]
    for n in systems:
        items += _system_items(rng, n)
    rng.shuffle(items)
    return items


def cone_rounds(rng: random.Random) -> Iterator[list[Item]]:
    while True:
        yield _cone_round(rng, _CONE_POLY, _CONE_DUAL, _CONE_SYSTEMS)


def cone_trace_rounds(rng: random.Random) -> Iterator[list[Item]]:
    yield _cone_round(rng, _CONE_HEAVY_POLY, _CONE_HEAVY_DUAL,
                      _CONE_HEAVY_SYSTEMS)
    yield from cone_rounds(rng)


def cone_warmup() -> None:
    query, sigma = ex.parse_constraints(
        "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
        "card R1 <= 2\ncard R2 <= 2\ncard R3 <= 2\n")
    ex.logbound_polymatroid_dual(query, sigma)


# ---------------------------------------------------------------- step-hard

def _monsat_sat(rng: random.Random, n: int):
    names = tuple(f"x{i}" for i in range(1, n + 1))
    true = frozenset(rng.sample(names, n // 2))
    triples = [frozenset(t) for t in itertools.combinations(names, 3)]
    positive = [t for t in triples if t & true]
    negative = [t for t in triples if not t <= true]
    return ex.MonSat3Instance(names, tuple(rng.sample(positive, n)),
                              tuple(rng.sample(negative, n)))


def _monsat_unsat(rng: random.Random, n: int):
    """All ten positive and ten negative triples over five variables (at least
    three of them true and at most two) plus random clauses."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    core = rng.sample(names, 5)
    triples = [frozenset(t) for t in itertools.combinations(core, 3)]
    extra = [frozenset(t) for t in itertools.combinations(names, 3)]
    positive = triples + rng.sample(extra, n // 4)
    negative = triples + rng.sample(extra, n // 4)
    return ex.MonSat3Instance(names, tuple(positive), tuple(negative))


def _graph_colorable(rng: random.Random, vertices: int):
    names = [f"v{i}" for i in range(1, vertices + 1)]
    color = {v: rng.randrange(3) for v in names}
    edges = [(a, b) for a, b in itertools.combinations(names, 2)
             if color[a] != color[b] and rng.random() < 0.7]
    return ex.graph(names, edges)


def _graph_uncolorable(rng: random.Random, vertices: int):
    names = [f"v{i}" for i in range(1, vertices + 1)]
    k4 = rng.sample(names, 4)
    edges = list(itertools.combinations(k4, 2))
    edges += [e for e in itertools.combinations(names, 2) if rng.random() < 0.3]
    return ex.graph(names, edges)


def _partition_solvable(rng: random.Random, n: int):
    half = [rng.randint(1, 3) for _ in range(n // 2)]
    other = [rng.randint(1, 3) for _ in range(n - n // 2 - 1)]
    gap = sum(half) - sum(other)
    while gap < 1:  # the last item closes the gap, so it must be positive
        other[rng.randrange(len(other))] = 1
        half[rng.randrange(len(half))] = 3
        gap = sum(half) - sum(other)
    items = half + other + [gap]
    rng.shuffle(items)
    return ex.PartitionInstance(tuple(items))


def _partition_unsolvable(rng: random.Random, n: int):
    """Even items whose total is 2 mod 4: half the total is odd."""
    twos = rng.randrange(1, n, 2)
    items = [2] * twos + [4] * (n - twos)
    rng.shuffle(items)
    return ex.PartitionInstance(tuple(items))


def _monsat_check(phi, witness) -> Optional[str]:
    true = ex.decode_monsat_witness(phi, witness)
    if not all(c & true for c in phi.positive) or any(
            c <= true for c in phi.negative):
        return "decoded assignment does not satisfy the formula"
    return None


def _coloring_check(g, witness) -> Optional[str]:
    colors = ex.decode_coloring_witness(g, witness)
    if any(colors[a] == colors[b] for a, b in g.edges):
        return "decoded coloring is not proper"
    return None


def _partition_check(inst, witness) -> Optional[str]:
    side = ex.decode_partition_witness(inst, witness)
    if 2 * sum(inst.items[i] for i in side) != sum(inst.items):
        return "decoded split is unequal"
    return None


# family: (brute-force oracle, witness check, inequality generator)
_STEP_FAMILIES = {
    "monsat3": (ex.sat_oracle, _monsat_check, "from_3dmonsat"),
    "coloring": (ex.coloring_oracle, _coloring_check, "from_3coloring"),
    "partition": (ex.partition_oracle, _partition_check, "from_partition"),
}
# (family, instance maker, size argument, step-set exponent n)
_STEP_ROUND = (
    ("monsat3", _monsat_sat, 14, 14),
    ("monsat3", _monsat_sat, 18, 18),
    ("monsat3", _monsat_unsat, 16, 16),
    ("monsat3", _monsat_unsat, 18, 18),
    ("coloring", _graph_colorable, 6, 18),
    ("coloring", _graph_uncolorable, 5, 15),
    ("partition", _partition_solvable, 16, 16),
    ("partition", _partition_unsolvable, 14, 14),
)


def _step_item(rng: random.Random, family: str, make, size: int, n: int) -> Item:
    instance = make(rng, size)
    oracle, witness_check, generator = _STEP_FAMILIES[family]
    solvable = make in (_monsat_sat, _graph_colorable, _partition_solvable)

    def run():
        return ex.check_step(getattr(ex, generator)(instance))

    solution: list[bool] = []  # the oracle's answer, computed on first use

    def check(verdict) -> Optional[str]:
        if not solution:
            solution.append(oracle(instance))
        if verdict.valid == solution[0]:
            return f"step verdict {verdict.valid}, oracle solvable {solution[0]}"
        return None if verdict.valid else witness_check(instance, verdict.witness)

    return Item(f"{family} {'sat' if solvable else 'unsat'} n={n}", run, check)


# The unsatisfiable monsat3 oracles cost as much as their step checks, so
# rounds come from a pool of this many, cycled, and each instance is solved
# by its oracle once.
_STEP_POOL = 8


def step_rounds(rng: random.Random) -> Iterator[list[Item]]:
    pool = [[_step_item(rng, *spec) for spec in _STEP_ROUND]
            for _ in range(_STEP_POOL)]
    while True:
        for items in pool:
            rng.shuffle(items)
            yield items


def step_warmup() -> None:
    ex.check_step(ex.from_partition(ex.PartitionInstance((1, 1, 2, 2, 3, 3))))


# ---------------------------------------------------------------- cli

# Files taken from README examples. The README's `card R1 <= 2^3` form is kept
# exactly as documented, even though the parser rejects it today.
CLI_FILES = {
    "worked.ineq": "h(X,Y) + h(Y,Z) + 2*h(X,Z) + h(X) >= h(Y) + 3*h(Z)\n",
    "submod.ineq": "h(X,Y) + h(X,Z) >= h(X) + h(X,Y,Z)\n",
    "mixed.ineq": "vars X,Y,Z;\nh(X) + h(Y) >= h(X,Y)\n",
    "im.ineq": "Im(A,B,C) >= 0\n",
    "xor.csv": "A,B,C,prob\n0,0,0,1/4\n0,1,1,1/4\n1,0,1,1/4\n1,1,0,1/4\n",
    "r.csv": "A,B\n0,0\n0,1\n1,0\n1,1\n",
    "triangle.cons": "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
                     "card R1 <= 2\ncard R2 <= 2\ncard R3 <= 2\n",
    "forms.cons": "query Q(A,B,C) = R1(A,B), R2(B,C), R3(A,C)\n"
                  "card R1 <= 2^3                 # at most 8 tuples; plain "
                  "integers must be powers of two\n"
                  "logdeg R2 (C | B) <= 1         # each B-value appears with "
                  "at most 2^1 C-values in R2\n"
                  "logdeg (A | B,C) <= 0          # guard inferred from the "
                  "atoms covering {A,B,C}\n",
    "phi.cnf": "c monotone 3-SAT\np monsat3 6 4\n+ 1 2 3\n+ 4 5 6\n- 1 2 4\n"
               "- 3 5 6\n",
    "graph.col": "c a 5-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n",
    "nums.txt": "3 1 1 2 2 1\n",
}

_WORKED_CERTIFICATE = [
    "1 * Mono({X,Y} >= {Y})",
    "2 * Mono({X,Z} >= {Z})",
    "1 * Mono({Y,Z} >= {Z})",
    "1 * NonNeg({X})",
]


def _json_check(expected_code: int, test: Callable[[dict], bool]):
    def check(answer) -> Optional[str]:
        code, out = answer
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return None if test(doc) else f"unexpected document {doc}"
    return check


def _text_check(expected_code: int, test: Callable[[str], bool]):
    def check(answer) -> Optional[str]:
        code, out = answer
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        return None if test(out) else f"unexpected output {out!r}"
    return check


def _reduce_test(kind: str, file: str):
    parse = {"monsat3": (ex.parse_monsat, ex.from_3dmonsat),
             "coloring": (ex.parse_graph, ex.from_3coloring),
             "partition": (ex.parse_partition, ex.from_partition)}[kind]

    def test(out: str) -> bool:
        expected = parse[1](parse[0](CLI_FILES[file]))
        return ex.parse_inequality(out).terms == expected.terms
    return test


# (subcommand arguments, check of (exit code, stdout))
CLI_CORPUS = (
    (["check", "worked.ineq", "--class", "monotone", "--certificate", "--json"],
     _json_check(0, lambda d: d["valid"] is True
                 and d["certificate"] == _WORKED_CERTIFICATE)),
    (["check", "submod.ineq", "--class", "monotone", "--witness", "--json"],
     _json_check(1, lambda d: d["valid"] is False
                 and d["witness"]["nonzero"] == {"{X,Y,Z}": "1"})),
    (["check", "mixed.ineq", "--json"],
     _json_check(1, lambda d: d["valid"] is False and {
         k: v["valid"] for k, v in d["per_class"].items()} == {
         "modular": True, "step": True, "polymatroid": True,
         "monotone": False})),
    (["check", "im.ineq", "--class", "step", "--json"],
     _json_check(0, lambda d: d["valid"] is True)),
    (["bound", "triangle.cons", "--json"],
     _json_check(0, lambda d: d["value"] == "3/2"
                 and d["weights"] == ["1/2", "1/2", "1/2"])),
    # h(A,B,C) = h(B,C) <= h(B) + h(C|B) <= 3 + 1, attained by B of 3 bits,
    # C of 1 bit and A a function of B.
    (["bound", "forms.cons", "--json"],
     _json_check(0, lambda d: Fraction(d["value"]) == 4)),
    (["reduce", "monsat3", "phi.cnf"],
     _text_check(0, _reduce_test("monsat3", "phi.cnf"))),
    (["reduce", "coloring", "graph.col"],
     _text_check(0, _reduce_test("coloring", "graph.col"))),
    (["reduce", "partition", "nums.txt"],
     _text_check(0, _reduce_test("partition", "nums.txt"))),
    (["eval", "im.ineq", "xor.csv"],
     _text_check(0, lambda out: abs(float(out) + 1.0) <= 1e-9)),
    (["degscan", "r.csv", "B|A"], _text_check(0, lambda out: out.strip() == "2")),
    (["degscan", "r.csv", "A,B"], _text_check(0, lambda out: out.strip() == "4")),
)


class CliError(RuntimeError):
    """The CLI exited with its error code 2."""


_CLI_ENV = dict(os.environ,
                PYTHONPATH=str(Path(ex.__file__).resolve().parent.parent))


def _cli_invoke(workdir: Path, args: list[str]) -> tuple[int, str]:
    """Exit code and standard output; the error exit 2 raises CliError."""
    proc = subprocess.run(
        [sys.executable, "-m", "entroplex.cli", *args], cwd=workdir,
        env=_CLI_ENV, capture_output=True, text=True, timeout=120)
    if proc.returncode == 2:
        raise CliError(proc.stderr.strip())
    return proc.returncode, proc.stdout


def cli_rounds(rng: random.Random, workdir: Path) -> Iterator[list[Item]]:
    """Sequential `python -m entroplex.cli` processes; the corpus files are
    written into the working directory at once, the rounds drawn lazily."""
    for name, text in CLI_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return _cli_round_items(rng, workdir)


def _cli_round_items(rng: random.Random, workdir: Path) -> Iterator[list[Item]]:
    while True:
        items = [
            Item(f"cli {args[0]} {args[1]}",
                 lambda args=args: _cli_invoke(workdir, args), check,
                 span=f"cli.{args[0]}")
            for args, check in CLI_CORPUS
        ]
        rng.shuffle(items)
        yield items


def cli_warmup() -> None:
    """Byte-compiles the CLI module the timed processes import."""
    importlib.import_module("entroplex.cli")


# ---------------------------------------------------------------- registry

_PROBE = str(Path(__file__).resolve().parent / "setup_probe.py")


def _in_process(rounds: Callable[[random.Random], Iterator[list[Item]]]):
    """A rounds factory that needs no working directory."""
    return lambda rng, workdir: rounds(rng)


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    # The highest percentile a run of the stated size has at least 10
    # samples beyond; runs are extended until it does.
    tail_pct: float
    trace_rounds: int        # fixed corpus of a traced run, in rounds
    # Rounds of fresh items from the seeded generator, given a working
    # directory of the run's own.
    rounds: Callable[[random.Random, Path], Iterator[list[Item]]]
    warmup: Callable[[], None]
    # Arguments to the interpreter, run as a fresh process in the working
    # directory once the rounds factory has been called: the time to the
    # first answer.
    setup_args: tuple[str, ...]
    # Peak memory is that of the child processes, not of the benchmark.
    rss_of_children: bool = False
    trace_corpus: Optional[Callable[[random.Random, Path],
                                    Iterator[list[Item]]]] = None


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep3-auto", 99.0, 6, _in_process(sweep3_rounds),
                 sweep3_warmup, (_PROBE, "sweep3-auto")),
        Workload("cone-lp", 90.0, 4, _in_process(cone_rounds), cone_warmup,
                 (_PROBE, "cone-lp"),
                 trace_corpus=_in_process(cone_trace_rounds)),
        Workload("step-hard", 80.0, 3, _in_process(step_rounds), step_warmup,
                 (_PROBE, "step-hard")),
        Workload("cli", 80.0, 2, cli_rounds, cli_warmup,
                 ("-m", "entroplex.cli", "check", "worked.ineq", "--class",
                  "monotone", "--certificate"),
                 rss_of_children=True),
    )
}
