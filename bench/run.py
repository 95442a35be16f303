"""Benchmark for entroplex: seeded workloads, checked answers, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run it from anywhere; it measures the package in ``src/`` next to this
directory. With ``--trace 0`` it measures the end-to-end metrics: closed
loop, one client, whole rounds of the seeded corpus until ``S`` seconds of
timed work are done and the workload's tail percentile has at least 10
samples beyond it. Every time it reports is scaled to a reference host
speed by a kernel timed between items (see ``speed.py``); the unscaled
figures are printed in the report. With ``--trace 1`` it runs the
workload's fixed traced corpus twice, untraced and then traced, and reports
per-layer metrics; the difference of the two walls is the tracing overhead. ``all`` runs every
workload in turn, each in its own child process so that peak memory is per
workload.

Every answer is checked outside the timed region by an independent path. A
human-readable report comes first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts items
that raised, exited with an error or failed their check; ``correct`` is false
only when an answer disagreed with its check. Spans of traced runs are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
SETUP_PROBES = 3  # kernel samples before each set-up process
SPAWN_REPEATS = 5

# ROADMAP Baseline rows (CPython 3.11.7, 2 cores, no gmpy2), in seconds per
# item, with the item kind whose median this run sets beside them.
BASELINE = {
    "sweep3-auto": (
        ("check(auto), 3-variable sweep slice, mean per item", 22.3 / 15625,
         None),
    ),
    "cone-lp": (
        ("check_polymatroid n=5", 0.14, "check_polymatroid n=5"),
        ("check_polymatroid n=6", 0.67, "check_polymatroid n=6"),
        ("check_polymatroid n=7", 5.1, "check_polymatroid n=7"),
        ("logbound_polymatroid_dual cyclic n=4", 0.03,
         "logbound_polymatroid_dual cyclic n=4"),
        ("logbound_polymatroid_dual cyclic n=5", 0.16,
         "logbound_polymatroid_dual cyclic n=5"),
        ("logbound_polymatroid_dual cyclic n=6", 1.8,
         "logbound_polymatroid_dual cyclic n=6"),
    ),
    "cli": (
        ("entroplex check on submodularity, --json, wall", 0.14,
         "cli check submod.ineq"),
    ),
}
BASELINE_IMPORT_S = 0.058
NOT_IN_CORPUS = {
    "cone-lp": "timed runs stop at n=5, traced runs add n=6, and n=7 "
               "(9 to 32 s per instance on a 2-core machine) is never run",
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def environment() -> str:
    gmpy2 = "present" if importlib.util.find_spec("gmpy2") else "absent"
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"gmpy2 {gmpy2}, commit {git_commit()}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn_wall(cmd: list[str], env: dict, cwd: Path) -> float:
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                          timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return wall


def median_wall(cmd: list[str], env: dict, cwd: Path, repeats: int) -> float:
    spawn_wall(cmd, env, cwd)  # byte-compiles and fills the page cache
    return statistics.median(spawn_wall(cmd, env, cwd) for _ in range(repeats))


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def enough_for_tail(n: int, pct: float) -> bool:
    return n - math.ceil(pct / 100 * n) >= 10


class Runner:
    """Runs rounds of items, times each run, checks each answer."""

    def __init__(self) -> None:
        # (midpoint, seconds, round, kind) of each timed item
        self.samples: list[tuple[float, float, int, str]] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.timed = 0.0

    def run_round(self, items, tracer=None, probe=None) -> None:
        errors = []
        for index, item in enumerate(items):
            item.answer = None
            error = None
            if probe is not None:
                probe.before_item()
            start = time.perf_counter()
            try:
                if tracer is None:
                    item.answer = item.run()
                else:
                    item.answer = tracer.run_item(
                        f"{self.rounds}.{index}", item.span, item.run)
            except Exception as exc:  # an item that raises is a failed item
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if probe is not None:
                probe.after_item(elapsed)
            self.timed += elapsed
            self.samples.append((start + elapsed / 2, elapsed, self.rounds,
                                 item.kind))
            errors.append(error)
        self.rounds += 1
        for item, error in zip(items, errors):
            self.attempted += 1
            if error is None:
                try:
                    error = item.check(item.answer)
                except Exception as exc:  # a check that cannot run is a miss
                    error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    self.wrong += 1
            if error is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{item.kind}: {error}")

    def latencies(self, probe=None) -> list[float]:
        """Item times, scaled to the reference host speed when a probe is
        given."""
        if probe is None:
            return [elapsed for _, elapsed, _, _ in self.samples]
        return [elapsed * probe.scale(mid)
                for mid, elapsed, _, _ in self.samples]

    def by_round(self, latencies: list[float]) -> list[list[float]]:
        rounds: list[list[float]] = [[] for _ in range(self.rounds)]
        for (_, _, round_no, _), latency in zip(self.samples, latencies):
            rounds[round_no].append(latency)
        return rounds

    def by_kind(self) -> dict[str, list[float]]:
        kinds: dict[str, list[float]] = {}
        for _, elapsed, _, kind in self.samples:
            kinds.setdefault(kind, []).append(elapsed)
        return kinds


def run_workload(args, workload) -> dict:
    rng = random.Random(f"{workload.name}:{args.seed}")
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return run_traced(args, workload, rng, workdir)
        return run_timed(args, workload, rng, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def scaled_setup(cmd: list[str], env: dict, cwd: Path,
                 probe: SpeedProbe) -> tuple[float, float]:
    """Median set-up wall of fresh processes, scaled and raw."""
    spawn_wall(cmd, env, cwd)  # byte-compiles and fills the page cache
    walls = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            probe.sample()
        start = time.perf_counter()
        walls.append((start, spawn_wall(cmd, env, cwd)))
    for _ in range(SETUP_PROBES):
        probe.sample()
    return (statistics.median(wall * probe.scale(start + wall / 2)
                              for start, wall in walls),
            statistics.median(wall for _, wall in walls))


def run_timed(args, workload, rng, workdir: Path) -> dict:
    corpus = workload.rounds(rng, workdir)
    probe = SpeedProbe()
    setup_s, setup_raw = scaled_setup(
        [sys.executable, *workload.setup_args],
        dict(os.environ, PYTHONPATH=str(SRC)), workdir, probe)
    workload.warmup()
    runner = Runner()
    for items in corpus:
        runner.run_round(items, probe=probe)
        if runner.timed >= args.seconds and enough_for_tail(
                runner.attempted, workload.tail_pct):
            break
    usage = (resource.RUSAGE_CHILDREN if workload.rss_of_children
             else resource.RUSAGE_SELF)
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024
    scaled = runner.latencies(probe)
    raw = runner.latencies()
    rates, p50s, tail_ms, beyond = latency_summary(runner, scaled,
                                                   workload.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (rates, "1/s"),
        "latency_p50_ms": (p50s, "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    raw_rates, raw_p50s, raw_tail_ms, _ = latency_summary(runner, raw,
                                                          workload.tail_pct)
    rounds = runner.rounds
    lines = [
        f"corpus: {rounds} rounds of {runner.attempted // rounds} items, "
        f"{runner.attempted} attempted in {runner.timed:.3f} s timed",
        f"failed_ratio: {runner.failed / runner.attempted:.4f} ratio "
        f"({runner.failed} of {runner.attempted}; {runner.wrong} wrong answers)",
    ]
    lines += [f"  failure: {p_}" for p_ in runner.problems]
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in
              metrics.items()]
    lines += [
        f"  times are scaled to a host where the speed kernel takes "
        f"{REFERENCE_S * 1e3:g} ms; here it took {probe.median_s() * 1e3:.4g} "
        f"ms (median of {len(probe.durations)} samples), and unscaled the "
        f"run reads setup_s {setup_raw:.6g} s, items_per_s {raw_rates:.6g} "
        f"1/s, latency_p50_ms {raw_p50s:.6g} ms, latency_tail_ms "
        f"{raw_tail_ms:.6g} ms",
        f"  items_per_s and latency_p50_ms are medians over the {rounds} "
        f"rounds (pooled: {len(scaled) / sum(scaled):.6g} 1/s, "
        f"{statistics.median(scaled) * 1e3:.6g} ms); "
        f"latency_tail_ms is p{workload.tail_pct:g} over all {len(scaled)} "
        f"samples, {beyond} beyond it; setup_s is the median of "
        f"{SETUP_REPEATS} fresh processes",
    ]
    lines += kind_lines(runner)
    lines += baseline_lines(workload.name, runner)
    return finish(runner.attempted, runner.failed, runner.wrong, metrics,
                  lines)


def latency_summary(runner: Runner, latencies: list[float],
                    pct: float) -> tuple[float, float, float, int]:
    """Median round rate, median round p50 in ms, tail in ms and the
    number of samples beyond it."""
    rounds = runner.by_round(latencies)
    rate = statistics.median(len(r) / sum(r) for r in rounds)
    p50_ms = statistics.median(statistics.median(r) for r in rounds) * 1e3
    tail_s, beyond = tail(latencies, pct)
    return rate, p50_ms, tail_s * 1e3, beyond


def kind_lines(runner: Runner) -> list[str]:
    lines = ["median unscaled latency by item kind:"]
    for kind, samples in sorted(runner.by_kind().items()):
        lines.append(f"  {kind}: {statistics.median(samples) * 1e3:.4g} ms "
                     f"({len(samples)} items)")
    return lines


def baseline_lines(name: str, runner: Runner) -> list[str]:
    rows = BASELINE.get(name)
    if not rows:
        return []
    lines = ["ROADMAP Baseline beside this run (seconds per item, "
             "unscaled):"]
    by_kind = runner.by_kind()
    for label, roadmap_s, kind in rows:
        if kind is None:
            here = statistics.fmean(runner.latencies())
            where = f"mean of {runner.attempted}"
        elif kind in by_kind:
            samples = by_kind[kind]
            here = statistics.median(samples)
            where = f"median of {len(samples)}"
        else:
            lines.append(f"  {label}: ROADMAP {roadmap_s:.4g}, here not in "
                         f"this run's corpus ({NOT_IN_CORPUS[name]})")
            continue
        lines.append(f"  {label}: ROADMAP {roadmap_s:.4g}, here {here:.4g} "
                     f"({where})")
    return lines


def run_traced(args, workload, rng, workdir: Path) -> dict:
    from tracing import Tracer, layer_metrics
    corpus = (workload.trace_corpus or workload.rounds)(rng, workdir)
    rounds = list(itertools.islice(corpus, workload.trace_rounds))
    workload.warmup()
    plain = Runner()
    for items in rounds:
        plain.run_round(items)
    tracer = Tracer()
    tracer.install()
    traced = Runner()
    for items in rounds:
        traced.run_round(items, tracer)

    metrics = layer_metrics(tracer)
    useful, base = 0, 0
    by_item = tracer.polymatroid_calls_by_item()
    for round_no, items in enumerate(rounds):
        for index, item in enumerate(items):
            if item.lp_needed is None:
                continue
            calls = by_item.get(f"{round_no}.{index}", 0)
            base += calls
            useful += calls if item.lp_needed else 0
    metrics["validity.polymatroid_lp_useful_ratio"] = (
        useful / base if base else 0.0, "ratio")
    metrics["validity.polymatroid_lp_useful_ratio.base"] = (base, "count")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    interpreter = median_wall([sys.executable, "-c", "pass"], env, ROOT,
                              SPAWN_REPEATS)
    with_cli = median_wall([sys.executable, "-c", "import entroplex.cli"], env,
                           ROOT, SPAWN_REPEATS)
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (with_cli - interpreter, "s")
    totals, _ = tracer.self_times()
    for sub in ("check", "bound", "reduce"):
        metrics[f"cli.{sub}.wall_s"] = (totals.get(f"cli.{sub}", 0.0), "s")
    metrics["trace.overhead_s"] = (traced.timed - plain.timed, "s")

    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(path)
    lines = [
        f"traced corpus: {len(rounds)} rounds, {traced.attempted} items; "
        f"untraced {plain.timed:.3f} s, traced {traced.timed:.3f} s, "
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}",
        f"failed_ratio: {traced.failed / traced.attempted:.4f} ratio "
        f"({traced.failed} of {traced.attempted} traced; {plain.failed} of "
        f"{plain.attempted} untraced)",
    ]
    lines += [f"  failure: {p_}" for p_ in traced.problems]
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in
              metrics.items()]
    lines.append(f"  cli.import_s beside ROADMAP Baseline: ROADMAP "
                 f"{BASELINE_IMPORT_S:.3g} s, here {with_cli - interpreter:.3g} s")
    lines += baseline_lines(workload.name, plain)
    return finish(plain.attempted + traced.attempted,
                  plain.failed + traced.failed, plain.wrong + traced.wrong,
                  metrics, lines)


def finish(attempted: int, failed: int, wrong: int, metrics: dict,
           lines: list[str]) -> dict:
    for line in lines:
        print(line)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    args = parse_args()
    if not (SRC / "entroplex" / "__init__.py").is_file():
        print(f"error: no entroplex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entroplex
    if Path(entroplex.__file__).resolve().parent != SRC / "entroplex":
        print(f"error: imported entroplex from {entroplex.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    print(f"entroplex benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print(f"environment: {environment()}", flush=True)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    result = run_workload(args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
