"""The benchmark's in-process workloads run in tier-1: one round each."""

import random

import pytest

from helpers import load_bench


@pytest.mark.parametrize("name", ["sweep3-auto", "cone-lp", "step-hard"])
def test_workload_round_runs_and_checks(name, tmp_path):
    """One seeded round of an in-process workload: every item runs, and
    its own check, which may read the other items' answers, returns None.

    The cli workload is left out: its `forms.cons` item fails on every
    round by construction, since the copy of README's constraint file under
    bench/ is stale and only a change to the benchmark may mend it."""
    workload = load_bench("workloads").WORKLOADS[name]
    items = next(workload.rounds(random.Random(29), tmp_path))
    assert items
    for item in items:
        item.answer = item.run()
    for item in items:
        assert item.check(item.answer) is None, item.kind
