"""The search counts recorded in the newest BENCH_*.json still hold.

Every BENCH_<n>.json at the repository root records, per benchmark
workload, the last JSON line of

    python3 perfbench/run.py --workload W --seed 1 --seconds 35 --trace 1

for each commit it compares. This test solves the seed-1 corpus of every
workload under every strategy once, without timing, and requires the
corpus-summed expanded, generated and peak-open counts to equal the
newest file's "change" run; its "parent" run may differ, when the change
altered counts on purpose and says so. A speed-up that silently changes
search behaviour fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from porplan import (
    Limits,
    astar,
    bfs,
    make_bare_strategy,
    make_heuristic,
    make_strategy,
    parse_sas,
)
from conftest import ROOT, perfbench_corpus

KINDS = ("none", "ec", "sp", "sac")
COUNTS = ("expanded", "generated", "peak_open")
# engine, heuristic and node limit per workload, as perfbench/run.py's WORKLOADS
WORKLOADS = {
    "counters-bfs": ("bfs", None, 25_000),
    "random-astar-blind": ("astar", "blind", 2_000),
    "logistics-astar-hmax": ("astar", "hmax", 20_000),
}


def _newest_bench() -> tuple[Path, dict]:
    numbered = [
        (int(m.group(1)), path)
        for path in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    if not numbered:
        pytest.fail("no BENCH_<n>.json at the repository root")
    path = max(numbered)[1]
    return path, json.loads(path.read_text())


def _corpus_counts(corpus, workload: str, factory=make_strategy) -> dict[str, int]:
    engine, heuristic, max_expanded = WORKLOADS[workload]
    limits = Limits(max_expanded=max_expanded)
    tasks = [parse_sas(instance.text) for instance in corpus.instances(workload, 1)]
    totals = dict.fromkeys(
        (f"search.{count}.{kind}" for count in COUNTS for kind in KINDS), 0
    )
    for kind in KINDS:
        for task in tasks:
            strategy = factory(task, kind)
            if engine == "bfs":
                result = bfs(task, strategy, limits)
            else:
                result = astar(task, make_heuristic(task, heuristic), strategy, limits)
            assert result.solved
            totals[f"search.expanded.{kind}"] += result.expanded
            totals[f"search.generated.{kind}"] += result.generated
            totals[f"search.peak_open.{kind}"] += result.peak_open_size
    return totals


def test_counts_match_newest_bench_file():
    path, bench = _newest_bench()
    corpus = perfbench_corpus()
    for workload in WORKLOADS:
        run = bench["runs"]["change"][workload]
        assert run["correct"], f"{path.name} change {workload} was not correct"
        metrics = run["metrics"]
        for name, value in _corpus_counts(corpus, workload).items():
            assert metrics[name]["value"] == value, (
                f"{workload} {name}: {value} now, {metrics[name]['value']} in {path.name}"
            )


def test_adaptive_switch_off_keeps_counters_counts():
    # ec and sac prune about two thirds of the applicable actions on
    # counters and sp about three quarters, so the switch-off must leave
    # every count as the bare strategies have it
    corpus = perfbench_corpus()
    adaptive = _corpus_counts(corpus, "counters-bfs")
    assert adaptive == _corpus_counts(corpus, "counters-bfs", make_bare_strategy)
