"""The search counts recorded in the newest BENCH_*.json still hold.

Every BENCH_<n>.json at the repository root records, per benchmark
workload, the last JSON line of

    python3 perfbench/run.py --workload W --seed 1 --seconds 35 --trace 1

for each commit it compares. This test solves the seed-1 corpus of every
workload under every strategy once, without timing, and requires the
corpus-summed expanded, generated and peak-open counts to equal every
recorded run of the newest file. A speed-up that silently changes search
behaviour fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from porplan import Limits, astar, bfs, make_heuristic, make_strategy, parse_sas
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


def _corpus_counts(corpus, workload: str) -> dict[str, int]:
    engine, heuristic, max_expanded = WORKLOADS[workload]
    limits = Limits(max_expanded=max_expanded)
    tasks = [parse_sas(instance.text) for instance in corpus.instances(workload, 1)]
    totals = dict.fromkeys(
        (f"search.{count}.{kind}" for count in COUNTS for kind in KINDS), 0
    )
    for kind in KINDS:
        for task in tasks:
            strategy = make_strategy(task, kind)
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
        recorded = {side: runs[workload] for side, runs in bench["runs"].items()}
        assert recorded, f"{path.name} records no run of {workload}"
        counts = _corpus_counts(corpus, workload)
        for side, run in recorded.items():
            assert run["correct"], f"{path.name} {side} {workload} was not correct"
            metrics = run["metrics"]
            for name, value in counts.items():
                assert metrics[name]["value"] == value, (
                    f"{workload} {name}: {value} now, {metrics[name]['value']}"
                    f" in {path.name} ({side})"
                )
