"""Acceptance gate: golden micro-examples plus the seeded property suites.

Each test is one criterion, runs at its stated tolerance, and prints one
pass line; pytest -v adds the pass/fail verdict per criterion.
"""

from __future__ import annotations

import json
import random
import shutil
import time

from porplan import (
    State,
    bfs,
    emit_sas,
    make_bare_strategy,
    make_heuristic,
    make_strategy,
    parse_sas,
)
from porplan.cli import main
from porplan.heuristics import DeleteRelaxationHeuristic
from porplan.oracle import (
    RandomTaskSpec,
    default_task_stream,
    generate_random_task,
    suite_commutativity,
    suite_lemma,
    suite_optimality,
    suite_sp,
    suite_stubborn,
)
from porplan.sas_io import SasError
from porplan.strategies import ExpansionContext

from conftest import FIXTURES, build_task
from test_sas_io import _mutate


def two_switches_task():
    return build_task(
        domains=[2, 2],
        actions=[("a", [(0, 0)], [(0, 1)]), ("b", [(1, 0)], [(1, 1)])],
        initial=[0, 0],
        goal=[(0, 1), (1, 1)],
    )


def _pass(n, msg):
    print(f"PASS criterion {n}: {msg}")


UNIT_TASKS = default_task_stream(100, cost_mode="unit")
COST_TASKS = default_task_stream(100, cost_mode="random")
ALL_TASKS = UNIT_TASKS + COST_TASKS


def test_criterion_01_golden_bfs_counts():
    task = two_switches_task()
    expected = {"none": 4, "ec": 3, "sp": 4}
    strategies = {kind: make_strategy(task, kind) for kind in expected}
    for strategy in strategies.values():  # warm allocations before timing
        bfs(task, strategy)
    for kind, want in expected.items():
        runs = [bfs(task, strategies[kind]) for _ in range(3)]
        for result in runs:
            assert result.expanded == want, kind
        assert min(r.wall_time for r in runs) < 0.001, kind
    _pass(1, "bfs expands none=4 ec=3 sp=4, each under 1 ms")


def test_criterion_02_golden_expansion_sets():
    task = two_switches_task()
    ec, sac = make_bare_strategy(task, "ec"), make_bare_strategy(task, "sac")
    sp = make_bare_strategy(task, "sp")
    strat = sp.stratification
    initial, one_zero = task.index.fact_set(task.initial), task.index.fact_set(State((1, 0)))
    root = ExpansionContext(initial)
    ec.expansion(root)  # warm
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        chosen = ec.expansion(root)
        after_a = sp.expansion(ExpansionContext(one_zero, 0))
        landmark_core = sac.expansion(root)
        timings.append(time.perf_counter() - start)
    assert len(chosen) == 1 and set(chosen) <= {0, 1}
    assert strat.action_level[0] > strat.action_level[1]
    assert after_a == ()  # b pruned after a
    assert len(landmark_core) == 1
    assert min(timings) < 0.001, timings
    _pass(2, "ec and sac are singletons, sp prunes b after a, under 1 ms")


def test_criterion_03_commutativity_equivalence():
    start = time.perf_counter()
    report = suite_commutativity(ALL_TASKS)
    elapsed = time.perf_counter() - start
    assert report.checked >= 1000
    assert report.ok, report.violations[:3]
    assert elapsed < 5, elapsed
    _pass(3, f"{report.checked} pairs, every valid pair at every reachable state, "
             f"agree with the semantic check in {elapsed:.2f}s")


def test_criterion_04_optimality_preservation():
    start = time.perf_counter()
    report = suite_optimality(ALL_TASKS)
    elapsed = time.perf_counter() - start
    assert report.ok, report.violations[:3]
    assert elapsed < 60, elapsed
    _pass(4, f"A*+hmax matches the Dijkstra oracle under ec/sac and "
             f"solvability matches under all strategies on 200 tasks in {elapsed:.1f}s")


def test_criterion_05_stubborn_conditions():
    start = time.perf_counter()
    report = suite_stubborn(ALL_TASKS)
    elapsed = time.perf_counter() - start
    assert report.ok, report.violations[:3]
    assert elapsed < 120, elapsed
    _pass(5, f"A1/A2 hold for sac and ec at every expanded state "
             f"({report.checked} checks) in {elapsed:.1f}s")


def test_criterion_06_sp_theorems():
    start = time.perf_counter()
    report = suite_sp(ALL_TASKS)
    elapsed = time.perf_counter() - start
    assert report.ok, report.violations[:3]
    assert elapsed < 60, elapsed
    _pass(6, f"SP permutations exist and SP reaches the full state set "
             f"on 200 tasks ({report.checked} checks) in {elapsed:.1f}s")


def test_criterion_07_action_core_lemma():
    start = time.perf_counter()
    report = suite_lemma(UNIT_TASKS)
    elapsed = time.perf_counter() - start
    assert report.ok, report.violations[:3]
    assert elapsed < 30, elapsed
    _pass(7, f"every path ending in an initially inapplicable action hits "
             f"its core ({report.checked} paths) in {elapsed:.1f}s")


def test_criterion_08_heuristic_properties():
    from porplan.oracle import brute_force_optimal_cost

    start = time.perf_counter()
    for _, task, _ in ALL_TASKS:
        optimum = brute_force_optimal_cost(task)
        assert optimum is not None  # walk goals are solvable
        assert make_heuristic(task, "hmax")(task.index.fact_set(task.initial)) <= optimum

    rng = random.Random(0)
    sampled = 0
    evaluators = [
        (task, DeleteRelaxationHeuristic(task, "max"), DeleteRelaxationHeuristic(task, "add"), graph)
        for _, task, graph in ALL_TASKS
    ]
    while sampled < 10_000:
        task, hmax, hadd, graph = evaluators[rng.randrange(len(evaluators))]
        facts = task.index.fact_set(State(graph.states[rng.randrange(len(graph.states))]))
        assert hmax(facts) <= hadd(facts)
        sampled += 1

    for _, task, graph in UNIT_TASKS:
        hmax = DeleteRelaxationHeuristic(task, "max")
        hadd = DeleteRelaxationHeuristic(task, "add")
        for values in graph.states:
            state = State(values)
            facts = task.index.fact_set(state)
            on_goal = task.goal.holds_in(state)
            assert (hmax(facts) == 0) == on_goal
            assert (hadd(facts) == 0) == on_goal
    elapsed = time.perf_counter() - start
    assert elapsed < 30, elapsed
    _pass(8, f"hmax admissible on 200 tasks, hmax <= hadd on {sampled} states, "
             f"zero exactly on goals, in {elapsed:.1f}s")


def test_criterion_09_parser_round_trip_and_fuzz():
    start = time.perf_counter()
    for name in ("two_switches.sas", "enable_chain.sas", "support_chain.sas"):
        text = (FIXTURES / name).read_text()
        task = parse_sas(text)
        assert parse_sas(emit_sas(task)) == task
    for seed in range(40):
        for cost_mode in ("unit", "random"):
            task = generate_random_task(RandomTaskSpec(seed=seed, cost_mode=cost_mode))
            assert parse_sas(emit_sas(task)) == task

    rng = random.Random(99)
    base = (FIXTURES / "two_switches.sas").read_text()
    crashes = 0
    for _ in range(10_000):
        mutated = _mutate(rng, base)
        try:
            parse_sas(mutated)
        except SasError:
            pass
        except Exception:  # anything unstructured is a failure
            crashes += 1
    elapsed = time.perf_counter() - start
    assert crashes == 0
    assert elapsed < 30, elapsed
    _pass(9, f"round trips hold and 10000 mutated documents yield only "
             f"structured errors in {elapsed:.1f}s")


def test_criterion_10_bench_reduction_report(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("two_switches.sas", "enable_chain.sas", "support_chain.sas"):
        shutil.copy(FIXTURES / name, corpus / name)
    for seed in (13, 50):
        task = generate_random_task(
            RandomTaskSpec(seed=seed, num_variables=5, num_actions=9)
        )
        (corpus / f"seeded_{seed}.sas").write_text(emit_sas(task))

    json_out = tmp_path / "bench.json"
    code = main(
        ["bench", str(corpus), "--search", "bfs", "--strategies", "none,ec,sac",
         "--json-out", str(json_out)]
    )
    capsys.readouterr()
    assert code == 0
    rows = json.loads(json_out.read_text())
    per_instance: dict[str, dict[str, int]] = {}
    for row in rows:
        per_instance.setdefault(row["instance"], {})[row["strategy"]] = row["expanded"]
    comparison = []
    for instance, counts in sorted(per_instance.items()):
        assert counts["sac"] <= counts["none"], instance
        comparison.append(f"{instance}: sac={counts['sac']} ec={counts['ec']} "
                          f"none={counts['none']}")
    # sac vs ec is measured and reported, not asserted
    _pass(10, "expanded(sac) <= expanded(none) on every instance; " + "; ".join(comparison))
