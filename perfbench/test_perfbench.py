"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import random

import pytest

import corpus
import run
from porplan import Limits, Plan, astar, bfs, make_heuristic, make_strategy, parse_sas

WORKLOADS = sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = corpus.instances(workload, 3)
    assert first == corpus.instances(workload, 3)
    assert [i.text for i in first] != [i.text for i in corpus.instances(workload, 4)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_file_parses(workload):
    for seed in (0, 1):
        for instance in corpus.instances(workload, seed):
            task = parse_sas(instance.text)
            assert task.actions and task.goal


def test_counters_and_random_tasks_have_the_stated_optimum():
    instance = corpus.counters(random.Random(5), 3, 4)
    task = parse_sas(instance.text)
    result = bfs(task, make_strategy(task, "none"))
    assert instance.expected_cost == 3 * (4 - 1) == result.plan.cost
    assert result.expanded == 4**3  # the goal is the one state at full depth

    instance = corpus.random_task(random.Random(5), 0)
    task = parse_sas(instance.text)
    result = astar(task, make_heuristic(task, "blind"), make_strategy(task, "none"))
    assert instance.expected_cost == 2 == result.plan.cost


def _solved_counters():
    instance = corpus.counters(random.Random(1), 3, 3)
    task = parse_sas(instance.text)
    return instance, task, bfs(task, make_strategy(task, "none"), Limits(max_expanded=100))


def test_check_plan_accepts_a_valid_plan():
    instance, task, result = _solved_counters()
    assert run.check_plan(task, result, instance.expected_cost) is None


def test_check_plan_rejects_a_corrupted_plan():
    instance, task, result = _solved_counters()
    steps = result.plan.steps
    for corrupted in (steps[1:], steps[:-1], tuple(reversed(steps)), steps[:-1] + (len(task.actions),)):
        broken = dataclasses.replace(result, plan=Plan(corrupted, result.plan.cost))
        assert run.check_plan(task, broken, instance.expected_cost) is not None


def test_check_plan_rejects_a_wrong_cost():
    instance, task, result = _solved_counters()
    assert "optimum" in run.check_plan(task, result, instance.expected_cost + 1)
    misreported = dataclasses.replace(result, plan=Plan(result.plan.steps, result.plan.cost + 1))
    assert "reported" in run.check_plan(task, misreported, instance.expected_cost)


def test_check_plan_rejects_an_unsolved_search():
    instance, task, _ = _solved_counters()
    result = bfs(task, make_strategy(task, "none"), Limits(max_expanded=3))
    assert run.check_plan(task, result, instance.expected_cost) == "outcome resource_limit"


def test_logistics_optimum_matches_an_unreduced_search():
    for index in (0, 3):
        instance = corpus.logistics(random.Random(7), index)
        task = parse_sas(instance.text)
        result = astar(task, make_heuristic(task, "blind"), make_strategy(task, "none"))
        assert instance.expected_cost == result.plan.cost


def test_harness_counts_a_wrong_cost_as_failed_solves():
    harness = run.Harness("counters-bfs", 1)
    harness.instances[0] = dataclasses.replace(
        harness.instances[0], expected_cost=harness.instances[0].expected_cost + 1
    )
    p = harness.run_pass()
    # none, ec and sac miss the stated optimum; sp is checked for solvability only
    assert p.failed == 3
    assert p.attempted == len(run.KINDS) * len(harness.instances)


def test_pass_counts_repeat_exactly():
    harness = run.Harness("logistics-astar-hmax", 2)
    harness.instances = harness.instances[:2]
    first = harness.run_pass()
    second = harness.run_pass()
    assert first.failed == second.failed == 0
    assert first.counts == second.counts
