from __future__ import annotations

import random

from porplan import State, is_goal, make_heuristic
from porplan.heuristics import INFINITY, DeleteRelaxationHeuristic
from porplan.oracle import (
    RandomTaskSpec,
    TooLarge,
    brute_force_optimal_cost,
    enumerate_state_space,
    generate_random_task,
)


def relaxed_costs_naive(task, state, combine):
    """Iterate-to-fixpoint fact costs, independent of the Dijkstra pass."""
    costs = {}
    for var in task.variables:
        for val in range(var.domain_size):
            costs[(var.id, val)] = 0 if state[var.id] == val else INFINITY
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            pre = [costs[f] for f in action.precondition]
            if any(c == INFINITY for c in pre):
                continue
            base = action.cost + (sum(pre) if combine == "add" else max(pre, default=0))
            for fact in action.effect:
                if base < costs[fact]:
                    costs[fact] = base
                    changed = True
    goal = [costs[f] for f in task.goal]
    if not goal:
        return 0
    if any(c == INFINITY for c in goal):
        return INFINITY
    return sum(goal) if combine == "add" else max(goal)


def small_tasks(count, cost_mode="unit"):
    out = []
    seed = 0
    while len(out) < count:
        task = generate_random_task(RandomTaskSpec(seed=seed, cost_mode=cost_mode))
        seed += 1
        try:
            graph = enumerate_state_space(task)
        except TooLarge:
            continue
        out.append((task, graph))
    return out


def test_h_blind(two_switches, build):
    assert make_heuristic(two_switches, "blind")(State((1, 1))) == 0
    assert make_heuristic(two_switches, "blind")(two_switches.initial) == 1
    pricey = build(
        domains=[2],
        actions=[("o", [(0, 0)], [(0, 1)], 5)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    assert make_heuristic(pricey, "blind")(pricey.initial) == 5
    free = build(
        domains=[2],
        actions=[("o", [(0, 0)], [(0, 1)], 0)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    assert make_heuristic(free, "blind")(free.initial) == 0  # stays admissible at optimum 0


def test_h_goal_count(two_switches):
    assert make_heuristic(two_switches, "goalcount")(two_switches.initial) == 2
    assert make_heuristic(two_switches, "goalcount")(State((1, 0))) == 1
    assert make_heuristic(two_switches, "goalcount")(State((1, 1))) == 0


def test_relaxation_two_switches(two_switches):
    # frozen from the naive fixpoint: each goal fact costs 1
    assert relaxed_costs_naive(two_switches, two_switches.initial, "max") == 1
    assert relaxed_costs_naive(two_switches, two_switches.initial, "add") == 2
    assert make_heuristic(two_switches, "hmax")(two_switches.initial) == 1
    assert make_heuristic(two_switches, "hadd")(two_switches.initial) == 2
    assert make_heuristic(two_switches, "hmax")(State((1, 1))) == 0
    assert make_heuristic(two_switches, "hadd")(State((1, 1))) == 0


def test_relaxation_unreachable(build):
    task = build(domains=[2, 2], actions=[("o", [(0, 0)], [(0, 1)])],
                 initial=[0, 0], goal=[(1, 1)])
    assert make_heuristic(task, "hmax")(task.initial) == INFINITY
    assert make_heuristic(task, "hadd")(task.initial) == INFINITY


def test_relaxation_matches_naive_oracle():
    rng = random.Random(3)
    for cost_mode in ("unit", "random"):
        for task, graph in small_tasks(15, cost_mode):
            hmax = DeleteRelaxationHeuristic(task, "max")
            hadd = DeleteRelaxationHeuristic(task, "add")
            sample = [graph.states[i] for i in
                      rng.sample(range(len(graph.states)), min(8, len(graph.states)))]
            for values in sample:
                state = State(values)
                assert hmax(state) == relaxed_costs_naive(task, state, "max")
                assert hadd(state) == relaxed_costs_naive(task, state, "add")


def test_admissibility_and_dominance():
    for cost_mode in ("unit", "random"):
        for task, graph in small_tasks(25, cost_mode):
            optimum = brute_force_optimal_cost(task)
            if optimum is not None:
                assert make_heuristic(task, "hmax")(task.initial) <= optimum
            hmax = DeleteRelaxationHeuristic(task, "max")
            hadd = DeleteRelaxationHeuristic(task, "add")
            for values in graph.states:
                state = State(values)
                assert hmax(state) <= hadd(state)


def test_zero_exactly_on_goals_unit_costs():
    for task, graph in small_tasks(20, "unit"):
        hmax = DeleteRelaxationHeuristic(task, "max")
        hadd = DeleteRelaxationHeuristic(task, "add")
        for values in graph.states:
            state = State(values)
            expected = is_goal(task, state)
            assert (hmax(state) == 0) == expected
            assert (hadd(state) == 0) == expected


def test_hmax_consistency_unit_costs():
    from porplan import applicable, apply_action

    for task, graph in small_tasks(15, "unit"):
        hmax = DeleteRelaxationHeuristic(task, "max")
        for values in graph.states:
            state = State(values)
            h = hmax(state)
            for action in task.actions:
                if applicable(state, action):
                    assert h <= 1 + hmax(apply_action(state, action))


def test_make_heuristic_names(two_switches):
    for name, value in [("blind", 1), ("goalcount", 2), ("hmax", 1), ("hadd", 2), ("zero", 0)]:
        assert make_heuristic(two_switches, name)(two_switches.initial) == value
