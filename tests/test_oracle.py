from __future__ import annotations

import dataclasses
import inspect
from collections import deque

import pytest

from porplan import (
    ExpansionContext,
    State,
    applicable,
    apply_action,
    is_goal,
    make_bare_strategy,
    make_strategy,
    oracle,
)
from porplan.oracle import (
    RandomTaskSpec,
    TooLarge,
    brute_force_optimal_cost,
    check_action_core_lemma,
    check_action_preserving,
    check_left_commutativity_equivalence,
    check_sp_permutation,
    check_stubborn_conditions,
    default_task_stream,
    drop_one_sac,
    enumerate_state_space,
    generate_random_task,
    reduced_reachable_values,
    sp_reachable_values,
    suite_action_preserving,
    suite_commutativity,
    suite_lemma,
    suite_optimality,
    suite_sp,
    suite_stubborn,
)
from porplan.strategies import KINDS, AdaptiveStrategy

STREAM_30 = default_task_stream(30)


def goal_reachable(graph):
    """The states of an enumerated graph from which a goal is reachable."""
    return {graph.states[i] for i in graph.can_reach_goal()}


def test_enumerate_two_switches(two_switches):
    graph = enumerate_state_space(two_switches)
    assert len(graph.states) == 4
    assert sum(map(len, graph.successors)) == 4
    assert graph.goal_states == {graph.index[(1, 1)]}
    assert graph.can_reach_goal() == {0, 1, 2, 3}


def test_enumerate_dead_initial(build):
    task = build(domains=[2], actions=[("o", [(0, 1)], [(0, 0)])],
                 initial=[0], goal=[(0, 1)])
    graph = enumerate_state_space(task)
    assert graph.states == [(0,)] and graph.successors == [[]]


def test_enumerate_enable_chain(enable_chain):
    graph = enumerate_state_space(enable_chain)
    assert set(graph.states) == {(0, 0, 2), (0, 1, 2), (0, 1, 3)}


def test_enumerate_too_large(two_switches, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 2)
    with pytest.raises(TooLarge, match="more than 2 reachable states"):
        enumerate_state_space(two_switches)


def test_brute_force_optimal(two_switches, build):
    assert brute_force_optimal_cost(two_switches) == 2
    trivial = build(domains=[2], actions=[("o", [(0, 0)], [(0, 1)])],
                    initial=[1], goal=[(0, 1)])
    assert brute_force_optimal_cost(trivial) == 0
    dead = build(domains=[2, 2], actions=[("o", [(0, 0)], [(0, 1)])],
                 initial=[0, 0], goal=[(1, 1)])
    assert brute_force_optimal_cost(dead) is None


def test_brute_force_zero_cost(build):
    task = build(
        domains=[2],
        actions=[("free", [(0, 0)], [(0, 1)], 0)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    assert brute_force_optimal_cost(task) == 0


def test_stubborn_conditions_two_switches(two_switches):
    init = two_switches.initial
    alive = goal_reachable(enumerate_state_space(two_switches))
    ok = check_stubborn_conditions(
        two_switches,
        init,
        make_bare_strategy(two_switches, "sac").expansion(
            ExpansionContext(two_switches.index.fact_set(init))
        ),
        4,
        alive,
    )
    assert ok.ok
    empty = check_stubborn_conditions(two_switches, init, [], 4, alive)
    assert {v.kind for v in empty.violations} == {"A2"}
    # at (1,0) the set {a} misses every solution, which all use b
    wrong = check_stubborn_conditions(two_switches, State((1, 0)), [0], 4, alive)
    assert {v.kind for v in wrong.violations} == {"A2"}


def test_witnesses_capped_per_checker():
    # the empty set misses every goal path from the initial state of stream
    # seed 2, thousands of them; the checker records the first five only
    [(seed, task, graph)] = default_task_stream(1, start=2)
    assert seed == 2
    report = check_stubborn_conditions(task, task.initial, [], 6, goal_reachable(graph))
    assert len(report.violations) == 5 and not report.ok


def test_stubborn_a1_violation(build):
    # two conflicting writers; T holding only one breaks the front-swap
    task = build(
        domains=[2, 3],
        actions=[("one", [], [(1, 1)]), ("two", [], [(1, 2)]), ("g", [(1, 1)], [(0, 1)])],
        initial=[0, 0],
        goal=[(0, 1)],
    )
    alive = goal_reachable(enumerate_state_space(task))
    report = check_stubborn_conditions(task, task.initial, [0, 2], 4, alive)
    assert any(v.kind == "A1" for v in report.violations)


def test_action_preserving(two_switches):
    for kind in ("ec", "sac"):
        assert check_action_preserving(
            two_switches, make_bare_strategy(two_switches, kind), horizon=4, strict=True
        ).ok

    class Hopeless:
        kind = "none"

        def expansion(self, ctx):
            return ()

    report = check_action_preserving(two_switches, Hopeless(), horizon=4)
    assert not report.ok


def test_action_preserving_random_seeds():
    tasks = default_task_stream(25)
    assert suite_action_preserving(tasks).ok


def test_suites_check_bare_strategies(two_switches):
    # a switch-off to full expansion would hide an unsound expansion set
    for suite in (suite_stubborn, suite_optimality, suite_action_preserving):
        default = inspect.signature(suite).parameters["strategy_factory"].default
        assert default is make_bare_strategy, suite.__name__
    for kind in KINDS:
        for factory in (make_bare_strategy, drop_one_sac):
            strategy = factory(two_switches, kind)
            assert not isinstance(strategy, AdaptiveStrategy), (factory.__name__, kind)
            assert not isinstance(getattr(strategy, "inner", None), AdaptiveStrategy)


def test_sp_permutation_two_switches(two_switches):
    report = check_sp_permutation(two_switches, horizon=4)
    assert report.ok and report.checked > 0
    # the task stream, at suite_sp's horizon
    checked = 0
    for seed, task, _ in STREAM_30:
        report = check_sp_permutation(task, horizon=5)
        assert report.ok, (seed, report.violations)
        checked += report.checked
    assert checked > 0


def test_sp_reachability(two_switches):
    cases = [(None, two_switches, enumerate_state_space(two_switches))] + STREAM_30
    for seed, task, graph in cases:
        assert sp_reachable_values(task) == frozenset(graph.states), seed


def test_sp_reachable_values_honours_the_state_cap(build, monkeypatch):
    # a four-value chain x: 0 -> 1 -> 2 -> 3 has four reachable states
    steps = [(f"step{x}", [(0, x)], [(0, x + 1)]) for x in range(3)]
    chain = build(domains=[4], actions=steps, initial=[0], goal=[(0, 3)])
    monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 4)
    assert sp_reachable_values(chain) == {(0,), (1,), (2,), (3,)}
    monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 3)
    with pytest.raises(TooLarge, match="more than 3 reachable states"):
        sp_reachable_values(chain)
    with pytest.raises(TooLarge, match="more than 3 reachable states"):
        enumerate_state_space(chain)


def test_path_enumeration_budget(two_switches, monkeypatch):
    rows = oracle._rows(two_switches)
    # five DFS nodes: the root and the paths a, b, ab and ba
    assert len(list(oracle._paths(two_switches.initial, rows, 2))) == 4
    monkeypatch.setattr(oracle, "_DFS_CAP", 5)
    assert len(list(oracle._paths(two_switches.initial, rows, 2))) == 4
    monkeypatch.setattr(oracle, "_DFS_CAP", 4)
    with pytest.raises(TooLarge, match="path enumeration exceeded the budget"):
        list(oracle._paths(two_switches.initial, rows, 2))


def test_task_stream_window_is_a_suffix():
    # the stream keeps every seed, so a window starting at seed 30 is the
    # tail of the stream from seed 0
    window = default_task_stream(5, start=30)
    assert [seed for seed, _, _ in window] == list(range(30, 35))
    assert window == default_task_stream(35)[-5:]


def test_commutativity_equivalence(two_switches):
    graph = enumerate_state_space(two_switches)
    report = check_left_commutativity_equivalence(two_switches, graph)
    # the two valid pairs: (a, b) and (b, a) at the initial state
    assert report.ok and report.checked == 2


def test_commutativity_check_reads_the_sac_conflict_tables(monkeypatch):
    # a valid pair (a, b) whose only obstacle to commuting is that eff(b)
    # contradicts pre(a): with that bit of pre_conflicts[b] dropped the
    # syntactic criterion says yes and the semantics no
    def blocked_by_pre_a(task, graph):
        index = task.index
        for values, out in zip(graph.states, graph.successors):
            for a, mid in out:
                for b, _ in graph.successors[mid]:
                    others = index.pre_conflicts[a] >> b | index.eff_conflicts[a] >> b
                    if index.pre_conflicts[b] >> a & 1 and not others & 1 and b in dict(out):
                        yield values, a, b

    task, graph, (values, a, b) = next(
        (task, graph, pair) for _, task, graph in STREAM_30 for pair in blocked_by_pre_a(task, graph)
    )
    assert check_left_commutativity_equivalence(task, graph).ok
    dropped = list(task.index.pre_conflicts)
    dropped[b] &= ~(1 << a)
    monkeypatch.setattr(task.index, "pre_conflicts", tuple(dropped))
    first = check_left_commutativity_equivalence(task, graph).violations[0]
    assert (first.state, first.witness["pair"]) == (values, [a, b])


def test_action_core_lemma(enable_chain):
    # paths ending in b (inapplicable at the start) must contain a
    report = check_action_core_lemma(enable_chain, horizon=4)
    assert report.ok and report.checked > 0


def test_generator_deterministic():
    spec = RandomTaskSpec(seed=11, cost_mode="random")
    assert generate_random_task(spec) == generate_random_task(spec)


def test_generator_walk_goals_solvable():
    for seed in range(30):
        task = generate_random_task(RandomTaskSpec(seed=seed))
        assert brute_force_optimal_cost(task) is not None


def test_generator_minimal_spec():
    from porplan import emit_sas, parse_sas, astar, make_heuristic

    task = generate_random_task(
        RandomTaskSpec(seed=2, num_variables=1, num_actions=1, goal_size=1)
    )
    assert parse_sas(emit_sas(task)) == task
    astar(task, make_heuristic(task, "hmax"), make_strategy(task, "none"))


def test_generator_bounds():
    with pytest.raises(ValueError):
        RandomTaskSpec(seed=0, num_variables=7)
    with pytest.raises(ValueError):
        RandomTaskSpec(seed=0, num_actions=0)
    with pytest.raises(ValueError):
        RandomTaskSpec(seed=0, cost_mode="fancy")


def test_enumeration_agrees_with_bfs(build):
    from porplan import bfs

    # unreachable goal forces bfs to exhaust exactly the reachable space
    task = build(
        domains=[2, 2, 2],
        actions=[("p", [(0, 0)], [(0, 1)]), ("q", [(0, 1)], [(1, 1)])],
        initial=[0, 0, 0],
        goal=[(2, 1)],
    )
    graph = enumerate_state_space(task)
    result = bfs(task, make_strategy(task, "none"))
    assert result.outcome == "unsolvable"
    assert result.expanded == len(graph.states)


def test_default_task_stream_deterministic():
    first = default_task_stream(5)
    second = default_task_stream(5)
    assert [t for _, t, _ in first] == [t for _, t, _ in second]


def test_validate_plan_matches_independent_stepper():
    # validate_plan accepts exactly the sequences the oracle's own
    # apply/goal logic accepts
    import random

    from porplan import validate_plan
    from porplan.model import GoalNotReached, NotApplicable
    from porplan.oracle import _applies, _rows, _walk

    rng = random.Random(5)
    for seed in range(15):
        task = generate_random_task(RandomTaskSpec(seed=seed))
        rows = _rows(task)
        for _ in range(40):
            steps = [
                rng.randrange(len(task.actions))
                for _ in range(rng.randrange(0, 5))
            ]
            end = _walk(task.initial, rows, steps)
            oracle_accepts = end is not None and _applies(end, task.goal.entries)
            try:
                plan = validate_plan(task, steps)
                accepted = True
                assert plan.steps == tuple(steps)
            except (NotApplicable, GoalNotReached):
                accepted = False
            assert accepted == oracle_accepts, (seed, steps)


def verify_suites(tasks, factory):
    """(checked, violations) per suite, as `porplan verify` runs them."""
    reports = [
        suite_commutativity(tasks),
        suite_stubborn(tasks, strategy_factory=factory),
        suite_optimality(tasks, strategy_factory=factory),
        suite_sp(tasks),
        suite_lemma(tasks),
        suite_action_preserving(tasks, strategy_factory=factory),
    ]
    return [(r.checked, len(r.violations)) for r in reports]


def test_suite_counts_pinned():
    # any change to what the oracle enumerates moves these counts
    assert verify_suites(STREAM_30, make_bare_strategy) == [
        (11368, 0), (11481, 0), (120, 0), (23852, 0), (10131, 0), (1882, 0)
    ]
    assert verify_suites(STREAM_30, drop_one_sac) == [
        (11368, 0), (26310, 240), (120, 2), (23852, 0), (10131, 0), (1882, 24)
    ]


def test_sp_suite_reports_mirrored_levels(monkeypatch):
    real = oracle.stratify

    def mirrored(task):
        strat = real(task)
        top = max(strat.action_level, default=0)
        return dataclasses.replace(
            strat, action_level=tuple(top + 1 - level for level in strat.action_level)
        )

    monkeypatch.setattr(oracle, "stratify", mirrored)
    report = suite_sp(STREAM_30)
    assert not report.ok
    assert {v.kind for v in report.violations} <= {"sp_permutation", "sp_reachability"}


def test_commutativity_suite_reports_a_constant_criterion(monkeypatch):
    monkeypatch.setattr(oracle, "is_left_commutative", lambda task, values, a, b: True)
    report = suite_commutativity(STREAM_30)
    assert not report.ok
    assert {v.kind for v in report.violations} == {"commutativity_mismatch"}


def test_lemma_suite_reports_seed_only_cores(monkeypatch):
    monkeypatch.setattr(oracle, "brute_force_core", lambda task, values, seed: frozenset(seed))
    report = suite_lemma(STREAM_30)
    assert not report.ok
    assert {v.kind for v in report.violations} == {"action_core_lemma"}


def test_optimality_suite_reuses_the_stream_graphs(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("state space enumerated again")

    monkeypatch.setattr(oracle, "enumerate_state_space", no_enumeration)
    assert suite_optimality(STREAM_30[:10]).ok


class CountingStrategy:
    """A bare strategy that counts its expansion calls."""

    def __init__(self, inner):
        self.inner = inner
        self.task = inner.task
        self.calls = 0

    def expansion(self, ctx):
        self.calls += 1
        return self.inner.expansion(ctx)


def reference_reduced_bfs(task, strategy):
    """(state, expansion set) in BFS order, on the model's own stepper."""
    seen = {task.initial}
    queue = deque([task.initial])
    out = []
    while queue:
        values = queue.popleft()
        expansion = () if is_goal(task, values) else strategy.expansion(
            ExpansionContext(task.index.fact_set(values), None)
        )
        out.append((values, expansion))
        for a in expansion:
            if applicable(values, task.actions[a]):
                succ = apply_action(values, task.actions[a])
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
    return out


def test_each_reduced_expansion_set_is_computed_once():
    # one expansion call per non-goal reduced state and (task, kind): the
    # stubborn suite made two per state (1,690 over these 845 states)
    tasks = default_task_stream(200)
    seed_of = {id(task): seed for seed, task, _ in tasks}
    expected = {}
    for seed, task, _ in tasks:
        for kind in ("sac", "ec"):
            reduced = reduced_reachable_values(task, make_bare_strategy(task, kind))
            reference = reference_reduced_bfs(task, make_bare_strategy(task, kind))
            assert list(reduced.items()) == reference, (seed, kind)
            expected[seed, kind] = sum(not is_goal(task, values) for values in reduced)
    assert sum(expected.values()) == 845

    for suite in (suite_stubborn, suite_action_preserving):
        made = {}

        def factory(task, kind):
            made[seed_of[id(task)], kind] = CountingStrategy(make_bare_strategy(task, kind))
            return made[seed_of[id(task)], kind]

        assert suite(tasks, strategy_factory=factory).ok
        assert {key: s.calls for key, s in made.items()} == expected, suite.__name__
