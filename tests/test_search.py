from __future__ import annotations

import pytest

from porplan import (
    Limits,
    NotApplicable,
    astar,
    bfs,
    gbfs,
    make_heuristic,
    make_strategy,
    parse_sas,
    validate_plan,
)
from porplan.oracle import (
    RandomTaskSpec,
    TooLarge,
    brute_force_optimal_cost,
    default_task_stream,
    enumerate_state_space,
    generate_random_task,
)
from porplan.search import RESOURCE_LIMIT, SOLVED, UNSOLVABLE
from porplan.strategies import ExpansionStrategy

from conftest import FIXTURES, perfbench_corpus


def tasks_with_graphs(count, **kw):
    out = []
    seed = 0
    while len(out) < count:
        task = generate_random_task(RandomTaskSpec(seed=seed, **kw))
        seed += 1
        try:
            graph = enumerate_state_space(task)
        except TooLarge:
            continue
        out.append((task, graph))
    return out


def test_astar_two_switches(two_switches):
    result = astar(
        two_switches, make_heuristic(two_switches, "hmax"), make_strategy(two_switches, "none")
    )
    assert result.outcome == SOLVED
    assert result.plan.cost == 2
    assert result.expanded >= 3
    validate_plan(two_switches, result.plan.steps)


def test_astar_uniform_cost_ec_expands_three(two_switches):
    result = astar(
        two_switches, make_heuristic(two_switches, "zero"), make_strategy(two_switches, "ec")
    )
    assert result.outcome == SOLVED and result.expanded == 3


def test_unsolvable(build):
    task = build(domains=[2, 2], actions=[("o", [(0, 0)], [(0, 1)])],
                 initial=[0, 0], goal=[(1, 1)])
    for kind in ("none", "ec", "sp", "sac"):
        result = astar(task, make_heuristic(task, "blind"), make_strategy(task, kind))
        assert result.outcome == UNSOLVABLE


def test_gbfs(two_switches):
    result = gbfs(
        two_switches, make_heuristic(two_switches, "hadd"), make_strategy(two_switches, "sac")
    )
    assert result.outcome == SOLVED and result.plan.cost == 2

    result = gbfs(
        two_switches, make_heuristic(two_switches, "goalcount"), make_strategy(two_switches, "sp")
    )
    assert result.outcome == SOLVED and result.expanded == 4


def test_bfs_golden_counts(two_switches):
    for kind, expanded in [("none", 4), ("ec", 3), ("sp", 4), ("sac", 3)]:
        result = bfs(two_switches, make_strategy(two_switches, kind))
        assert result.outcome == SOLVED
        assert result.plan.cost == 2
        assert result.expanded == expanded, kind


def _run(search, task, strategy):
    if search == "bfs":
        return bfs(task, strategy)
    engine = astar if search == "astar" else gbfs
    return engine(task, make_heuristic(task, "blind"), strategy)


class _Inapplicable(ExpansionStrategy):
    """Returns every action, applicable or not."""

    def __init__(self, task):
        self.task = task

    def expansion(self, ctx):
        return tuple(range(len(self.task.actions)))


@pytest.mark.parametrize("search", ["astar", "gbfs", "bfs"])
def test_engine_rejects_inapplicable_action(two_switches, build, search):
    # two_switches: both actions apply at the initial state; at either
    # successor the stub offers again the action just applied, whose
    # precondition fails. half_met: the one action's precondition has two
    # entries, of which only x2=1 fails at the initial state
    half_met = build(domains=[2, 2], actions=[("o", [(0, 0), (1, 1)], [(0, 1)])],
                     initial=[0, 0], goal=[(0, 1)])
    for task in (two_switches, half_met):
        with pytest.raises(NotApplicable):
            _run(search, task, _Inapplicable(task))


class _Returns(ExpansionStrategy):
    """Returns the given ids at the root and nothing elsewhere."""

    def __init__(self, task, chosen):
        self.task, self.chosen = task, chosen

    def expansion(self, ctx):
        return self.chosen if ctx.generating_action is None else ()


@pytest.mark.parametrize("search", ["astar", "gbfs", "bfs"])
@pytest.mark.parametrize("action_id", [-1, 2])
def test_engine_rejects_out_of_range_action_ids(two_switches, search, action_id):
    # two_switches has actions 0 and 1: a negative id must not index from
    # the end (-1 would apply action 1), and one past the end must not
    # surface as an IndexError
    with pytest.raises(NotApplicable):
        _run(search, two_switches, _Returns(two_switches, (action_id,)))


class _PassThrough:
    """A wrapper with only the protocol's two members, task and expansion."""

    def __init__(self, inner):
        self.inner, self.task = inner, inner.task

    def expansion(self, ctx):
        return self.inner.expansion(ctx)


@pytest.mark.parametrize("instance", ["support_chain", "counters-bfs", "random-astar-blind"])
def test_pass_through_wrappers_keep_the_counts(instance):
    # support_chain or the first seed-1 instance of a workload, under every
    # search and kind: the engine keys nodes by their fact set, so a
    # wrapper with only task and expansion searches exactly as the
    # strategy it wraps
    if instance == "support_chain":
        task = parse_sas((FIXTURES / "support_chain.sas").read_text())
    else:
        task = parse_sas(perfbench_corpus().instances(instance, 1)[0].text)
    for search in ("astar", "gbfs", "bfs"):
        for kind in ("none", "ec", "sp", "sac"):
            rows = []
            for wrap in (lambda s: s, _PassThrough):
                result = _run(search, task, wrap(make_strategy(task, kind)))
                rows.append((result.expanded, result.generated, result.peak_open_size,
                             result.plan))
            assert rows[0][3] is not None, (search, kind)
            assert rows[1] == rows[0], (search, kind)


def test_bfs_requires_unit_costs(build):
    task = build(domains=[2], actions=[("o", [(0, 0)], [(0, 1)], 3)],
                 initial=[0], goal=[(0, 1)], uses_metric=True)
    with pytest.raises(ValueError):
        bfs(task, make_strategy(task, "none"))


def test_resource_limits(two_switches):
    heuristic = make_heuristic(two_switches, "hmax")
    engines = {
        "astar": lambda strategy, limits: astar(two_switches, heuristic, strategy, limits),
        "gbfs": lambda strategy, limits: gbfs(two_switches, heuristic, strategy, limits),
        "bfs": lambda strategy, limits: bfs(two_switches, strategy, limits),
    }
    cases = [
        (Limits(max_expanded=1), "nodes"),
        (Limits(max_time=0.0), "time"),
        (Limits(max_open=1), "memory"),
        # checked in this order: nodes, then time, then memory
        (Limits(max_expanded=0, max_time=0.0, max_open=0), "nodes"),
        (Limits(max_time=0.0, max_open=0), "time"),
    ]
    for name, engine in engines.items():
        for limits, kind in cases:
            result = engine(make_strategy(two_switches, "none"), limits)
            assert result.outcome == RESOURCE_LIMIT, (name, kind)
            assert result.limit_kind == kind, (name, kind)
            assert result.plan is None


# (fixture, strategy, outcome, expanded, generated, peak open, plan steps) of bfs
BFS_PINNED = [
    ("enable_chain.sas", "none", SOLVED, 3, 3, 1, (0, 1)),
    ("enable_chain.sas", "ec", SOLVED, 3, 3, 1, (0, 1)),
    ("enable_chain.sas", "sac", SOLVED, 3, 2, 1, (0, 1)),
    ("enable_chain.sas", "sp", SOLVED, 3, 3, 1, (0, 1)),
    ("support_chain.sas", "none", SOLVED, 4, 4, 3, (1, 0)),
    ("support_chain.sas", "ec", SOLVED, 4, 3, 2, (1, 0)),
    ("support_chain.sas", "sac", SOLVED, 3, 2, 1, (1, 0)),
    ("support_chain.sas", "sp", SOLVED, 4, 4, 3, (1, 0)),
    ("two_switches.sas", "none", SOLVED, 4, 4, 2, (0, 1)),
    ("two_switches.sas", "ec", SOLVED, 3, 2, 1, (0, 1)),
    ("two_switches.sas", "sac", SOLVED, 3, 2, 1, (0, 1)),
    ("two_switches.sas", "sp", SOLVED, 4, 3, 2, (1, 0)),
]


def test_bfs_pinned_counts():
    for name, kind, outcome, expanded, generated, peak, steps in BFS_PINNED:
        task = parse_sas((FIXTURES / name).read_text())
        result = bfs(task, make_strategy(task, kind))
        row = (result.outcome, result.expanded, result.generated, result.peak_open_size)
        assert row == (outcome, expanded, generated, peak), (name, kind)
        assert result.plan.steps == steps, (name, kind)


def test_counters_and_plan_validity():
    for task, _ in tasks_with_graphs(15):
        heuristic = make_heuristic(task, "hmax")
        for kind in ("none", "ec", "sp", "sac"):
            for engine in ("astar", "gbfs", "bfs"):
                strategy = make_strategy(task, kind)
                if engine == "bfs":
                    result = bfs(task, strategy)
                elif engine == "astar":
                    result = astar(task, heuristic, strategy)
                else:
                    result = gbfs(task, heuristic, strategy)
                assert result.expanded <= result.generated + 1
                if result.outcome == SOLVED:
                    plan = validate_plan(task, result.plan.steps)
                    assert plan.cost == result.plan.cost


def test_astar_optimal_against_oracle():
    for cost_mode in ("unit", "random"):
        for task, _ in tasks_with_graphs(20, cost_mode=cost_mode):
            optimum = brute_force_optimal_cost(task)
            heuristic = make_heuristic(task, "hmax")
            for kind in ("none", "ec", "sac"):
                result = astar(task, heuristic, make_strategy(task, kind))
                assert result.solved == (optimum is not None)
                if result.solved:
                    assert result.plan.cost == optimum, (kind, task)


def test_astar_blind_optimal_with_free_actions(build):
    # free steps 0 -> 1 -> 2 beside a paid jump 0 -> 2: the optimum is 0,
    # so blind must be 0 off the goal too; the random cost mode draws zero
    # costs as well (seed 163 needs it under ec)
    free_steps = build(
        domains=[3],
        actions=[
            ("step1", [(0, 0)], [(0, 1)], 0),
            ("step2", [(0, 1)], [(0, 2)], 0),
            ("jump", [(0, 0)], [(0, 2)], 1),
        ],
        initial=[0],
        goal=[(0, 2)],
        uses_metric=True,
    )
    assert brute_force_optimal_cost(free_steps) == 0
    tasks = [free_steps] + [task for _, task, _ in default_task_stream(200, cost_mode="random")]
    for task in tasks:
        optimum = brute_force_optimal_cost(task)
        for kind in ("none", "ec", "sac"):
            result = astar(task, make_heuristic(task, "blind"), make_strategy(task, kind))
            assert result.plan.cost == optimum, (kind, task)


def test_reduction_reduces_or_matches_expansions(two_switches, support_chain):
    for task in (two_switches, support_chain):
        baseline = bfs(task, make_strategy(task, "none")).expanded
        for kind in ("ec", "sac"):
            assert bfs(task, make_strategy(task, kind)).expanded <= baseline


def test_support_chain_counts(support_chain):
    # sac skips the irrelevant applicable action c, ec expands it
    for kind, expanded in [("none", 4), ("ec", 4), ("sac", 3)]:
        result = bfs(support_chain, make_strategy(support_chain, kind))
        assert result.outcome == SOLVED and result.expanded == expanded, kind


def test_reduction_linear_on_independent_switches(build):
    # n commuting toggles: the full space is 2^n, a stubborn strategy
    # expands one chain of n+1 states
    n = 10
    task = build(
        domains=[2] * n,
        actions=[(f"t{i}", [(i, 0)], [(i, 1)]) for i in range(n)],
        initial=[0] * n,
        goal=[(i, 1) for i in range(n)],
    )
    assert bfs(task, make_strategy(task, "none")).expanded == 2**n
    for kind in ("ec", "sac"):
        result = bfs(task, make_strategy(task, kind))
        assert result.expanded == n + 1
        assert result.plan.cost == n


def test_sp_closed_list_modes(two_switches):
    # SP's one closed list, keyed by the fact set
    result = bfs(two_switches, make_strategy(two_switches, "sp"))
    assert result.outcome == SOLVED and result.plan.cost == 2
    assert result.expanded == 4


def test_sp_modes_agree_on_solvability():
    for task, _ in tasks_with_graphs(25):
        optimum = brute_force_optimal_cost(task)
        heuristic = make_heuristic(task, "hmax")
        result = astar(task, heuristic, make_strategy(task, "sp"))
        assert result.solved == (optimum is not None)
        if result.solved:
            validate_plan(task, result.plan.steps)


def test_sp_state_level_counts_at_benchmark_size():
    # the first seed-1 logistics benchmark instance under A*+hmax, with
    # SP's closed list keyed by the fact set
    text = perfbench_corpus().instances("logistics-astar-hmax", 1)[0].text
    task = parse_sas(text)
    result = astar(task, make_heuristic(task, "hmax"), make_strategy(task, "sp"))
    assert result.solved
    assert (result.expanded, result.generated, result.peak_open_size,
            result.plan.cost) == (509, 2_198, 629, 19)
