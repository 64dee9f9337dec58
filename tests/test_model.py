from __future__ import annotations

import pickle
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, strategies as st

from porplan import (
    Action,
    GoalNotReached,
    InvalidTask,
    NotApplicable,
    NotApplicableAt,
    PartialAssignment,
    State,
    Task,
    Variable,
    applicable,
    apply_action,
    astar,
    is_goal,
    make_heuristic,
    make_strategy,
    parse_sas,
    validate_plan,
)
from porplan.model import ids
from porplan.oracle import default_task_stream
from porplan.strategies import KINDS
from conftest import BENCH_WORKLOADS, FIXTURES, perfbench_corpus

PA = PartialAssignment.of


def test_holds_in_matches_entrywise_definition():
    # 0, 1 and 3 entries, the last given out of variable order
    cases = [PA(), PA([(1, 2)]), PA([(3, 1), (0, 2), (2, 0)])]
    states = [State((a, b, c, d)) for a in range(3) for b in range(3)
              for c in range(2) for d in range(2)]
    for p in cases:
        for state in states:
            assert p.holds_in(state) == all(state[v] == x for v, x in p.entries)
    assert sum(cases[1].holds_in(s) for s in states) == 12
    assert sum(cases[2].holds_in(s) for s in states) == 3
    # a pickled copy answers as the original does
    assert [pickle.loads(pickle.dumps(p)).holds_in(states[-1]) for p in cases] == [
        True, True, False
    ]


def test_applicable(two_switches, enable_chain):
    a, b = two_switches.actions
    assert applicable(two_switches.initial, a)
    assert applicable(two_switches.initial, b)
    assert not applicable(State((1, 0)), a)
    # b needs x2=1 and x3=2; at (0,0,2) the x2 entry fails
    assert not applicable(State((0, 0, 2)), enable_chain.actions[1])
    empty_pre = Action(0, "free", PA(), PA([(0, 1)]))
    assert applicable(State((0, 0)), empty_pre)
    assert applicable(State((1, 1)), empty_pre)


def test_apply(two_switches):
    a, b = two_switches.actions
    s1 = apply_action(two_switches.initial, a)
    assert s1 == State((1, 0))
    assert apply_action(s1, b) == State((1, 1))
    with pytest.raises(NotApplicable):
        apply_action(s1, a)


def test_is_goal(two_switches):
    assert is_goal(two_switches, State((1, 1)))
    assert not is_goal(two_switches, two_switches.initial)
    no_goal = Task(
        two_switches.variables, two_switches.actions, two_switches.initial, PA()
    )
    assert is_goal(no_goal, State((0, 0)))
    assert is_goal(no_goal, State((1, 0)))


def test_validate_plan(two_switches, monkeypatch):
    # each step's precondition is tested once, and the goal once at the end
    holds_in = PartialAssignment.holds_in
    calls = []
    monkeypatch.setattr(
        PartialAssignment, "holds_in", lambda p, state: calls.append(p) or holds_in(p, state)
    )
    assert validate_plan(two_switches, [0, 1]).cost == 2
    assert len(calls) == 2 + 1
    assert validate_plan(two_switches, [1, 0]).cost == 2
    with pytest.raises(NotApplicableAt) as err:
        validate_plan(two_switches, [0, 0])
    assert err.value.step == 1
    with pytest.raises(GoalNotReached):
        validate_plan(two_switches, [0])


@pytest.mark.parametrize("bad", [-1, 2])
def test_validate_plan_rejects_out_of_range_ids(two_switches, bad):
    # -1 would alias the last action; 2 is one past the action count
    with pytest.raises(NotApplicableAt) as err:
        validate_plan(two_switches, [0, bad])
    assert (err.value.step, err.value.action_id) == (1, bad)


def test_plan_cost_uses_metric(build):
    task = build(
        domains=[2],
        actions=[("pricey", [(0, 0)], [(0, 1)], 5)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    assert validate_plan(task, [0]).cost == 5


assignments = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=4
).map(lambda pairs: PA(dict(pairs).items()))
states = st.tuples(*(st.integers(0, 2) for _ in range(4))).map(State)


@given(states, assignments, assignments.filter(bool))
def test_apply_changes_exactly_effect_variables(state, pre, eff):
    action = Action(0, "o", pre, eff)
    if not applicable(state, action):
        return
    after = apply_action(state, action)
    changed = {v for v in range(len(state)) if after[v] != state[v]}
    assert changed <= set(eff.variables)
    assert eff.holds_in(after)


def test_partial_assignment_rejects_conflicting_duplicates():
    with pytest.raises(InvalidTask):
        PA([(0, 1), (0, 2)])
    assert PA([(0, 1), (0, 1)]).entries == ((0, 1),)


def test_task_validation():
    v = (Variable(0, "x", 2),)
    act = Action(0, "o", PA([(0, 0)]), PA([(0, 1)]))
    with pytest.raises(InvalidTask):  # initial value out of domain
        Task(v, (act,), State((2,)), PA())
    with pytest.raises(InvalidTask):  # goal variable unknown
        Task(v, (act,), State((0,)), PA([(3, 0)]))
    with pytest.raises(InvalidTask):  # non-unit cost without a metric
        Task(v, (Action(0, "o", PA(), PA([(0, 1)]), cost=2),), State((0,)), PA())
    with pytest.raises(InvalidTask):  # action ids must be positional
        Task(v, (Action(1, "o", PA(), PA([(0, 1)])),), State((0,)), PA())
    with pytest.raises(InvalidTask):  # empty effect
        Action(0, "o", PA(), PA())
    # an action's entries are named in the message
    with pytest.raises(InvalidTask, match=r"^precondition of 'o': unknown variable 1$"):
        Task(v, (Action(0, "o", PA([(1, 0)]), PA([(0, 1)])),), State((0,)), PA())
    with pytest.raises(InvalidTask, match=r"^effect of 'o': value 2 out of domain of variable 0$"):
        Task(v, (Action(0, "o", PA([(0, 0)]), PA([(0, 2)])),), State((0,)), PA())
    with pytest.raises(InvalidTask, match=r"^goal: unknown variable 3$"):
        Task(v, (act,), State((0,)), PA([(3, 0)]))


def test_states_are_value_tuples():
    # off the search path a state is its value tuple; on it, the strategy
    # (ctx.state) and the heuristic receive the int fact_set of the node's
    # values
    task = parse_sas((FIXTURES / "enable_chain.sas").read_text())
    assert type(task.initial) is tuple
    action = next(a for a in task.actions if applicable(task.initial, a))
    assert type(apply_action(task.initial, action)) is tuple
    reachable = [task.initial]
    for values in reachable:
        for a in task.actions:
            if applicable(values, a) and apply_action(values, a) not in reachable:
                reachable.append(apply_action(values, a))
    fact_sets = set(map(task.index.fact_set, reachable))
    initial = task.index.fact_set(task.initial)

    class Recording:
        """Records what the engine hands the strategy and the heuristic."""

        def __init__(self, inner, heuristic):
            self.inner, self.task, self.heuristic = inner, inner.task, heuristic
            self.seen, self.evaluated = [], []

        def expansion(self, ctx):
            self.seen.append(ctx.state)
            return self.inner.expansion(ctx)

        def evaluate(self, state):
            self.evaluated.append(state)
            return self.heuristic(state)

    for kind in KINDS:
        recording = Recording(make_strategy(task, kind), make_heuristic(task, "hmax"))
        assert astar(task, recording.evaluate, recording).solved
        assert recording.seen and recording.evaluated
        received = recording.seen + recording.evaluated
        assert {type(facts) for facts in received} == {int}
        assert set(received) <= fact_sets
        assert recording.seen[0] == recording.evaluated[0] == initial

    v = (Variable(0, "x", 2),)
    act = Action(0, "o", PA([(0, 0)]), PA([(0, 1)]))
    with pytest.raises(InvalidTask):  # one value too many
        Task(v, (act,), (0, 1), PA())
    with pytest.raises(InvalidTask):  # value out of domain
        Task(v, (act,), (2,), PA())
    with pytest.raises(InvalidTask):  # a list cannot key the oracle's state tables
        Task(v, (act,), [0], PA())
    copy = pickle.loads(pickle.dumps(task))
    assert copy == task and type(copy.initial) is tuple


def test_fact_set_tables_match_value_semantics():
    # every reachable state s and action a of the stream tasks: the fact
    # set F of s decides applicability and the goal, and F & keep[a] |
    # adds[a] is the fact set of a's successor
    for _, task, graph in default_task_stream(60):
        index = task.index
        for s in graph.states:
            facts = index.fact_set(s)
            assert ids(facts) == tuple(index.offsets[v] + x for v, x in enumerate(s))
            assert (facts & index.goal_bits == index.goal_bits) == is_goal(task, s)
            for a in task.actions:
                pre = index.pre_bits[a.id]
                assert (facts & pre == pre) == applicable(s, a)
                if applicable(s, a):
                    succ = facts & index.keep[a.id] | index.adds[a.id]
                    assert succ == index.fact_set(apply_action(s, a))


def reference_index_masks(task):
    """Reference for ActionIndex's writer_masks, compatible, leaving,
    goal_variable_facts, pre_conflicts and eff_conflicts: the first four
    from their definitions, the conflict masks as an OR over an action's
    effect entries, entry by entry."""
    index, off = task.index, task.index.offsets
    everything = (1 << len(task.actions)) - 1
    writer_masks = tuple(
        sum(1 << a.id for a in task.actions if v in a.effect.variables)
        for v in range(task.num_variables)
    )
    compatible = tuple(
        sum(1 << a.id for a in task.actions if a.precondition.value_of(v) in (None, x))
        for v, var in enumerate(task.variables)
        for x in range(var.domain_size)
    )
    leaving = tuple(
        sum(
            1 << a.id
            for a in task.actions
            if v in a.effect.variables and a.precondition.value_of(v) in (None, x)
        )
        for v, var in enumerate(task.variables)
        for x in range(var.domain_size)
    )
    goal_variable_facts = sum(
        1 << off[v] + x for v, _ in task.goal for x in range(task.variables[v].domain_size)
    )
    pre_conflicts = tuple(
        reduce(or_, (everything ^ compatible[f] for f in facts), 0) & ~(1 << a)
        for a, facts in enumerate(index.eff_facts)
    )
    eff_conflicts = tuple(
        reduce(or_, (writer_masks[v] & ~index.achiever_masks[off[v] + x] for v, x in a.effect), 0)
        for a in task.actions
    )
    return writer_masks, compatible, leaving, goal_variable_facts, pre_conflicts, eff_conflicts


def test_index_masks_match_reference():
    corpus = perfbench_corpus()
    tasks = [task for _, task, _ in default_task_stream(60)]
    tasks += [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    for workload in BENCH_WORKLOADS:
        tasks += [parse_sas(i.text) for i in corpus.instances(workload, 1)]
    for task in tasks:
        index = task.index
        assert (
            index.writer_masks,
            index.compatible,
            index.leaving,
            index.goal_variable_facts,
            index.pre_conflicts,
            index.eff_conflicts,
        ) == reference_index_masks(task)


def test_variable_value_names_default_and_check():
    assert Variable(0, "x", 2).value_names == ("x=0", "x=1")
    with pytest.raises(InvalidTask):
        Variable(0, "x", 2, ("only-one",))


def test_public_names_resolve():
    import porplan

    assert [name for name in porplan.__all__ if not hasattr(porplan, name)] == []
    assert len(set(porplan.__all__)) == len(porplan.__all__)
