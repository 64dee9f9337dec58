from __future__ import annotations

import weakref
from collections import deque

import pytest

from porplan import (
    State,
    applicable,
    apply_action,
    astar,
    build_dtg,
    full_expansion,
    is_left_commutative,
    landmark_action_set,
    make_bare_strategy,
    make_heuristic,
    make_strategy,
    parse_sas,
)
from conftest import BENCH_WORKLOADS, FIXTURES, perfbench_corpus
from porplan.oracle import (
    RandomTaskSpec,
    TooLarge,
    _applicable,
    _rows,
    _sp_rule,
    brute_force_optimal_cost,
    default_task_stream,
    enumerate_state_space,
    generate_random_task,
)
from porplan import strategies
from porplan.graphs import V0
from porplan.model import ActionIndex, ids
from porplan.strategies import (
    ADAPTIVE_WINDOW,
    KINDS,
    AdaptiveStrategy,
    ExpansionContext,
    FullStrategy,
    InvalidPath,
    NoUnachievedGoal,
    SpStrategy,
    sac_fixpoint,
)


def solvable_tasks(count, **kw):
    out = []
    seed = 0
    while len(out) < count:
        task = generate_random_task(RandomTaskSpec(seed=seed, **kw))
        seed += 1
        try:
            graph = enumerate_state_space(task)
        except TooLarge:
            continue
        if graph.can_reach_goal():
            out.append((task, graph))
    return out


def test_full_expansion(two_switches, build):
    facts = two_switches.index.fact_set
    assert full_expansion(two_switches, facts(two_switches.initial)) == (0, 1)
    assert full_expansion(two_switches, facts(State((1, 1)))) == ()
    empty = build(domains=[2], actions=[], initial=[0], goal=[])
    assert full_expansion(empty, empty.index.fact_set(empty.initial)) == ()


def _scan(task, state):
    return tuple(a.id for a in task.actions if applicable(state, a))


def _reachable(task, limit):
    """Up to limit states reachable from the initial state, breadth first,
    found with the model's own applicable/apply_action."""
    seen = {task.initial}
    queue = [task.initial]
    for state in queue:
        for a in task.actions:
            if len(seen) < limit and applicable(state, a):
                succ = apply_action(state, a)
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
    return queue


def test_full_expansion_matches_scan(build):
    # actions 0 and 2 have empty preconditions; 3 reads two variables
    unconditional = build(
        domains=[3, 2, 2],
        actions=[
            ("set0", [], [(0, 2)]),
            ("need0", [(0, 1)], [(1, 1)]),
            ("flip", [], [(1, 0), (2, 1)]),
            ("both", [(0, 2), (1, 0)], [(2, 0)]),
        ],
        initial=[1, 1, 0],
        goal=[(2, 1)],
    )
    tasks = [unconditional]
    tasks += [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    checked = 0
    for task in tasks:
        for state in _reachable(task, 1000):
            assert full_expansion(task, task.index.fact_set(state)) == _scan(task, state)
            checked += 1
    for _, task, graph in default_task_stream(60):
        for values in graph.states:
            state = State(values)
            assert full_expansion(task, task.index.fact_set(state)) == _scan(task, state)
            checked += 1
    corpus = perfbench_corpus()
    for workload in BENCH_WORKLOADS:
        for instance in corpus.instances(workload, 1)[:2]:
            task = parse_sas(instance.text)
            for state in _reachable(task, 150):
                assert full_expansion(task, task.index.fact_set(state)) == _scan(task, state)
                checked += 1
    assert checked > 1000


def test_landmark_action_set(two_switches):
    facts = two_switches.index.fact_set
    assert ids(landmark_action_set(two_switches, facts(two_switches.initial))) == (0,)
    assert ids(landmark_action_set(two_switches, facts(State((1, 0))))) == (1,)
    with pytest.raises(NoUnachievedGoal):
        landmark_action_set(two_switches, facts(State((1, 1))))


def test_landmark_set_is_a_landmark():
    # every goal-reaching path from the initial state uses a member
    for task, graph in solvable_tasks(25):
        from porplan.oracle import check_stubborn_conditions

        initial = task.initial
        if task.goal.holds_in(initial):
            continue
        landmarks = ids(landmark_action_set(task, task.index.fact_set(initial)))
        alive = {graph.states[i] for i in graph.can_reach_goal()}
        report = check_stubborn_conditions(task, initial, landmarks, 6, alive)
        assert not [v for v in report.violations if v.kind == "A2"]


def test_landmark_includes_v0_movers(build):
    # the only goal mover carries no precondition on the goal variable
    task = build(domains=[2], actions=[("free", [], [(0, 1)])],
                 initial=[0], goal=[(0, 1)])
    initial = task.index.fact_set(task.initial)
    assert ids(landmark_action_set(task, initial)) == (0,)
    assert make_bare_strategy(task, "sac").expansion(ExpansionContext(initial)) == (0,)


def test_sac_two_switches(two_switches):
    facts = two_switches.index.fact_set
    sac = make_bare_strategy(two_switches, "sac")
    assert sac.expansion(ExpansionContext(facts(two_switches.initial))) == (0,)
    assert sac.expansion(ExpansionContext(facts(State((1, 0))))) == (1,)


def test_sac_support_chain(support_chain):
    # c is applicable but supports nothing in the core; e sits on a
    # non-landmark transition: both stay out
    ctx = ExpansionContext(support_chain.index.fact_set(support_chain.initial))
    assert make_bare_strategy(support_chain, "sac").expansion(ctx) == (1,)
    assert make_bare_strategy(support_chain, "ec").expansion(ctx) == (1, 2)


def test_sac_fixpoint_stable():
    # both closure rules hold on the fixpoint, checked straight from the
    # action entries
    def clash(entries, effect):
        return any(effect.get(v, x) != x for v, x in entries)

    for task, graph in solvable_tasks(20):
        sac = make_bare_strategy(task, "sac")
        for values in graph.states[:20]:
            state = State(values)
            if task.goal.holds_in(state):
                continue
            facts = task.index.fact_set(state)
            landmarks = landmark_action_set(task, facts)
            applicable_mask = task.index.applicable_mask(facts)
            fixpoint = set(ids(sac_fixpoint(task, facts, landmarks, applicable_mask)))
            assert set(ids(landmarks)) <= fixpoint
            for a in (task.actions[i] for i in fixpoint):
                pre_a = set(a.precondition.entries)
                eff_a = dict(a.effect.entries)
                for b in task.actions:
                    pre_b = b.precondition.entries
                    if any(values[v] != x for v, x in pre_a):
                        # support: every achiever of a precondition entry
                        pulled = not pre_a.isdisjoint(b.effect.entries)
                    else:
                        # conflict: a clashing effect, or a clashing
                        # precondition with an entry holding in the state
                        pulled = clash(b.effect.entries, eff_a) or (
                            clash(pre_b, eff_a) and any(values[v] == x for v, x in pre_b)
                        )
                    assert b.id in fixpoint or not pulled
            expansion = sac.expansion(ExpansionContext(facts))
            assert expansion == tuple(
                a for a in sorted(fixpoint) if applicable(state, task.actions[a])
            )


def conflicts(p, q):
    """True iff some variable receives different values in p and q."""
    mine = dict(p.entries)
    return any(mine.get(v, x) != x for v, x in q.entries)


def test_action_relations_match_pairwise_definition(two_switches, enable_chain, support_chain):
    tasks = [two_switches, enable_chain, support_chain]
    tasks += [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    tasks += [task for _, task, _ in default_task_stream(60)]
    for task in tasks:
        index = task.index
        for a in task.actions:
            others = [b for b in task.actions if b.id != a.id]
            assert ids(index.pre_conflicts[a.id]) == tuple(
                b.id for b in others if conflicts(b.precondition, a.effect)
            )
            assert ids(index.eff_conflicts[a.id]) == tuple(
                b.id for b in others if conflicts(b.effect, a.effect)
            )
            # support: the actions sharing an entry of pre(a) in their effect
            pre = set(a.precondition.entries)
            assert ids(index.support[a.id]) == tuple(
                b.id for b in task.actions if not pre.isdisjoint(b.effect.entries)
            )


def test_landmark_matches_dtg_definition():
    # the actions on DTG edges leaving the current value, of the
    # unachieved goal variable with the fewest, ties to the lowest variable
    def from_dtgs(task, dtgs, state):
        candidates = []
        for v, g in task.goal:
            if state[v] != g:
                leaving = set()
                for e in dtgs[v].edges:
                    if e.source in (state[v], V0):
                        leaving |= e.actions
                candidates.append((len(leaving), v, tuple(sorted(leaving))))
        return min(candidates)[2]

    cases = []
    for path in sorted(FIXTURES.glob("*.sas")):
        task = parse_sas(path.read_text())
        cases.append((task, _reachable(task, 10**4)))
    for _, task, graph in default_task_stream(60):
        cases.append((task, [State(values) for values in graph.states]))
    checked = 0
    for task, states in cases:
        dtgs = [build_dtg(task, v) for v in range(task.num_variables)]
        for state in states:
            if not task.goal.holds_in(state):
                expected = from_dtgs(task, dtgs, state)
                assert ids(landmark_action_set(task, task.index.fact_set(state))) == expected
                checked += 1
    assert checked > 300


def test_expansion_calls_hook_points_per_call(monkeypatch, two_switches):
    # the benchmark times build_pdg and sac_fixpoint by swapping these
    # module globals, so strategies must look them up at every call
    sac = make_strategy(two_switches, "sac")
    ec = make_strategy(two_switches, "ec")
    calls = []

    def counting(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("sac_fixpoint", "build_pdg"):
        monkeypatch.setattr(strategies, name, counting(name, getattr(strategies, name)))
    ctx = ExpansionContext(two_switches.index.fact_set(two_switches.initial), None)
    sac.expansion(ctx)
    ec.expansion(ctx)
    assert calls == ["sac_fixpoint", "build_pdg"]


def test_bare_expansion_builds_one_applicability_mask(monkeypatch):
    # at every successor of the initial state, each bare expansion set is
    # one mask expression over a single applicability mask
    tasks = [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    corpus = perfbench_corpus()
    tasks += [parse_sas(corpus.instances(w, 1)[0].text) for w in BENCH_WORKLOADS]
    applicable_mask = ActionIndex.applicable_mask
    calls = []

    def counting(index, facts, held=None):
        calls.append(facts)
        return applicable_mask(index, facts, held)

    monkeypatch.setattr(ActionIndex, "applicable_mask", counting)
    checked = set()
    for task in tasks:
        index = task.index
        bare = [make_bare_strategy(task, kind) for kind in KINDS]
        initial = index.fact_set(task.initial)
        for a in ids(applicable_mask(index, initial)):
            facts = initial & index.keep[a] | index.adds[a]
            if facts & index.goal_bits == index.goal_bits:
                continue
            for strategy in bare:
                calls.clear()
                strategy.expansion(ExpansionContext(facts, a))
                assert calls == [facts], type(strategy).__name__
                checked.add(type(strategy))
    assert len(checked) == len(KINDS)


def test_ec_two_switches(two_switches):
    ec = make_bare_strategy(two_switches, "ec")
    facts = two_switches.index.fact_set
    chosen = ec.expansion(ExpansionContext(facts(two_switches.initial)))
    assert len(chosen) == 1 and set(chosen) <= {0, 1}
    with pytest.raises(NoUnachievedGoal):
        ec.expansion(ExpansionContext(facts(State((1, 1)))))


def test_ec_single_scc(build):
    # mutually dependent toggles force the whole PDG into one closure
    task = build(
        domains=[2, 2],
        actions=[("xy", [(1, 0)], [(0, 1)]), ("yx", [(0, 0)], [(1, 1)])],
        initial=[0, 0],
        goal=[(0, 1), (1, 1)],
    )
    ctx = ExpansionContext(task.index.fact_set(task.initial))
    assert make_bare_strategy(task, "ec").expansion(ctx) == (0, 1)


def test_sp_filter(two_switches, enable_chain):
    # the states' applicable sets: {a, b} at the root, {b} after a, {a} after b
    sp = make_bare_strategy(two_switches, "sp")
    facts = two_switches.index.fact_set
    root = ExpansionContext(facts(two_switches.initial), None)
    assert sp.expansion(root) == (0, 1)
    after_a = ExpansionContext(facts(State((1, 0))), 0)
    assert sp.expansion(after_a) == ()  # b pruned
    after_b = ExpansionContext(facts(State((0, 1))), 1)
    assert sp.expansion(after_b) == (0,)

    # follow-up exemption: eff(a) supplies pre(b), so b survives L(b) < L(a)
    chain_sp = make_bare_strategy(enable_chain, "sp")
    chain_strat = chain_sp.stratification
    assert chain_strat.action_level == (2, 1)
    assert chain_sp.keep[0] >> 1 & 1
    ctx = ExpansionContext(enable_chain.index.fact_set(State((0, 1, 2))), 0)
    assert chain_sp.expansion(ctx) == (0, 1)


def test_sp_matches_oracle_rule(build):
    # b may follow a iff level(b) >= level(a) or eff(a) shares an entry with
    # pre(b) or eff(b); in `same` the only shared entry is an effect of both,
    # which puts p and q on one level
    same = build(
        domains=[2, 2],
        actions=[("p", [(1, 0)], [(0, 1)]), ("q", [(1, 1)], [(0, 1)])],
        initial=[0, 0],
        goal=[(0, 1)],
    )
    sp = make_bare_strategy(same, "sp")
    assert sp.keep[0] >> 1 & 1 and sp.keep[1] >> 0 & 1
    tasks = [same] + [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    cases = [(task, enumerate_state_space(task)) for task in tasks]
    cases += [(task, graph) for _, task, graph in default_task_stream(60)]
    for task, graph in cases:
        sp, rule, rows = make_bare_strategy(task, "sp"), _sp_rule(task), _rows(task)
        fact_set = task.index.fact_set
        # every reachable state with every action that reaches it, and the root
        arrivals = [(graph.states[0], None)] + [
            (graph.states[t], a) for out in graph.successors for a, t in out
        ]
        for values, gen in arrivals:
            expected = tuple(_applicable(values, rows, rule[gen]))
            assert sp.expansion(ExpansionContext(fact_set(values), gen)) == expected
        # the empty fact set pins no variable, so every action passes the
        # applicability mask and each row of the table is compared whole
        for a in range(len(task.actions)):
            assert sp.expansion(ExpansionContext(0, a)) == rule[a]


def _sp_closed_by_state(task):
    """The fact sets a BFS reaches under bare SP with a closed list keyed
    by state alone: each state keeps the generating action of its first
    arrival."""
    sp, index = make_bare_strategy(task, "sp"), task.index
    start = index.fact_set(task.initial)
    seen, queue = {start}, deque([(start, None)])
    while queue:
        facts, gen = queue.popleft()
        for a in sp.expansion(ExpansionContext(facts, gen)):
            succ = facts & index.keep[a] | index.adds[a]
            if succ not in seen:
                seen.add(succ)
                queue.append((succ, a))
    return seen


def test_sp_state_closed_list_reaches_every_state():
    # SP-paths reach every state, but a state-keyed closed list keeps one
    # generating action per state; it still reaches them all on the stream
    for cost_mode, total in (("unit", 1_655), ("random", 1_647)):
        stream = default_task_stream(200, cost_mode=cost_mode)
        for seed, task, graph in stream:
            reached = _sp_closed_by_state(task)
            assert reached == set(map(task.index.fact_set, graph.states)), (cost_mode, seed)
        assert sum(len(graph.states) for _, _, graph in stream) == total, cost_mode


def test_is_left_commutative(two_switches, enable_chain, build):
    assert is_left_commutative(two_switches, two_switches.initial, 0, 1)
    # (a, b) is valid at (0,0,2) but b alone is not applicable there
    assert not is_left_commutative(enable_chain, State((0, 0, 2)), 0, 1)
    with pytest.raises(InvalidPath):
        is_left_commutative(enable_chain, State((0, 0, 2)), 1, 0)
    clash = build(
        domains=[2, 3],
        actions=[("one", [], [(1, 1)]), ("two", [], [(1, 2)])],
        initial=[0, 0],
        goal=[(1, 1)],
    )
    assert not is_left_commutative(clash, clash.initial, 0, 1)


def test_left_commutative_matches_semantics(two_switches):
    s = two_switches.initial
    a, b = two_switches.actions
    s_ab = apply_action(apply_action(s, a), b)
    s_ba = apply_action(apply_action(s, b), a)
    assert s_ab == s_ba
    assert is_left_commutative(two_switches, s, 0, 1)


def test_stubborn_strategies_nonempty_on_solvable_states():
    for task, graph in solvable_tasks(25):
        can_reach = graph.can_reach_goal()
        strategies = {
            kind: make_strategy(task, kind) for kind in ("none", "ec", "sac")
        }
        for i in can_reach:
            state = State(graph.states[i])
            if task.goal.holds_in(state):
                continue
            facts = task.index.fact_set(state)
            moves = set(full_expansion(task, facts))
            for kind, strategy in strategies.items():
                chosen = set(strategy.expansion(ExpansionContext(facts, None)))
                assert chosen, (kind, state)
                assert chosen <= moves


def test_strategy_kind_validation(two_switches):
    assert KINDS == ("none", "ec", "sp", "sac")
    for kind in KINDS:
        assert make_strategy(two_switches, kind).task is two_switches
    with pytest.raises(ValueError):
        make_strategy(two_switches, "bogus")


def test_make_strategy_wraps_ec_and_sac_not_sp(two_switches):
    # SP's expansion set costs one AND more than none's, so only ec and
    # sac get the switch-off; none and sp are the bare objects the oracle
    # checks
    assert type(make_strategy(two_switches, "none")) is FullStrategy
    assert type(make_strategy(two_switches, "sp")) is SpStrategy
    for kind in ("ec", "sac"):
        strategy = make_strategy(two_switches, kind)
        assert isinstance(strategy, AdaptiveStrategy)
        assert type(strategy.inner) is type(make_bare_strategy(two_switches, kind))
        assert not isinstance(make_bare_strategy(two_switches, kind), AdaptiveStrategy)
        # no reference cycle: the wrapper and its bare strategy go with the
        # last reference, not at the next cyclic collection
        freed = weakref.ref(strategy)
        del strategy
        assert freed() is None


class _Recording:
    """Records each expansion set the wrapped strategy returns."""

    def __init__(self, inner):
        self.inner, self.task = inner, inner.task
        self.calls = []

    def expansion(self, ctx):
        chosen = self.inner.expansion(ctx)
        self.calls.append((ctx, chosen))
        return chosen


def _counts(result):
    return result.expanded, result.generated, result.peak_open_size, result.plan


def test_adaptive_falls_back_to_full_expansion_after_the_window():
    # ec and sac prune nothing on random tasks: past the window after the
    # root, every expansion set is the full applicable set
    instance = perfbench_corpus().instances("random-astar-blind", 1)[0]
    task = parse_sas(instance.text)
    for kind in ("ec", "sac"):
        bare = make_bare_strategy(task, kind)
        recording = _Recording(make_strategy(task, kind))
        result = astar(task, make_heuristic(task, "blind"), recording)
        assert result.plan.cost == instance.expected_cost
        window, rest = recording.calls[: ADAPTIVE_WINDOW + 1], recording.calls[ADAPTIVE_WINDOW + 1 :]
        assert rest, kind
        for ctx, chosen in window:
            assert chosen == bare.expansion(ctx)
        for ctx, chosen in rest:
            assert chosen == full_expansion(task, ctx.state)


def test_adaptive_strategy_serves_consecutive_searches_alike():
    # on both tasks the switch fires for both wrapped kinds
    corpus = perfbench_corpus()
    for workload, name in (("random-astar-blind", "blind"), ("logistics-astar-hmax", "hmax")):
        task = parse_sas(corpus.instances(workload, 1)[0].text)
        heuristic = make_heuristic(task, name)
        for kind in ("ec", "sac"):
            strategy = make_strategy(task, kind)
            first, second = (_counts(astar(task, heuristic, strategy)) for _ in range(2))
            fresh = _counts(astar(task, heuristic, make_strategy(task, kind)))
            assert first == second == fresh, (workload, kind)


def test_adaptive_ec_and_sac_stay_optimal():
    fired = 0
    for cost_mode in ("unit", "random"):
        for _, task, _ in default_task_stream(150, cost_mode=cost_mode):
            optimum = brute_force_optimal_cost(task)
            for heuristic in ("hmax", "blind"):
                for kind in ("ec", "sac"):
                    strategy = make_strategy(task, kind)
                    result = astar(task, make_heuristic(task, heuristic), strategy)
                    assert result.plan.cost == optimum, (cost_mode, heuristic, kind)
                    fired += strategy.decided == strategy.full.expansion
    assert fired  # the fallback ran on some of these searches
