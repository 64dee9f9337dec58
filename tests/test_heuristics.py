from __future__ import annotations

import heapq
import random
import sys
import threading
from functools import cache, reduce
from itertools import product
from operator import add, or_

from porplan import State, astar, is_goal, make_heuristic, make_strategy, parse_sas
from porplan.heuristics import INFINITY, DeleteRelaxationHeuristic
from porplan.model import ids
from porplan.oracle import (
    RandomTaskSpec,
    TooLarge,
    brute_force_optimal_cost,
    default_task_stream,
    enumerate_state_space,
    generate_random_task,
)

from conftest import FIXTURES, perfbench_corpus


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


def built(task, combine="max"):
    """A relaxation evaluator on task with its components built."""
    evaluator = DeleteRelaxationHeuristic(task, combine)
    evaluator._build_components()
    return evaluator


def memoises(task):
    """Whether every goal component of task has a memo, so that a call on a
    state whose goal components are all memoised runs no pass."""
    return all(memo is not None for _, memo, *_ in built(task).components[1])


def small_tasks(count, cost_mode="unit", keep=lambda task: True):
    """The first count seeds' tasks that keep accepts and whose state
    space is small enough to enumerate, with their state-space graphs."""
    out = []
    seed = 0
    while len(out) < count:
        task = generate_random_task(RandomTaskSpec(seed=seed, cost_mode=cost_mode))
        seed += 1
        if not keep(task):
            continue
        try:
            graph = enumerate_state_space(task)
        except TooLarge:
            continue
        out.append((task, graph))
    return out


def test_h_blind(two_switches, build):
    facts = two_switches.index.fact_set
    assert make_heuristic(two_switches, "blind")(facts(State((1, 1)))) == 0
    assert make_heuristic(two_switches, "blind")(facts(two_switches.initial)) == 1
    pricey = build(
        domains=[2],
        actions=[("o", [(0, 0)], [(0, 1)], 5)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    assert make_heuristic(pricey, "blind")(pricey.index.fact_set(pricey.initial)) == 5
    free = build(
        domains=[2],
        actions=[("o", [(0, 0)], [(0, 1)], 0)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    # stays admissible at optimum 0
    assert make_heuristic(free, "blind")(free.index.fact_set(free.initial)) == 0


def test_h_goal_count(two_switches):
    facts = two_switches.index.fact_set
    assert make_heuristic(two_switches, "goalcount")(facts(two_switches.initial)) == 2
    assert make_heuristic(two_switches, "goalcount")(facts(State((1, 0)))) == 1
    assert make_heuristic(two_switches, "goalcount")(facts(State((1, 1)))) == 0


def test_blind_and_goal_count_match_value_definitions():
    # on every enumerated state: blind is 0 on goals, else the least
    # action cost (the random cost mode draws zero costs too, where it is
    # 0), and goal count is the number of violated goal entries
    checked = zero_costs = 0
    for cost_mode in ("unit", "random"):
        for _, task, graph in default_task_stream(60, cost_mode=cost_mode):
            blind, goalcount = make_heuristic(task, "blind"), make_heuristic(task, "goalcount")
            step = min(a.cost for a in task.actions)
            zero_costs += any(a.cost == 0 for a in task.actions)
            for values in graph.states:
                facts = task.index.fact_set(values)
                assert blind(facts) == (0 if is_goal(task, values) else step)
                assert goalcount(facts) == sum(values[v] != x for v, x in task.goal)
                checked += 1
    assert zero_costs and checked > 1000


def test_relaxation_two_switches(two_switches):
    # frozen from the naive fixpoint: each goal fact costs 1
    assert relaxed_costs_naive(two_switches, two_switches.initial, "max") == 1
    assert relaxed_costs_naive(two_switches, two_switches.initial, "add") == 2
    facts = two_switches.index.fact_set
    assert make_heuristic(two_switches, "hmax")(facts(two_switches.initial)) == 1
    assert make_heuristic(two_switches, "hadd")(facts(two_switches.initial)) == 2
    assert make_heuristic(two_switches, "hmax")(facts(State((1, 1)))) == 0
    assert make_heuristic(two_switches, "hadd")(facts(State((1, 1)))) == 0


def test_relaxation_unreachable(build):
    task = build(domains=[2, 2], actions=[("o", [(0, 0)], [(0, 1)])],
                 initial=[0, 0], goal=[(1, 1)])
    initial = task.index.fact_set(task.initial)
    assert make_heuristic(task, "hmax")(initial) == INFINITY
    assert make_heuristic(task, "hadd")(initial) == INFINITY


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
                facts = task.index.fact_set(state)
                assert hmax(facts) == relaxed_costs_naive(task, state, "max")
                assert hadd(facts) == relaxed_costs_naive(task, state, "add")


def test_admissibility_and_dominance():
    for cost_mode in ("unit", "random"):
        for task, graph in small_tasks(25, cost_mode):
            optimum = brute_force_optimal_cost(task)
            if optimum is not None:
                assert make_heuristic(task, "hmax")(task.index.fact_set(task.initial)) <= optimum
            hmax = DeleteRelaxationHeuristic(task, "max")
            hadd = DeleteRelaxationHeuristic(task, "add")
            for values in graph.states:
                facts = task.index.fact_set(values)
                assert hmax(facts) <= hadd(facts)


def test_zero_exactly_on_goals_unit_costs():
    for task, graph in small_tasks(20, "unit"):
        hmax = DeleteRelaxationHeuristic(task, "max")
        hadd = DeleteRelaxationHeuristic(task, "add")
        for values in graph.states:
            state = State(values)
            facts = task.index.fact_set(state)
            expected = is_goal(task, state)
            assert (hmax(facts) == 0) == expected
            assert (hadd(facts) == 0) == expected


def test_hmax_consistency_unit_costs():
    from porplan import applicable, apply_action

    for task, graph in small_tasks(15, "unit"):
        hmax = DeleteRelaxationHeuristic(task, "max")
        facts = task.index.fact_set
        for values in graph.states:
            state = State(values)
            h = hmax(facts(state))
            for action in task.actions:
                if applicable(state, action):
                    assert h <= 1 + hmax(facts(apply_action(state, action)))


def test_make_heuristic_names(two_switches):
    for name, value in [("blind", 1), ("goalcount", 2), ("hmax", 1), ("hadd", 2), ("zero", 0)]:
        initial = two_switches.index.fact_set(two_switches.initial)
        assert make_heuristic(two_switches, name)(initial) == value


# The relaxation evaluator as it was before it memoised goal-fact costs:
# one Dijkstra pass over all facts to exhaustion per call.


def reference_pass_costs(task, state, combine):
    """Every fact's relaxed cost, by fact id, from one pass over all facts."""
    off = task.index.offsets
    costs = [action.cost for action in task.actions]
    effects = [[off[v] + x for v, x in action.effect] for action in task.actions]
    consumers = [[] for _ in range(off[-1])]
    for a, action in enumerate(task.actions):
        for v, x in action.precondition:
            consumers[off[v] + x].append(a)
    dist = [INFINITY] * off[-1]
    heap = [(0, f) for f in map(add, off, state)]
    for _, f in heap:
        dist[f] = 0
    heapq.heapify(heap)
    remaining = [len(action.precondition) for action in task.actions]
    for a, n in enumerate(remaining):
        if n == 0:
            for f in effects[a]:
                if costs[a] < dist[f]:
                    dist[f] = costs[a]
                    heapq.heappush(heap, (costs[a], f))
    acc = list(costs)
    while heap:
        d, f = heapq.heappop(heap)
        if d > dist[f]:
            continue
        for a in consumers[f]:
            remaining[a] -= 1
            acc[a] += d
            if remaining[a] == 0:
                value = acc[a] if combine == "add" else costs[a] + d
                for g in effects[a]:
                    if value < dist[g]:
                        dist[g] = value
                        heapq.heappush(heap, (value, g))
    return dist


def reference_goal_costs(task, state, combine):
    """The relaxed cost of each goal fact, in goal order."""
    dist = reference_pass_costs(task, state, combine)
    return [dist[task.index.offsets[v] + x] for v, x in task.goal]


def reference_relaxed_cost(task, state, combine):
    values = reference_goal_costs(task, state, combine)
    if INFINITY in values:
        return INFINITY
    return sum(values) if combine == "add" else max(values, default=0)


def reference_ancestors(task, var):
    """The variables from which var is reached along "an action reads u and
    writes w" arcs, var included, read off the actions themselves."""
    parents = {v: set() for v in range(task.num_variables)}
    for action in task.actions:
        for w in action.effect.variables:
            parents[w].update(action.precondition.variables)
    seen = [var]
    for w in seen:
        seen += sorted(parents[w].difference(seen))
    return set(seen)


@cache
def logistics_evaluations():
    """Per seed-1 logistics benchmark task, the value tuples of the states
    A* with hmax evaluates, in evaluation order."""
    out = []
    for instance in perfbench_corpus().instances("logistics-astar-hmax", 1):
        task = parse_sas(instance.text)
        hmax, evaluated = make_heuristic(task, "hmax"), []

        def recording(facts, hmax=hmax, evaluated=evaluated):
            evaluated.append(facts)
            return hmax(facts)

        assert astar(task, recording, make_strategy(task, "none")).solved
        off = task.index.offsets
        states = [tuple(f - off[v] for v, f in enumerate(ids(F))) for F in evaluated]
        assert list(map(task.index.fact_set, states)) == evaluated
        out.append((task, tuple(states)))
    return tuple(out)


def needed_keys(evaluator, fact_sets):
    """Per component, the F & key of each fact set F that needs its costs:
    F leaves one of its goal facts unheld, or F needs a component that
    reads it."""
    components, goals = evaluator.components
    wanted = {c: mask for c, _, _, mask, _ in goals}
    needs = [set() for _ in components]
    for c in reversed(range(len(components))):  # children after parents
        if c in wanted:
            needs[c].update(F for F in fact_sets if F & wanted[c] != wanted[c])
        for p, _ in components[c][5]:
            needs[p] |= needs[c]
    return [{F & comp[1] for F in needed} for comp, needed in zip(components, needs)]


def assert_memos_hold_needed_keys(evaluator, fact_sets):
    """Each memo holds exactly the projections of the fact sets that need
    its component."""
    for (memo, *_), keys in zip(evaluator.components[0], needed_keys(evaluator, fact_sets)):
        if memo is not None:
            assert set(memo) == keys


def assert_memo_matches_reference(task, states, order_seed=0):
    """One shared evaluator per combiner, walked over the states in their
    order and then shuffled, returns the reference value at every call,
    and each memo ends up holding exactly the projections of the walked
    states that need its component."""
    shuffled = list(states)
    random.Random(order_seed).shuffle(shuffled)
    fact_sets = list(map(task.index.fact_set, states))
    for combine in ("max", "add"):
        evaluator = DeleteRelaxationHeuristic(task, combine)
        for walk in (states, shuffled):
            for values in walk:
                expected = reference_relaxed_cost(task, values, combine)
                assert evaluator(task.index.fact_set(values)) == expected
        assert_memos_hold_needed_keys(evaluator, fact_sets)


def test_memo_matches_reference_on_random_tasks():
    for cost_mode in ("unit", "random"):
        memoised = small_tasks(50, cost_mode, memoises)
        for i, (task, graph) in enumerate(memoised):
            assert_memo_matches_reference(task, graph.states, i)


def test_memo_matches_reference_on_two_switches():
    task = parse_sas((FIXTURES / "two_switches.sas").read_text())
    assert memoises(task)
    assert_memo_matches_reference(task, enumerate_state_space(task).states)


def test_memo_matches_reference_on_logistics_evaluations():
    evaluations = logistics_evaluations()
    assert sum(len(states) for _, states in evaluations) > 5000
    for i, (task, states) in enumerate(evaluations):
        assert_memo_matches_reference(task, states, i)


def test_memo_selection():
    # every seed-1 random benchmark task and enable_chain.sas have a goal
    # variable with every variable as an ancestor: its component's key is
    # the whole state, and it holds no memo; every other component holds
    # one, keyed on exactly its ancestors' facts
    whole = [parse_sas(i.text) for i in perfbench_corpus().instances("random-astar-blind", 1)]
    whole.append(parse_sas((FIXTURES / "enable_chain.sas").read_text()))
    proper = [task for task, _ in logistics_evaluations()]
    proper.append(parse_sas((FIXTURES / "two_switches.sas").read_text()))
    for combine in ("max", "add"):
        for task, unmemoised in [(t, 1) for t in whole] + [(t, 0) for t in proper]:
            components, goals = built(task, combine).components
            own, every = task.index.variable_facts, (1 << task.index.offsets[-1]) - 1
            for memo, key, _, own_mask, *_ in components:
                members = [v for v in range(task.num_variables) if own[v] & own_mask]
                assert key == sum(own[v] for v in reference_ancestors(task, members[0]))
                assert memo == (None if key == every else {})
            assert sum(memo is None for _, memo, *_ in goals) == unmemoised
    # enable_chain's goal component reads two memoised parents
    components = built(whole[-1]).components[0]
    assert [memo is None for memo, *_ in components] == [False, False, True]


def test_threads_share_one_memoised_evaluator():
    task, states = logistics_evaluations()[0]
    expected = [reference_relaxed_cost(task, values, "max") for values in states]
    states = list(map(task.index.fact_set, states))
    hmax = make_heuristic(task, "hmax")
    start = threading.Barrier(4)
    results = [None] * 4

    def walk(k):
        start.wait(timeout=60)
        # each thread starts its walk at another quarter of the states
        shift = k * len(states) // 4
        order = list(range(shift, len(states))) + list(range(shift))
        results[k] = {i: hmax(states[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so calls interleave
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for found in results:
        assert [found[i] for i in range(len(states))] == expected
    # every call leaves the components its state needs memoised
    assert_memos_hold_needed_keys(hmax, states)


class RecordingMemo(dict):
    """A memo that logs every write, as (component, key)."""

    def __init__(self, component, log):
        super().__init__()
        self.component, self.log = component, log

    def __setitem__(self, key, value):
        self.log.append((self.component, key))
        super().__setitem__(key, value)


def assert_miss_writes_only_missing(task, states):
    """Walking the states, each call writes each memoised goal component it
    needs and misses, writes no key a memo held, none twice, each at the
    reference costs of the component's own facts, and leaves the entries
    it hit as they were; returns the number of calls that missed some but
    not all of the memoised goal components they needed."""
    partial = 0
    for combine in ("max", "add"):
        evaluator = built(task, combine)
        components, goals = evaluator.components
        log = []
        # every memo write goes through a recording memo
        components = [
            (None if comp[0] is None else RecordingMemo(c, log), *comp[1:])
            for c, comp in enumerate(components)
        ]
        goals = [(c, components[c][0], *rest) for c, _, *rest in goals]
        evaluator.components = components, goals
        for values in states:
            facts = task.index.fact_set(values)
            keys = [facts & comp[1] for comp in components]
            before = [(comp[0] or {}).get(key) for comp, key in zip(components, keys)]
            needed = [c for c, memo, _, wanted, _ in goals if memo is not None and facts & wanted != wanted]
            missed = [c for c in needed if before[c] is None]
            partial += 0 < len(missed) < len(needed)
            log.clear()
            assert evaluator(facts) == reference_relaxed_cost(task, values, combine)
            assert len(set(log)) == len(log) and set(missed) <= {c for c, _ in log}
            expected = reference_pass_costs(task, values, combine) if log else None
            for c, key in log:
                assert key == keys[c] and before[c] is None
                own = ids(components[c][3])
                assert [components[c][0][key][f] for f in own] == [expected[f] for f in own]
            for c, value in enumerate(before):
                if value is not None:
                    assert components[c][0][keys[c]] is value
    return partial


def test_partial_miss_writes_only_missing_entries_on_logistics():
    partial = sum(
        assert_miss_writes_only_missing(task, states) for task, states in logistics_evaluations()
    )
    assert partial > 1000


def test_partial_miss_writes_only_missing_entries_on_random_tasks():
    # the random cost mode draws costs from 0-3, so zero-cost ties occur
    partial = 0
    for cost_mode in ("unit", "random"):
        memoised = small_tasks(30, cost_mode, memoises)
        for task, graph in memoised:
            partial += assert_miss_writes_only_missing(task, graph.states)
    assert partial > 40


@cache
def stream_walks():
    """The first 30 memoised random-cost stream tasks with their states; most
    have precondition-free actions and most have zero-cost ones."""
    stream = default_task_stream(80, cost_mode="random")
    walks = [(task, graph.states) for _, task, graph in stream if memoises(task)][:30]
    assert len(walks) == 30
    return tuple(walks)


def reference_fact_costs(task, state, combine):
    """Every fact's relaxed cost, by fact id, iterated to a fixpoint."""
    index = task.index
    dist = [INFINITY] * index.offsets[-1]
    for f in map(add, index.offsets, state):
        dist[f] = 0
    changed = True
    while changed:
        changed = False
        for a, action in enumerate(task.actions):
            pre = [dist[f] for f in index.pre_facts[a]]
            value = action.cost + (sum(pre) if combine == "add" else max(pre, default=0))
            for f in index.eff_facts[a]:
                if value < dist[f]:
                    dist[f], changed = value, True
    return dist


def component_variables(task, component):
    """The variables of a component, read off its own fact mask."""
    own = component[3]
    return [v for v, mask in enumerate(task.index.variable_facts) if mask & own]


def assert_component_tables(task, evaluator):
    """The built components split the goal variables' ancestors into the
    strongly connected sets of the ancestor relation, parents first, and
    the goal components are the ones holding goal facts, with their goal
    facts. Each component holds exactly the actions writing it, their
    effects cut to its own facts and their other preconditions read from
    the parents its inputs name; it has a memo unless its key, the facts of
    its ancestors, is every fact. Returns the number of effects and of
    preconditions cut."""
    index = task.index
    components, goals = evaluator.components
    owner = {v: c for c, comp in enumerate(components) for v in component_variables(task, comp)}
    assert sum(comp[3] for comp in components) == reduce(or_, [comp[3] for comp in components])
    assert set(owner) == set().union(*[reference_ancestors(task, v) for v, _ in task.goal])
    wanted = {}
    for v, x in task.goal:
        wanted[owner[v]] = wanted.get(owner[v], 0) | 1 << index.offsets[v] + x
    assert [(c, mask, facts) for c, _, _, mask, facts in goals] == [
        (c, wanted[c], ids(wanted[c])) for c in sorted(wanted)
    ]
    assert all(memo is components[c][0] and key == components[c][1] for c, memo, key, *_ in goals)
    every = (1 << index.offsets[-1]) - 1
    cut_effects = cut_pres = 0
    for c, (memo, key, start, own, variables, inputs, rows, consumers, count) in enumerate(
        components
    ):
        members = component_variables(task, components[c])
        assert variables == [index.variable_facts[v] for v in members] and own == sum(variables)
        assert (memo is None) == (key == every) and isinstance(start, dict)
        ancestors = reference_ancestors(task, members[0])
        assert all(set(members) <= reference_ancestors(task, v) for v in members)
        assert all(owner[u] < c for u in ancestors - set(members))
        assert key == sum(index.variable_facts[u] for u in ancestors)
        writers = reduce(or_, [index.writer_masks[v] for v in members])
        actions = [a for a in range(len(task.actions)) if writers >> a & 1]
        assert [(i, cost) for i, cost, _ in rows] == [
            (i, task.actions[a].cost) for i, a in enumerate(actions)
        ]
        read = {}
        for i, a in enumerate(actions):
            assert rows[i][2] == [f for f in index.eff_facts[a] if own >> f & 1]
            cut_effects += len(index.eff_facts[a]) - len(rows[i][2])
            assert count[i] == sum(own >> f & 1 for f in index.pre_facts[a])
            for f in index.pre_facts[a]:
                if not own >> f & 1:
                    read.setdefault(f, []).append(i)
                    cut_pres += 1
        for f, rows_of_f in enumerate(consumers):
            needs = [i for i, a in enumerate(actions) if f in index.pre_facts[a]]
            assert rows_of_f == (tuple(rows[i] for i in needs) if own >> f & 1 else ())
        assert read == {g: readers for p, pairs in inputs for g, readers in pairs}
        assert all(components[p][3] >> g & 1 for p, pairs in inputs for g, _ in pairs)
    return cut_effects, cut_pres


def assert_memos_match_reference(task, evaluator, states, combine):
    """Every memo entry a walked state's key reaches holds the reference
    costs of the component's own facts at that state."""
    checked = 0
    for values in states:
        facts = task.index.fact_set(values)
        expected = reference_fact_costs(task, values, combine)
        for memo, key, _, own, *_ in evaluator.components[0]:
            if memo is not None and facts & key in memo:
                assert [memo[facts & key][f] for f in ids(own)] == [expected[f] for f in ids(own)]
                checked += 1
    return checked


def test_component_tables_stay_inside_their_component():
    # the logistics trucks are parents of every package; the stream tasks
    # have precondition-free actions, zero costs and actions writing two
    # components
    walks = logistics_evaluations() + stream_walks()
    assert any(not a.precondition for task, _ in walks for a in task.actions)
    assert any(a.cost == 0 for task, _ in walks for a in task.actions)
    components = parents = cut_effects = cut_pres = checked = 0
    for task, states in walks:
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            for values in states:
                evaluator(task.index.fact_set(values))
            effects, pres = assert_component_tables(task, evaluator)
            cut_effects, cut_pres = cut_effects + effects, cut_pres + pres
            components += len(evaluator.components[0])
            parents += len({p for comp in evaluator.components[0] for p, _ in comp[5]})
            if task is walks[0][0] or (task, states) in stream_walks():
                checked += assert_memos_match_reference(task, evaluator, states, combine)
    assert components > 100 and parents > 20 and cut_effects and cut_pres > 100 and checked


def test_call_with_every_entry_memoised_never_enters_the_pass(monkeypatch):
    def no_pass(*args):
        raise AssertionError("the pass ran on a memoised state")

    for task, states in logistics_evaluations() + stream_walks():
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            expected = [evaluator(task.index.fact_set(values)) for values in states]
            monkeypatch.setattr(evaluator, "_costs", no_pass)
            assert [evaluator(task.index.fact_set(values)) for values in states] == expected


def watch_heaps(monkeypatch):
    """Patch heapq's push and pop to log the relaxation pass's heaps; returns
    (heaps, facts): each heap once, at its first push or pop, and every fact
    ever on one. A pass builds its heap of held facts without heapq, so they
    are all on it at its first push or pop, and no fact is missed."""
    heaps, facts = [], []

    def watch(heap):
        if not heaps or heaps[-1] is not heap:
            heaps.append(heap)
            facts.extend(f for _, f in heap)

    def heappush(heap, item):
        watch(heap)
        facts.append(item[1])
        heappush_(heap, item)

    def heappop(heap):
        watch(heap)
        return heappop_(heap)

    heappush_, heappop_ = heapq.heappush, heapq.heappop
    monkeypatch.setattr(heapq, "heappush", heappush)
    monkeypatch.setattr(heapq, "heappop", heappop)
    return heaps, facts


def test_one_entry_miss_pushes_only_its_components_facts(monkeypatch):
    # on every call that misses exactly one of the goal components it
    # needs, a pass runs for that component and for each parent whose memo
    # the call fills, and every fact on their heaps is an own fact of one
    # of those; with every parent memoised, one pass runs on the goal
    # component alone
    heaps, pushed = watch_heaps(monkeypatch)
    walks = [logistics_evaluations()[0]]
    for cost_mode in ("unit", "random"):
        memoised = small_tasks(30, cost_mode, memoises)
        walks += [(task, graph.states) for task, graph in memoised]
    one_entry_misses = alone = pushes = 0
    for task, states in walks:
        for combine in ("max", "add"):
            evaluator = built(task, combine)
            components, goals = evaluator.components
            for values in states:
                facts = task.index.fact_set(values)
                missing = [
                    c
                    for c, memo, key, wanted, _ in goals
                    if facts & wanted != wanted and facts & key not in memo
                ]
                sizes = [len(comp[0]) for comp in components]
                heaps.clear()
                pushed.clear()
                evaluator(facts)
                if len(missing) != 1:
                    continue
                filled = [c for c, comp in enumerate(components) if len(comp[0]) > sizes[c]]
                allowed = sum(components[c][3] for c in filled)
                assert missing[0] in filled and len(heaps) == len(filled)
                assert not [f for f in pushed if not allowed >> f & 1]
                one_entry_misses += 1
                if filled == missing:
                    alone += 1
                    pushes += len(pushed)
    assert one_entry_misses > 500 and alone > 400 and pushes > alone


def sampled_states(task, count, seed=0):
    """The value tuples of count states met on random walks from the
    initial state, restarting at the initial state at dead ends."""
    from porplan import applicable, apply_action

    rng = random.Random(seed)
    state, out = task.initial, []
    while len(out) < count:
        out.append(state)
        moves = [a for a in task.actions if applicable(state, a)]
        state = apply_action(state, rng.choice(moves)) if moves else task.initial
    return out


def test_memo_less_pass_matches_reference(monkeypatch):
    # a goal component without a memo computes its goal facts' costs on
    # every call, in a pass that stops once its last unheld goal fact is
    # popped; each random task is one such component of every variable,
    # so the evaluator keeps no entry per state there
    heaps, _ = watch_heaps(monkeypatch)
    tasks = [parse_sas(i.text) for i in perfbench_corpus().instances("random-astar-blind", 1)]
    tasks.append(parse_sas((FIXTURES / "enable_chain.sas").read_text()))
    stopped = 0
    for k, task in enumerate(tasks):
        assert not memoises(task)
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            for values in sampled_states(task, 40, k):
                heaps.clear()
                expected = reference_relaxed_cost(task, values, combine)
                assert evaluator(task.index.fact_set(values)) == expected
                stopped += bool(heaps and heaps[-1])
            if task is not tasks[-1]:
                [(memo, key, start, *_)] = evaluator.components[0]
                assert memo is None and len(start) == 1
    assert stopped > 100


def test_pass_with_an_unreachable_goal_fact_drains_the_heap(build, monkeypatch):
    # goal x1=1 is reachable; goal x2=1 needs x2=2, which nothing achieves.
    # In the first task x2's ancestors are every variable, so its component
    # has no memo; in the second x2 has no writer, so both components have
    # one. Either way each variable's component runs its own pass, and x2's
    # drains its heap
    unmemoised = build(
        domains=[2, 3],
        actions=[("o", [(0, 0)], [(0, 1)]), ("q", [(0, 1), (1, 2)], [(1, 1)])],
        initial=[0, 0],
        goal=[(0, 1), (1, 1)],
    )
    memoised = build(
        domains=[2, 2], actions=[("o", [(0, 0)], [(0, 1)])], initial=[0, 0], goal=[(0, 1), (1, 1)]
    )
    heaps, _ = watch_heaps(monkeypatch)
    for task, has_memo in ((unmemoised, False), (memoised, True)):
        for combine in ("max", "add"):
            evaluator = built(task, combine)
            assert [memo is not None for _, memo, *_ in evaluator.components[1]] == [True, has_memo]
            heaps.clear()
            assert evaluator(task.index.fact_set(task.initial)) == INFINITY
            assert len(heaps) == 2 and heaps[-1] == []
            assert reference_goal_costs(task, task.initial, combine) == [1, INFINITY]


def test_pass_skips_stale_heap_entries(build, monkeypatch):
    # x=2 is pushed at 5 by the free "jump" and again at 2 by x=0 -> 1 -> 2,
    # and pops at 2 before y=1, which costs 10 and is the other precondition
    # of its consumer "finish". Taken as a second arrival of x=2, the stale
    # (5, x=2) would fire "finish" before y=1 is final: x=3 at 6 (add: 8)
    x, y = range(2)
    task = build(
        domains=[4, 2],
        actions=[
            ("jump", [], [(x, 2)], 5),
            ("step1", [(x, 0)], [(x, 1)], 1),
            ("step2", [(x, 1)], [(x, 2)], 1),
            ("raise", [(y, 0), (x, 0)], [(y, 1)], 10),
            ("finish", [(x, 2), (y, 1)], [(x, 3)], 1),
        ],
        initial=[0, 0],
        goal=[(x, 3)],
        uses_metric=True,
    )
    _, pushed = watch_heaps(monkeypatch)
    for combine, expected in (("max", 11), ("add", 13)):
        pushed.clear()
        assert DeleteRelaxationHeuristic(task, combine)(task.index.fact_set(task.initial)) == expected
        assert pushed.count(task.index.offsets[x] + 2) == 2
        assert reference_goal_costs(task, task.initial, combine) == [expected]
        assert relaxed_costs_naive(task, task.initial, combine) == expected


def test_state_holding_every_goal_fact_costs_zero(monkeypatch):
    # a state holding every goal fact costs 0 without a pass or a memo write
    def no_pass(*args):
        raise AssertionError("a pass ran on a state holding every goal fact")

    monkeypatch.setattr(DeleteRelaxationHeuristic, "_costs", no_pass)
    tasks = [parse_sas(i.text) for i in perfbench_corpus().instances("random-astar-blind", 1)]
    tasks.append(parse_sas((FIXTURES / "enable_chain.sas").read_text()))
    tasks += [task for task, _ in logistics_evaluations()]
    for task in tasks:
        values = list(task.initial)
        for v, x in task.goal:
            values[v] = x
        facts = task.index.fact_set(tuple(values))
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            assert evaluator(facts) == 0
            assert not any(memo for memo, *_ in evaluator.components[0])


def component_shape_tasks(build):
    """Hand-built tasks with the component shapes the benchmark corpus lacks.

    In the first, goal variable p (x1) is a parent of goal variable g (x5)
    and of the two-variable component {c, d} (x3, x4), which also reads q
    (x2); some actions are free, and d has a precondition-free achiever and
    c one whose only precondition lies in parent p. In the second, goal
    g=1 (x2) needs p=2 (x1), which nothing achieves, while p=1 and h=1 are
    reachable. In the third, goal variable x2 has every variable as an
    ancestor, so its component has no memo, and x1 and x3 are its parents.
    """
    p, q, c, d, g = range(5)
    shapes = build(
        domains=[4, 3, 3, 2, 2],
        actions=[
            ("p01", [(p, 0)], [(p, 1)], 2),
            ("p12", [(p, 1)], [(p, 2)], 0),
            ("p23", [(p, 2)], [(p, 3)], 1),
            ("p30", [(p, 3)], [(p, 0)], 3),
            ("q01", [(q, 0)], [(q, 1)], 1),
            ("q10", [(q, 1)], [(q, 0)], 0),
            ("c01", [(c, 0), (d, 1), (p, 2)], [(c, 1)], 1),
            ("c12", [(c, 1), (q, 1)], [(c, 2)], 0),
            ("c-from-p", [(p, 1)], [(c, 1)], 3),
            ("d01", [(d, 0), (c, 0)], [(d, 1)], 0),
            ("d10", [(d, 1), (c, 1)], [(d, 0)], 2),
            ("d-free", [], [(d, 1)], 4),
            ("g01", [(g, 0), (p, 3)], [(g, 1)], 1),
        ],
        initial=[0, 0, 0, 0, 0],
        goal=[(p, 1), (c, 2), (g, 1)],
        uses_metric=True,
    )
    p, g, h = range(3)
    unreachable = build(
        domains=[3, 2, 2],
        actions=[
            ("p01", [(p, 0)], [(p, 1)]),
            ("g01", [(g, 0), (p, 2)], [(g, 1)]),
            ("h01", [(h, 0)], [(h, 1)], 0),
        ],
        initial=[0, 0, 0],
        goal=[(p, 1), (g, 1), (h, 1)],
        uses_metric=True,
    )
    memo_less = build(
        domains=[3, 2, 2],
        actions=[
            ("a", [(0, 0)], [(0, 1)], 0),
            ("b", [(0, 1)], [(0, 2)], 2),
            ("c", [(0, 2), (2, 1)], [(1, 1)]),
            ("free", [], [(2, 1)], 3),
        ],
        initial=[0, 0, 0],
        goal=[(1, 1), (2, 1)],
        uses_metric=True,
    )
    return shapes, unreachable, memo_less


def every_state(task):
    return list(product(*(range(var.domain_size) for var in task.variables)))


def test_component_shapes_match_reference(build):
    shapes, unreachable, memo_less = component_shape_tasks(build)
    for combine in ("max", "add"):
        components, goals = built(shapes, combine).components
        # p, q, {c, d}, g; p is a goal component and a parent, and q a parent
        assert [component_variables(shapes, comp) for comp in components] == [[0], [1], [2, 3], [4]]
        assert [c for c, *_ in goals] == [0, 2, 3]
        assert all(comp[0] is not None for comp in components)
        components, goals = built(unreachable, combine).components
        assert [c for c, *_ in goals] == [0, 1, 2] and components[0][0] is not None
        components, goals = built(memo_less, combine).components
        assert [component_variables(memo_less, comp) for comp in components] == [[0], [2], [1]]
        assert [comp[0] is None for comp in components] == [False, False, True]
    # every value combination, reachable or not, in order and then shuffled
    for k, task in enumerate((shapes, unreachable, memo_less)):
        states = every_state(task)
        assert_memo_matches_reference(task, states, k)
        assert_miss_writes_only_missing(task, states)
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            for values in states:
                evaluator(task.index.fact_set(values))
            assert_component_tables(task, evaluator)
            assert assert_memos_match_reference(task, evaluator, states, combine)
    # g=1 is unreachable through its parent alone: wherever neither it nor p=2 holds
    for p, g, _ in every_state(unreachable):
        cost = reference_goal_costs(unreachable, (p, g, 0), "max")[1]
        assert (cost == INFINITY) == (p != 2 and g != 1)


def test_threads_share_one_evaluator_on_component_shapes(build):
    task = component_shape_tasks(build)[0]
    states = every_state(task) * 3
    random.Random(0).shuffle(states)
    for combine in ("max", "add"):
        expected = [reference_relaxed_cost(task, values, combine) for values in states]
        facts = list(map(task.index.fact_set, states))
        evaluator = DeleteRelaxationHeuristic(task, combine)
        assert walk_in_threads(evaluator, facts) == [expected] * 4
        assert_memos_hold_needed_keys(evaluator, facts)


def walk_in_threads(evaluator, states):
    """Four threads call one evaluator on every state, each starting at
    another quarter, with frequent thread switches; each thread's values
    in state order."""
    start = threading.Barrier(4)
    results = [None] * 4

    def walk(k):
        start.wait(timeout=60)
        shift = k * len(states) // 4
        order = list(range(shift, len(states))) + list(range(shift))
        found = {i: evaluator(states[i]) for i in order}
        results[k] = [found[i] for i in range(len(states))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results
