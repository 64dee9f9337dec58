from __future__ import annotations

import heapq
import random
import sys
import threading
from functools import cache
from operator import add

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


def memoises(task):
    """Whether the relaxation evaluators memoise goal-fact costs on task."""
    return DeleteRelaxationHeuristic(task, "max").entries is not None


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


def reference_goal_costs(task, state, combine):
    """The relaxed cost of each goal fact, in goal order."""
    index = task.index
    costs = [action.cost for action in task.actions]
    dist = [INFINITY] * index.offsets[-1]
    heap = [(0, f) for f in map(add, index.offsets, state)]
    for _, f in heap:
        dist[f] = 0
    heapq.heapify(heap)
    for a, n in enumerate(index.pre_count):
        if n == 0:
            for f in index.eff_facts[a]:
                if costs[a] < dist[f]:
                    dist[f] = costs[a]
                    heapq.heappush(heap, (costs[a], f))
    remaining, acc = list(index.pre_count), list(costs)
    while heap:
        d, f = heapq.heappop(heap)
        if d > dist[f]:
            continue
        for a in index.consumers[f]:
            remaining[a] -= 1
            acc[a] += d
            if remaining[a] == 0:
                value = acc[a] if combine == "add" else costs[a] + d
                for g in index.eff_facts[a]:
                    if value < dist[g]:
                        dist[g] = value
                        heapq.heappush(heap, (value, g))
    return [dist[index.offsets[v] + x] for v, x in task.goal]


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


def assert_memo_matches_reference(task, states, order_seed=0):
    """One shared evaluator per combiner, walked over the states in their
    order and then shuffled, returns the reference value at every call,
    and each memo ends up holding its projection of every walked state
    and no more entries than calls."""
    shuffled = list(states)
    random.Random(order_seed).shuffle(shuffled)
    fact_sets = list(map(task.index.fact_set, states))
    for combine in ("max", "add"):
        evaluator = DeleteRelaxationHeuristic(task, combine)
        calls = 0
        for walk in (states, shuffled):
            for values in walk:
                expected = reference_relaxed_cost(task, values, combine)
                assert evaluator(task.index.fact_set(values)) == expected
                calls += 1
        for memo, mask in evaluator.entries or ():
            assert set(memo) == {F & mask for F in fact_sets} and len(memo) <= calls


def test_memo_matches_reference_on_random_tasks():
    for cost_mode in ("unit", "random"):
        memoised = small_tasks(50, cost_mode, memoises)
        for i, (task, graph) in enumerate(memoised):
            assert_memo_matches_reference(task, graph.states, i)


def test_memo_matches_reference_on_two_switches():
    task = parse_sas((FIXTURES / "two_switches.sas").read_text())
    assert DeleteRelaxationHeuristic(task, "add").entries is not None
    assert_memo_matches_reference(task, enumerate_state_space(task).states)


def test_memo_matches_reference_on_logistics_evaluations():
    evaluations = logistics_evaluations()
    assert sum(len(states) for _, states in evaluations) > 5000
    for i, (task, states) in enumerate(evaluations):
        assert_memo_matches_reference(task, states, i)


def test_memo_selection():
    # every seed-1 random benchmark task and enable_chain.sas have a goal
    # variable with every variable as an ancestor: no memo could hit
    unmemoised = [parse_sas(i.text) for i in perfbench_corpus().instances("random-astar-blind", 1)]
    unmemoised.append(parse_sas((FIXTURES / "enable_chain.sas").read_text()))
    memoised = [task for task, _ in logistics_evaluations()]
    memoised.append(parse_sas((FIXTURES / "two_switches.sas").read_text()))
    for combine in ("max", "add"):
        for task in unmemoised:
            evaluator = DeleteRelaxationHeuristic(task, combine)
            assert evaluator.entries is None
        for task in memoised:
            evaluator = DeleteRelaxationHeuristic(task, combine)
            assert [memo for memo, _ in evaluator.entries] == [{}] * len(task.goal)
            # each projection masks exactly its goal variable's ancestors' facts
            own = task.index.variable_facts
            for (var, _), (_, mask) in zip(task.goal, evaluator.entries):
                read_off = {v for v in range(task.num_variables) if mask & own[v]}
                assert mask == sum(own[v] for v in read_off)
                assert read_off == reference_ancestors(task, var)
                assert len(read_off) < task.num_variables


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
    # every call leaves all of its state's goal entries memoised
    for memo, mask in hmax.entries:
        assert set(memo) == {F & mask for F in states}


class RecordingMemo(dict):
    """A memo that logs every write, as (goal entry, key)."""

    def __init__(self, entry, log):
        super().__init__()
        self.entry, self.log = entry, log

    def __setitem__(self, key, value):
        self.log.append((self.entry, key))
        super().__setitem__(key, value)


def assert_miss_writes_only_missing(task, states):
    """Walking the states, each call writes exactly its missing entries to
    the memos, each at its reference goal-fact cost, and leaves the entries
    it hit as they were; returns the number of calls that missed some but
    not all entries."""
    partial = 0
    for combine in ("max", "add"):
        evaluator = DeleteRelaxationHeuristic(task, combine)
        log = []
        # every memo read and write goes through the entries
        evaluator.entries = [
            (RecordingMemo(i, log), mask) for i, (_, mask) in enumerate(evaluator.entries)
        ]
        memos = [memo for memo, _ in evaluator.entries]
        for values in states:
            facts = task.index.fact_set(values)
            keys = [facts & mask for _, mask in evaluator.entries]
            before = [memo.get(key) for memo, key in zip(memos, keys)]
            missing = [i for i, value in enumerate(before) if value is None]
            partial += 0 < len(missing) < len(keys)
            log.clear()
            assert evaluator(facts) == reference_relaxed_cost(task, values, combine)
            assert log == [(i, keys[i]) for i in missing]
            expected = reference_goal_costs(task, values, combine)
            for i, (memo, key) in enumerate(zip(memos, keys)):
                assert memo[key] == expected[i]
                if i not in missing:
                    assert memo[key] is before[i]
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
    assert partial > 100


@cache
def stream_walks():
    """The first 30 memoised random-cost stream tasks with their states; most
    have precondition-free actions and most have zero-cost ones."""
    stream = default_task_stream(80, cost_mode="random")
    walks = [(task, graph.states) for _, task, graph in stream if memoises(task)][:30]
    assert len(walks) == 30
    return tuple(walks)


def test_pass_tables_cut_to_their_mask():
    # every mask the walks build keeps exactly the consumers whose
    # preconditions lie inside it, and the seeds on its facts
    walks = logistics_evaluations() + stream_walks()
    assert any(0 in task.index.pre_count for task, _ in walks)
    assert any(a.cost == 0 for task, _ in walks for a in task.actions)
    masks = dropped = cut_seeds = 0
    for task, states in walks:
        index = task.index
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            for values in states:
                evaluator(index.fact_set(values))
            for mask, (template, consumers, seeds) in evaluator.tables.items():
                masks += 1
                assert template == [INFINITY if mask >> f & 1 else 0 for f in range(len(template))]
                for f, cut in enumerate(consumers):
                    kept = [a for a in index.consumers[f] if index.pre_bits[a] | mask == mask]
                    assert cut == kept
                    dropped += len(index.consumers[f]) - len(kept)
                assert seeds == [(cost, f) for cost, f in evaluator.seeds if mask >> f & 1]
                cut_seeds += len(evaluator.seeds) - len(seeds)
    assert masks > 100 and dropped and cut_seeds


def test_call_with_every_entry_memoised_never_enters_the_pass(monkeypatch):
    def no_pass(*args):
        raise AssertionError("the pass ran on a memoised state")

    for task, states in logistics_evaluations() + stream_walks():
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            expected = [evaluator(task.index.fact_set(values)) for values in states]
            monkeypatch.setattr(evaluator, "_goal_costs", no_pass)
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


def test_one_entry_miss_pushes_only_that_entrys_ancestor_facts(monkeypatch):
    # on every call that misses exactly one goal entry, every fact the pass
    # puts on its heap lies in that entry's projection; on the random tasks,
    # some actions that read only those facts also write other variables
    heaps, pushed = watch_heaps(monkeypatch)
    walks = [logistics_evaluations()[0]]
    for cost_mode in ("unit", "random"):
        memoised = small_tasks(30, cost_mode, memoises)
        walks += [(task, graph.states) for task, graph in memoised]
    one_entry_misses = pushes = 0
    for task, states in walks:
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            entries = evaluator.entries
            for values in states:
                facts = task.index.fact_set(values)
                missing = [i for i, (memo, mask) in enumerate(entries) if facts & mask not in memo]
                heaps.clear()
                pushed.clear()
                evaluator(facts)
                assert len(heaps) == (1 if missing else 0)
                if len(missing) == 1:
                    one_entry_misses += 1
                    pushes += len(pushed)
                    projection = entries[missing[0]][1]
                    assert not [f for f in pushed if not projection >> f & 1]
    assert one_entry_misses > 500 and pushes > one_entry_misses


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


def test_memo_less_pass_matches_reference():
    # the pass without a memo computes every goal entry over all facts and
    # stops once the last goal fact is popped
    tasks = [parse_sas(i.text) for i in perfbench_corpus().instances("random-astar-blind", 1)]
    tasks.append(parse_sas((FIXTURES / "enable_chain.sas").read_text()))
    for k, task in enumerate(tasks):
        for combine in ("max", "add"):
            evaluator = DeleteRelaxationHeuristic(task, combine)
            assert evaluator.entries is None
            for values in sampled_states(task, 40, k):
                expected = reference_relaxed_cost(task, values, combine)
                assert evaluator(task.index.fact_set(values)) == expected


def test_pass_with_an_unreachable_goal_fact_drains_the_heap(build, monkeypatch):
    # goal x1=1 is reachable; goal x2=1 needs x2=2, which nothing achieves.
    # In the first task x2's ancestors are every variable, so there is no
    # memo; in the second x2 has no writer, so both entries are memoised
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
            evaluator = DeleteRelaxationHeuristic(task, combine)
            assert (evaluator.entries is not None) == has_memo
            heaps.clear()
            assert evaluator(task.index.fact_set(task.initial)) == INFINITY
            assert len(heaps) == 1 and heaps[0] == []
            assert reference_goal_costs(task, task.initial, combine) == [1, INFINITY]


def test_state_holding_every_goal_fact_costs_zero(monkeypatch):
    # the pass stops once the goal facts, all held at cost 0, are popped, so
    # it pops no fact at a positive cost
    popped = []

    def heappop(heap):
        item = heappop_(heap)
        popped.append(item[0])
        return item

    heappop_ = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", heappop)
    tasks = [parse_sas(i.text) for i in perfbench_corpus().instances("random-astar-blind", 1)]
    tasks.append(parse_sas((FIXTURES / "enable_chain.sas").read_text()))
    tasks += [task for task, _ in logistics_evaluations()]
    for task in tasks:
        values = list(task.initial)
        for v, x in task.goal:
            values[v] = x
        facts = task.index.fact_set(tuple(values))
        for combine in ("max", "add"):
            popped.clear()
            assert DeleteRelaxationHeuristic(task, combine)(facts) == 0
            assert popped and not any(popped)
