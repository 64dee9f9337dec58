from __future__ import annotations

import heapq
import random
from collections import defaultdict, deque
from functools import lru_cache, reduce
from operator import add, or_

from porplan import (
    State,
    build_asg,
    build_causal_graph,
    build_dtg,
    build_pdg,
    make_bare_strategy,
    parse_sas,
    pdg_edges,
    potential_masks,
    stratify,
)
from porplan.graphs import (
    V0,
    DTG,
    DtgEdge,
    graph_to_dot,
    closure_prefix_order,
    dtg_to_dot,
)
from porplan.oracle import (
    RandomTaskSpec,
    brute_force_core,
    default_task_stream,
    enumerate_state_space,
    generate_random_task,
)
from conftest import BENCH_WORKLOADS, FIXTURES, perfbench_corpus
from porplan.model import ids
from porplan.strategies import ExpansionContext, sac_fixpoint

# tasks drawn from each cost mode of the task stream for the PDG check
PDG_TASKS = 300


def random_tasks(count, **kw):
    return [generate_random_task(RandomTaskSpec(seed=s, **kw)) for s in range(count)]


# ---------------------------------------------------------------------------
# DTGs


def test_dtg_two_switches(two_switches):
    dtg = build_dtg(two_switches, 0)
    assert set((V0, *range(dtg.domain_size))) == {V0, 0, 1}
    assert dtg.edges == (DtgEdge(0, 1, frozenset({0})),)


def test_dtg_untouched_variable(build):
    task = build(domains=[2, 2], actions=[("o", [(0, 0)], [(0, 1)])],
                 initial=[0, 0], goal=[(0, 1)])
    assert build_dtg(task, 1).edges == ()


def test_dtg_v0_edge(enable_chain):
    # a writes x2 with no x2 precondition
    dtg = build_dtg(enable_chain, 1)
    assert dtg.edges == (DtgEdge(V0, 1, frozenset({0})),)


def test_dtg_rules_brute_force():
    # quadratic scan: every (action, variable) pair induces exactly the
    # prescribed edge
    for task in random_tasks(25):
        for var in range(task.num_variables):
            expected = {}
            for o in task.actions:
                post = o.effect.value_of(var)
                if post is None:
                    continue
                pre = o.precondition.value_of(var)
                src = V0 if pre is None else pre
                expected.setdefault((src, post), set()).add(o.id)
            got = {(e.source, e.target): set(e.actions) for e in build_dtg(task, var).edges}
            assert got == expected


# ---------------------------------------------------------------------------
# causal graph and stratification


def test_causal_graph(two_switches, enable_chain, build):
    assert build_causal_graph(two_switches) == frozenset()
    assert build_causal_graph(enable_chain) == frozenset({(1, 0), (2, 1)})
    # joint effect on x and y links both directions
    task = build(domains=[2, 2], actions=[("o", [], [(0, 1), (1, 1)])],
                 initial=[0, 0], goal=[(0, 1)])
    assert build_causal_graph(task) == frozenset({(0, 1), (1, 0)})


def test_causal_graph_matches_action_entries():
    # reference: walk each action's entries, joining every effect variable
    # to every other variable the action reads or writes
    def per_action(task):
        edges = set()
        for action in task.actions:
            touched = set(action.precondition.variables) | set(action.effect.variables)
            edges |= {(x, y) for x in action.effect.variables for y in touched if x != y}
        return frozenset(edges)

    corpus = perfbench_corpus()
    tasks = [task for _, task, _ in default_task_stream(200)]
    tasks += [task for _, task, _ in default_task_stream(100, cost_mode="random")]
    tasks += [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    for workload in BENCH_WORKLOADS:
        tasks += [parse_sas(i.text) for i in corpus.instances(workload, 1)]
    for task in tasks:
        assert build_causal_graph(task) == per_action(task)


def test_stratify_enable_chain(enable_chain):
    strat = stratify(enable_chain)
    assert strat.variable_level == (3, 2, 1)
    assert strat.action_level == (2, 1)


def test_stratify_edgeless(two_switches):
    # both components have canonical level 1; the earlier variable ranks higher
    strat = stratify(two_switches)
    assert strat.variable_level == (2, 1)
    assert strat.action_level == (2, 1)  # L(a) > L(b)


def test_stratify_cycle(build):
    task = build(
        domains=[2, 2],
        actions=[("xy", [(1, 0)], [(0, 1)]), ("yx", [(0, 0)], [(1, 1)])],
        initial=[0, 0],
        goal=[(0, 1)],
    )
    strat = stratify(task)
    assert strat.variable_level[0] == strat.variable_level[1]


def test_stratify_invariant_random():
    for task in random_tasks(30):
        cg = build_causal_graph(task)
        strat = stratify(task)
        for x, y in cg:
            assert strat.variable_level[x] <= strat.variable_level[y]
        for action in task.actions:
            levels = {strat.variable_level[v] for v in action.effect.variables}
            assert levels == {strat.action_level[action.id]}


def test_stratify_at_or_above_matches_action_levels():
    corpus = perfbench_corpus()
    tasks = [task for _, task, _ in default_task_stream(60)]
    tasks += [parse_sas(path.read_text()) for path in sorted(FIXTURES.glob("*.sas"))]
    for workload in BENCH_WORKLOADS:
        tasks += [parse_sas(i.text) for i in corpus.instances(workload, 1)]
    for task in tasks:
        strat = stratify(task)
        level = strat.action_level
        assert len(strat.at_or_above) == max(level, default=0) + 1
        for floor, mask in enumerate(strat.at_or_above):
            assert mask == sum(1 << a for a, x in enumerate(level) if x >= floor)


def test_joint_effect_shares_one_level(build):
    task = build(domains=[2, 2], actions=[("o", [], [(0, 1), (1, 1)])],
                 initial=[0, 0], goal=[(0, 1)])
    # writing both variables links them both ways: one component, one level
    strat = stratify(task)
    assert strat.variable_level == (1, 1) and strat.action_level == (1,)


def order_of(num_nodes, edges):
    """closure_prefix_order over an edge set, components as sorted lists."""
    succ = [0] * num_nodes
    for u, w in edges:
        succ[u] |= 1 << w
    return [list(ids(c)) for c in closure_prefix_order(succ, (1 << num_nodes) - 1)]


def test_scc_order():
    comps = order_of(4, frozenset({(0, 1), (1, 0), (2, 3)}))
    assert sorted(map(tuple, comps)) == [(0, 1), (2,), (3,)]
    # the tie-break: {1} is ready as soon as {2} is, and holds the smaller
    # node; an order that emits [2], [0] first gives a longer EC prefix
    assert order_of(3, frozenset({(0, 2)})) == [[1], [2], [0]]
    # a chain: every component a singleton, emitted from the sink back
    assert order_of(6, frozenset((v, v + 1) for v in range(5))) == [[5], [4], [3], [2], [1], [0]]


def _condensation_by_definition(num_nodes, edges):
    """Components, sinks-first emission and canonical levels computed from
    their definitions, sharing no code with porplan.graphs."""
    succ = {v: {w for u, w in edges if u == v} for v in range(num_nodes)}
    reach = []
    for v in range(num_nodes):  # plain BFS
        seen, queue = {v}, deque([v])
        while queue:
            for w in succ[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach.append(seen)
    comp_of = {v: frozenset(w for w in reach[v] if v in reach[w]) for v in range(num_nodes)}
    components = set(comp_of.values())

    # each step emits, among the components whose edges all end in emitted
    # components or in themselves, the one holding the smallest node
    order, emitted = [], set()
    while len(order) < len(components):
        ready = [
            c for c in components
            if not c & emitted and all(w in emitted or w in c for v in c for w in succ[v])
        ]
        first = min(ready, key=min)
        order.append(sorted(first))
        emitted |= first

    preds = {c: {comp_of[u] for u, w in edges if w in c} - {c} for c in components}
    memo = {}

    def level(c):  # 1 + the longest condensation path ending in c
        if c not in memo:
            memo[c] = 1 + max((level(p) for p in preds[c]), default=0)
        return memo[c]

    return components, order, [level(comp_of[v]) for v in range(num_nodes)]


def _random_digraphs(count):
    rng = random.Random(7)
    for _ in range(count):
        n = rng.randint(1, 30)
        density = rng.choice((0.02, 0.08, 0.2))
        yield n, frozenset(
            (u, w) for u in range(n) for w in range(n) if rng.random() < density
        )


def _realised(build, n, edges):
    """A task whose causal graph is edges less its self-loops: one action
    per edge (u, w), u != w, writing u and reading w."""
    actions = [(f"a{u}_{w}", [(w, 0)], [(u, 1)]) for u, w in sorted(edges) if u != w]
    return build(domains=[2] * n, actions=actions, initial=[0] * n, goal=[])


def test_condensation_matches_definition(build):
    """Pins the components, closure_prefix_order's tie-break (EC's expansion
    sets depend on it) and the stratification: components ranked by their
    canonical level, ties giving earlier variables the higher level."""
    graphs = [(n, edges, _realised(build, n, edges)) for n, edges in _random_digraphs(300)]
    for n, edges, task in graphs:
        assert build_causal_graph(task) == {(u, w) for u, w in edges if u != w}
    graphs += [(task.num_variables, build_causal_graph(task), task)
               for _, task, _ in default_task_stream(60)]
    for n, edges, task in graphs:
        components, order, levels = _condensation_by_definition(n, edges)
        assert {frozenset(c) for c in order_of(n, edges)} == components
        assert order_of(n, edges) == order
        ranked = sorted(components, key=lambda c: (levels[min(c)], -min(c)))
        distinct = {v: pos for pos, c in enumerate(ranked, start=1) for v in c}
        assert stratify(task).variable_level == tuple(distinct[v] for v in range(n))


def test_closure_prefix_order_is_closed():
    for task in random_tasks(20):
        pdg = pdg_of(task, task.initial, potential_masks(task))
        order = order_of(task.num_variables, pdg)
        assert sorted(v for comp in order for v in comp) == list(
            range(task.num_variables)
        )
        prefix = set()
        for comp in order:
            prefix.update(comp)
            for u, w in pdg:
                if u in prefix:
                    assert w in prefix  # no edge leaves any prefix


# ---------------------------------------------------------------------------
# ASG, core, closure: the oracle's brute-force core and the joint
# support/conflict closure of strategies.sac_fixpoint


def closure(task, facts, seed_mask):
    """sac_fixpoint at the state with fact set facts."""
    return sac_fixpoint(task, facts, seed_mask, task.index.applicable_mask(facts))


def test_asg(two_switches, enable_chain):
    initial = two_switches.index.fact_set(two_switches.initial)
    assert build_asg(two_switches, initial) == frozenset()
    asg = build_asg(enable_chain, enable_chain.index.fact_set(State((0, 0, 2))))
    assert asg == frozenset({(1, 0)})  # b unsupported, a supplies x2=1


def test_action_core(two_switches, enable_chain, support_chain, build):
    chain = build(
        domains=[2, 2, 2],
        actions=[
            ("a", [], [(0, 1)]),
            ("b", [(0, 1)], [(1, 1)]),
            ("c", [(1, 1)], [(2, 1)]),
        ],
        initial=[0, 0, 0],
        goal=[(2, 1)],
    )
    # no conflict rule fires on these cases: the joint closure is the core
    cases = [
        (two_switches, two_switches.initial, {0}, {0}),
        (enable_chain, State((0, 0, 2)), {1}, {0, 1}),
        (chain, chain.initial, {2}, {0, 1, 2}),
        # only the second precondition entry of a has an achiever
        (support_chain, support_chain.initial, {0}, {0, 1}),
    ]
    for task, state, seed, expected in cases:
        assert brute_force_core(task, state, seed) == frozenset(expected)
        seed_mask = sum(1 << a for a in seed)
        facts = task.index.fact_set(state)
        assert ids(closure(task, facts, seed_mask)) == tuple(sorted(expected))


def test_action_core_monotone_idempotent():
    for task in random_tasks(15):
        values = task.initial
        ids = [a.id for a in task.actions]
        small = brute_force_core(task, values, ids[:1])
        large = brute_force_core(task, values, ids[:3] or ids[:1])
        assert small <= large
        assert brute_force_core(task, values, small) == small


def test_action_closure(two_switches, build):
    initial = two_switches.index.fact_set(two_switches.initial)
    assert ids(closure(two_switches, initial, 0b1)) == (0,)
    clash = build(
        domains=[2, 3],
        actions=[("one", [], [(1, 1)]), ("two", [], [(1, 2)])],
        initial=[0, 0],
        goal=[(1, 1)],
    )
    assert ids(closure(clash, clash.index.fact_set(clash.initial), 0b1)) == (0, 1)
    # an inapplicable seed without supporters pulls in nothing
    blocked = build(
        domains=[2, 2],
        actions=[("x", [(0, 1)], [(1, 1)]), ("y", [], [(1, 0)])],
        initial=[0, 0],
        goal=[(1, 1)],
    )
    assert ids(closure(blocked, blocked.index.fact_set(blocked.initial), 0b1)) == (0,)


def test_action_closure_superset_idempotent():
    for task in random_tasks(15):
        state = task.index.fact_set(task.initial)
        first = 0b1 if task.actions else 0
        small = closure(task, state, first)
        large = closure(task, state, 0b111 & (1 << len(task.actions)) - 1)
        # as sets: first <= small <= large
        assert first & ~small == 0 and small & ~large == 0
        assert closure(task, state, small) == small


# ---------------------------------------------------------------------------
# potential descendants and the PDG


def potential_descendants(dtg, v, goal_value=None):
    """Edges that may still be traversed and domain values that may still
    be visited, starting from domain value v: the DTG-walk definition that
    graphs.potential_masks reproduces with action masks.

    Goal-related case: edges and values lying on some walk from v to the
    goal value. Non-goal case: everything reachable from v. V0 is
    reachable from every vertex.
    """
    forward = {v, V0}
    queue = [v]
    while queue:
        u = queue.pop()
        for e in dtg.edges:
            # a V0-source edge leaves every vertex
            if e.source in (u, V0) and e.target not in forward:
                forward.add(e.target)
                queue.append(e.target)
    if goal_value is None:
        edges = frozenset(e for e in dtg.edges if e.source in forward)
        return edges, frozenset(forward - {V0})

    pred = defaultdict(list)
    for e in dtg.edges:
        pred[e.target].append(e.source)
    backward = {goal_value}
    queue = [goal_value]
    while queue:
        for u in pred[queue.pop()]:
            if u not in backward:
                backward.add(u)
                queue.append(u)
    if V0 in backward:
        # any vertex can hop to V0, hence reach the goal value through it
        backward.update((V0, *range(dtg.domain_size)))
    edges = frozenset(
        e for e in dtg.edges if e.source in forward and e.target in backward
    )
    return edges, frozenset((forward & backward) - {V0})


def _linear_dtg():
    return DTG(0, 3, (
        DtgEdge(0, 1, frozenset({0})),
        DtgEdge(1, 2, frozenset({1})),
    ))


def test_potential_descendant_edges_linear():
    dtg = _linear_dtg()
    assert potential_descendants(dtg, 0, goal_value=2)[0] == frozenset(dtg.edges)
    assert potential_descendants(dtg, 2, goal_value=2)[0] == frozenset()
    two = DTG(0, 2, (DtgEdge(0, 1, frozenset({0})),))
    assert potential_descendants(two, 1)[0] == frozenset()


def test_potential_descendant_goal_filter():
    # 0 -> 1 and 1 -> 0: from 0 with goal 1, the back edge still lies on a
    # walk 0 -> 1 only if 1 is reachable from its target, which it is
    dtg = DTG(0, 2, (DtgEdge(0, 1, frozenset({0})), DtgEdge(1, 0, frozenset({1}))))
    assert potential_descendants(dtg, 0, goal_value=1)[0] == frozenset(dtg.edges)
    assert potential_descendants(dtg, 0, goal_value=1)[1] == frozenset({0, 1})


def test_v0_edges_always_traversable():
    dtg = DTG(0, 2, (DtgEdge(V0, 1, frozenset({0})),))
    assert potential_descendants(dtg, 0, goal_value=1)[0] == frozenset(dtg.edges)
    assert potential_descendants(dtg, 1, goal_value=1)[1] == frozenset({1})


def pdg_of(task, state, table):
    """build_pdg's successor masks at the state values as a frozenset of
    (i, j) pairs."""
    facts = task.index.fact_set(state)
    return pdg_edges(facts, build_pdg(facts, table))


# The three cases above as tasks. Fact (var, value) has id offset + value,
# so with a first variable of domain d the next variable's facts start at
# d. Row f of the potential_masks table holds the facts f_j for which
# holding f and f_j gives a PDG edge from f's variable to f_j's.


def test_potential_masks_linear(build):
    # x1: a moves 0 -> 1, b moves 1 -> 2 (the goal) and needs x2 = 0; x3
    # has no goal value: c moves it 0 -> 1 and nothing leaves 1
    task = build(
        domains=[3, 2, 2],
        actions=[
            ("a", [(0, 0)], [(0, 1)]),
            ("b", [(0, 1), (1, 0)], [(0, 2)]),
            ("c", [(2, 0)], [(2, 1)]),
        ],
        initial=[0, 0, 0],
        goal=[(0, 2)],
    )
    table = potential_masks(task)
    # b still lies ahead of x1 = 0 and 1, not of 2, and needs x2 = 0; and
    # b, moving x1 off 1, needs x2 = 0, a value x2 still holds; c touches
    # only x3
    assert table == (0, 1 << 3, 0, 0b011, 0, 0, 0)
    assert pdg_of(task, State((0, 0, 0)), table) == {(1, 0)}
    assert pdg_of(task, State((1, 0, 0)), table) == {(0, 1), (1, 0)}
    assert pdg_of(task, State((2, 0, 0)), table) == frozenset()


def test_potential_masks_goal_filter(build):
    # x1: a moves 0 -> 1 (the goal), b moves it back, c to the dead end 2;
    # d reads x1 = 2 to set x2
    task = build(
        domains=[3, 2],
        actions=[
            ("a", [(0, 0)], [(0, 1)]),
            ("b", [(0, 1)], [(0, 0)]),
            ("c", [(0, 0)], [(0, 2)]),
            ("d", [(0, 2), (1, 0)], [(1, 1)]),
        ],
        initial=[0, 0],
        goal=[(0, 1)],
    )
    table = potential_masks(task)
    # 2 is reachable from 0 but on no walk to the goal, so x1 does not
    # depend on d, the writer of x2: the rows of x2's facts are empty. From
    # 2 the goal is out of reach, and x1 = 2 is a precondition of d, which
    # still moves x2 off 0
    assert table == (0, 0, 1 << 3, 0, 0)
    assert pdg_of(task, task.initial, table) == frozenset()
    assert pdg_of(task, State((2, 0)), table) == {(0, 1)}


def test_potential_masks_v0_edges(build):
    # a sets x1 = 1 without reading x1 (a V0 edge), and needs x2 = 0
    task = build(
        domains=[2, 2],
        actions=[("a", [(1, 0)], [(0, 1)])],
        initial=[0, 0],
        goal=[(0, 1)],
    )
    table = potential_masks(task)
    # a leaves both values of x1, so it stays relevant at the goal value
    # and x1 keeps depending on x2 = 0 there; a, moving x1 off either
    # value, needs x2 = 0 too
    assert table == (1 << 2, 1 << 2, 0b11, 0)
    for values in [(0, 0), (1, 0)]:
        assert pdg_of(task, State(values), table) == {(0, 1), (1, 0)}


def _pdg_scan_oracle(task, state, dtgs):
    """Direct quantifier transcription of the three PDG rules."""
    n = task.num_variables
    goal_of = {v: g for v, g in task.goal}
    edges = set()
    desc_e, desc_v = {}, {}
    for j in range(n):
        desc_e[j], desc_v[j] = potential_descendants(dtgs[j], state[j], goal_of.get(j))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # potential precondition of G_j
            for e in desc_e[j]:
                for o in e.actions:
                    if (i, state[i]) in task.actions[o].precondition.entries:
                        edges.add((i, j))
            # potential dependent of G_j, plus co-movement
            for e in dtgs[i].edges:
                if e.source not in (state[i], V0):
                    continue
                for o in e.actions:
                    act = task.actions[o]
                    for w in desc_v[j]:
                        if (j, w) in act.precondition.entries:
                            edges.add((i, j))
                    if j in act.effect.variables:
                        edges.add((i, j))
    return frozenset(edges)


def _dtgs(task):
    return [build_dtg(task, v) for v in range(task.num_variables)]


def test_pdg_two_switches(two_switches):
    table = potential_masks(two_switches)
    initial = two_switches.index.fact_set(two_switches.initial)
    assert build_pdg(initial, table) == (0, 0)


def test_pdg_enable_chain(enable_chain):
    state = State((0, 0, 2))
    pdg = pdg_of(enable_chain, state, potential_masks(enable_chain))
    golden = frozenset({(0, 1), (1, 0), (2, 1)})  # frozen from the scan oracle
    assert _pdg_scan_oracle(enable_chain, state, _dtgs(enable_chain)) == golden
    assert pdg == golden


def test_pdg_single_variable_actions(build):
    # every action touches exactly one variable with own-variable
    # preconditions only: the PDG is empty at every state
    task = build(
        domains=[2, 3],
        actions=[("p", [(0, 0)], [(0, 1)]), ("q", [(1, 0)], [(1, 2)])],
        initial=[0, 0],
        goal=[(0, 1), (1, 2)],
    )
    table = potential_masks(task)
    for values in [(0, 0), (1, 0), (0, 2), (1, 2)]:
        assert build_pdg(task.index.fact_set(State(values)), table) == (0, 0)


@lru_cache(maxsize=1)
def pdg_cases():
    """Every enumerated state of the unit and random-cost task streams and
    of the fixtures."""
    cases = [(t, g.states) for _, t, g in default_task_stream(PDG_TASKS)]
    cases += [(t, g.states) for _, t, g in default_task_stream(PDG_TASKS, cost_mode="random")]
    for path in sorted(FIXTURES.glob("*.sas")):
        task = parse_sas(path.read_text())
        cases.append((task, enumerate_state_space(task).states))
    return cases


def test_pdg_matches_scan_oracle_random():
    checked = 0
    for task, states in pdg_cases():
        table, dtgs = potential_masks(task), _dtgs(task)
        for values in states:
            state = State(values)
            assert pdg_of(task, state, table) == _pdg_scan_oracle(task, state, dtgs)
            checked += 1
    assert checked > 1000


# The PDG and condensation as they were built before the successor table:
# two action masks per fact, one mask test per variable pair, and a heap
# over the whole condensation.


def reference_masks(task):
    """Per fact (j, v): relevant, the writers of j on a transition that lies
    on a walk from v to j's goal value (any walk when j has none), and
    dependent, the writers of j plus the consumers of every value such a
    walk visits."""
    index = task.index
    relevant, dependent = [], []
    for j, goal in enumerate(map(task.goal.value_of, range(task.num_variables))):
        facts = range(index.offsets[j], index.offsets[j + 1])
        values = range(len(facts))
        leaving = [index.writer_masks[j] & index.compatible[f] for f in facts]
        successors = [
            [w for w in values if leave & index.achiever_masks[facts[w]]] for leave in leaving
        ]
        reach = []
        for v in values:
            seen = [v]
            for u in seen:
                seen += [w for w in successors[u] if w not in seen]
            reach.append(set(seen))
        onward = {u for u in values if goal is None or goal in reach[u]}
        into = reduce(or_, (index.achiever_masks[facts[w]] for w in onward), 0)
        for v in values:
            relevant.append(into & reduce(or_, (leaving[u] for u in reach[v])))
            visited = (index.consumer_masks[facts[w]] for w in reach[v] & onward)
            dependent.append(reduce(or_, visited, index.writer_masks[j]))
    return relevant, dependent


def reference_pdg(task, state, masks):
    relevant, dependent = masks
    index = task.index
    held = list(map(add, index.offsets, state))
    needs = [index.consumer_masks[f] for f in held]
    moves = [index.writer_masks[i] & index.compatible[f] for i, f in enumerate(held)]
    return frozenset(
        (i, j)
        for j, f in enumerate(held)
        for i, (need, move) in enumerate(zip(needs, moves))
        if i != j and (relevant[f] & need or dependent[f] & move)
    )


def reference_order(num_nodes, edges):
    """SCCs sinks first; among ready components the one holding the
    smallest node first."""
    succ = defaultdict(set)
    for u, w in edges:
        succ[u].add(w)
    reach = []
    for v in range(num_nodes):
        seen = [v]
        for u in seen:
            seen += [w for w in succ[u] if w not in seen]
        reach.append(set(seen))
    sccs = sorted({tuple(w for w in sorted(reach[v]) if v in reach[w]) for v in range(num_nodes)})
    scc_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    pred = [set() for _ in sccs]
    remaining = [0] * len(sccs)
    for u, w in edges:
        su, sw = scc_of[u], scc_of[w]
        if su != sw and su not in pred[sw]:
            pred[sw].add(su)
            remaining[su] += 1
    ready = [(comp[0], i) for i, comp in enumerate(sccs) if remaining[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(list(sccs[i]))
        for p in pred[i]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(ready, (sccs[p][0], p))
    return order


def reference_ec(task, state, masks):
    unachieved = {v for v, g in task.goal if state[v] != g}
    writers = 0
    for component in reference_order(task.num_variables, reference_pdg(task, state, masks)):
        for v in component:
            writers |= task.index.writer_masks[v]
        if unachieved.intersection(component):
            break
    return ids(task.index.applicable_mask(task.index.fact_set(state)) & writers)


def test_pdg_and_ec_match_reference():
    checked = 0
    for task, states in pdg_cases():
        table, masks = potential_masks(task), reference_masks(task)
        ec = make_bare_strategy(task, "ec")
        for values in states:
            state = State(values)
            assert pdg_of(task, state, table) == reference_pdg(task, state, masks)
            if not task.goal.holds_in(state):
                facts = task.index.fact_set(state)
                assert ec.expansion(ExpansionContext(facts)) == reference_ec(task, state, masks)
                checked += 1
    assert checked > 1000


def test_ec_prefix_tie_break_and_chain(build):
    # PDG x1 -> x3 with x2 unachieved: the prefix is [x2] alone, so EC
    # keeps b; the emission order [x3], [x1], [x2] would add u
    task = build(
        domains=[2, 2, 2],
        actions=[("t", [(2, 1)], [(0, 1)]), ("b", [], [(1, 1)]), ("u", [], [(2, 1)])],
        initial=[0, 0, 0],
        goal=[(1, 1)],
    )
    table = potential_masks(task)
    assert pdg_of(task, task.initial, table) == {(0, 2)}
    ctx = ExpansionContext(task.index.fact_set(task.initial))
    assert make_bare_strategy(task, "ec").expansion(ctx) == (1,)
    # t_k needs x(k+2) = 1 to set x(k+1): at the all-zero state the PDG is
    # the chain x1 -> x2 -> x3 -> x4 and the prefix reaches x1 last
    chain = build(
        domains=[2] * 4,
        actions=[(f"t{k}", [(k + 1, 1)], [(k, 1)]) for k in range(3)] + [("t3", [], [(3, 1)])],
        initial=[0] * 4,
        goal=[(0, 1)],
    )
    table = potential_masks(chain)
    assert pdg_of(chain, chain.initial, table) == {(0, 1), (1, 2), (2, 3)}
    ctx = ExpansionContext(chain.index.fact_set(chain.initial))
    assert make_bare_strategy(chain, "ec").expansion(ctx) == (3,)
    for task in (task, chain):
        masks = reference_masks(task)
        ctx = ExpansionContext(task.index.fact_set(task.initial))
        assert make_bare_strategy(task, "ec").expansion(ctx) == reference_ec(
            task, task.initial, masks
        )


def test_dot_emission(two_switches):
    dot = dtg_to_dot(two_switches, build_dtg(two_switches, 0))
    assert '"v0" [shape=diamond]' in dot and '0 [label="x1=0"]' in dot
    assert '0 -> 1 [label="a"]' in dot
    names = [v.name for v in two_switches.variables]
    cg_dot = graph_to_dot("causal_graph", names, build_causal_graph(two_switches))
    assert '"x1"' in cg_dot and "->" not in cg_dot.split("\n", 1)[1].replace("digraph", "")
