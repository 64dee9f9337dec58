"""Forward-search guidance: blind, goal count, and delete-relaxation costs.

Every evaluator takes a state as its fact set F (ActionIndex.fact_set).
The relaxation heuristics run Dijkstra passes over (variable, value)
facts: a fact costs 0 when held in the evaluated state, otherwise the
cheapest achiever's cost plus the combined cost of its precondition
facts. Combining with max gives the admissible bound, combining with sum
the additive estimate. The result is infinity exactly when some goal fact
is unreachable in the relaxation. Zero-cost actions are fine: fact costs
are non-negative and monotone, so a pass terminates, and a popped fact's
cost is final, as every value pushed after it is at least its cost.

A fact's relaxed cost depends only on the state's values of its
variable's causal-graph ancestors, the variables from which it can be
reached along "an action reads u and writes w" arcs. The goal variables'
ancestors split into components, the strongly connected sets of that
graph, and each component's own facts cost what a pass over them and the
actions writing them gives, seeded with the held facts there and its
parents' costs. So the relaxation evaluators memoise each component's
fact costs on F & key, key the facts of its ancestors, itself included;
a second memo keeps each component's actions' starting values, their
costs plus the combined costs of their preconditions in the parents, on
F & the facts of its proper ancestors. A call walks the components
holding goal facts: one whose goal facts F holds costs 0, the others
read or compute their fact costs and combine their goal facts' costs,
so a call that finds every such component memoised never enters a pass.
A component whose key covers every fact gets no memo, as its key is the
whole state, which a search rarely evaluates twice; its pass stops once
the call's unheld goal facts in it are popped.

Evaluators hold immutable per-task indexes. The relaxation evaluators
also hold the memos and, from their first call, the components' tables.
Each memo entry is a pure function of its key, and the tables of the
task; each is published by a single assignment, so a call's value
depends only on the state, and threads can share an evaluator.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
from operator import or_
from typing import Callable

from .graphs import closure_prefix_order
from .model import Task, ids

INFINITY = math.inf


class DeleteRelaxationHeuristic:
    """Fact-cost fixpoint evaluator; combine is "max" or "add"."""

    def __init__(self, task: Task, combine: str) -> None:
        if combine not in ("max", "add"):
            raise ValueError(f"unknown combiner {combine!r}")
        self.add = combine == "add"
        self.index = task.index
        self.costs = [action.cost for action in task.actions]
        # _build_components' result, from the first call
        self.components: tuple[list[tuple], list[tuple]] | None = None

    def __call__(self, facts: int) -> float:
        components, goals = self.components or self._build_components()
        additive = self.add
        value = 0
        for c, memo, key, wanted, goal_facts in goals:
            if facts & wanted == wanted:
                continue  # held goal facts cost 0
            dist = None if memo is None else memo.get(facts & key)
            if dist is None:
                dist = self._costs(facts, components, c, wanted & ~facts)
            for f in goal_facts:
                if additive:
                    value += dist[f]
                elif dist[f] > value:
                    value = dist[f]
        # infinity when some goal fact is: either combination keeps it
        return value

    def _costs(self, facts: int, components: list, c: int, goals: int = 0) -> list:
        """Fact costs from a pass over component c. With a memo the pass
        runs to exhaustion, so each own fact's cost is final, and the result
        is memoised on F & key; without one it stops once each fact of
        goals is popped, and runs to exhaustion when goals is 0. Each
        action starts at its cost plus the combined cost of its
        preconditions in the parents, kept in the start memo."""
        memo, key, start, own, variables, inputs, rows, consumers, count = components[c]
        if memo is not None:
            dist = memo.get(facts & key)
            if dist is not None:
                return dist
        pending = set() if memo is not None else set(ids(goals))
        additive = self.add
        got = start.get(facts & (key ^ own))
        if got is None:
            acc = [cost for _, cost, _ in rows] if additive else [0] * len(rows)
            for p, pairs in inputs:
                known = self._costs(facts, components, p)
                for g, readers in pairs:
                    value = known[g]
                    for a in readers:
                        if additive:
                            acc[a] += value
                        elif value > acc[a]:
                            acc[a] = value
            # the actions without an own precondition fire at once
            free = [(a, cost, effs) for a, cost, effs in rows if not count[a]]
            seeds = [(acc[a] if additive else acc[a] + cost, effs) for a, cost, effs in free]
            got = start[facts & (key ^ own)] = acc, seeds
        acc, seeds = got

        dist = [INFINITY] * len(consumers)
        # each own variable's held fact, at 0: ascending, so already a heap
        heap = [(0, (facts & mask).bit_length() - 1) for mask in variables]
        for _, f in heap:
            dist[f] = 0
        pop, push = heapq.heappop, heapq.heappush
        for value, effs in seeds:
            for f in effs:
                if value < dist[f]:
                    dist[f] = value
                    push(heap, (value, f))
        remaining = count[:]
        if additive:
            acc = acc[:]  # running value + sum of finalized own pre facts
        while heap:
            d, f = pop(heap)
            if d > dist[f]:
                continue  # stale; a fact is pushed once per strictly smaller value
            if f in pending:
                pending.remove(f)
                if not pending:
                    break
            for a, cost, effs in consumers[f]:
                if remaining[a] > 1:
                    remaining[a] -= 1
                    if additive:
                        acc[a] += d
                    continue
                # own facts finalize in cost order, so d is the max own one
                value = acc[a] + d if additive else cost + (d if d > acc[a] else acc[a])
                for g in effs:
                    if value < dist[g]:
                        dist[g] = value
                        push(heap, (value, g))
        if memo is not None:
            memo[facts & key] = dist
        return dist

    def _build_components(self) -> tuple[list[tuple], list[tuple]]:
        """The goal variables' ancestors as components, parents first, and
        the goal components. A component numbers the actions writing it
        from 0 and holds (memo, key, start, own, variables, inputs, rows,
        consumers, count): key masks its ancestors' facts, memo is None
        when that is every fact, own and variables mask its own facts;
        inputs is [(parent, [(fact, readers)])]; rows[a] is (a, cost, own
        effect facts), consumers[f] the rows of f's readers, and count[a]
        a's number of own preconditions. A goal component is (component,
        memo, key, goal fact mask, goal fact ids)."""
        index = self.index
        own_facts, writers, readers = index.variable_facts, index.writer_masks, index.reader_masks
        # arcs v -> u, u read by an action writing v: sinks first is parents first
        parents = [sum(1 << u for u, r in enumerate(readers) if r & w) for w in writers]
        nodes = new = sum(1 << v for v, mask in enumerate(own_facts) if mask & index.goal_bits)
        while new:
            new = reduce(or_, map(parents.__getitem__, ids(new))) & ~nodes
            nodes |= new
        every = (1 << index.offsets[-1]) - 1
        owner: dict[int, int] = {}  # variable -> its component
        components: list[tuple] = []
        for c, members in enumerate(closure_prefix_order(parents, nodes)):
            variables = [own_facts[v] for v in ids(members)]
            own = sum(variables)
            consumers: list[tuple] = [()] * index.offsets[-1]
            rows, count = [], []
            inputs: dict[int, dict[int, list[int]]] = {}  # parent -> its fact -> readers
            for i, a in enumerate(ids(reduce(or_, [writers[v] for v in ids(members)], 0))):
                rows.append((i, self.costs[a], [f for f in index.eff_facts[a] if own >> f & 1]))
                count.append(0)
                for f in index.pre_facts[a]:
                    if own >> f & 1:
                        consumers[f] += (rows[i],)
                        count[i] += 1
                    else:
                        inputs.setdefault(owner[index.var_of[f]], {}).setdefault(f, []).append(i)
            key = reduce(or_, [components[p][1] for p in inputs], own)
            memo = None if key == every else {}
            pairs = [(p, [*facts.items()]) for p, facts in inputs.items()]
            components.append((memo, key, {}, own, variables, pairs, rows, consumers, count))
            owner.update(dict.fromkeys(ids(members), c))
        goals = []
        for c, (memo, key, _, own, *_) in enumerate(components):
            wanted = own & index.goal_bits
            if wanted:
                goals.append((c, memo, key, wanted, ids(wanted)))
        built = self.components = components, goals
        return built


class Blind:
    """0 on goal states, else the cheapest action cost: every plan from a
    non-goal state takes at least one action, so the value is admissible,
    and it is 0 when some action is free."""

    def __init__(self, task: Task) -> None:
        self.goal_bits = task.index.goal_bits
        self.step = min((a.cost for a in task.actions), default=0)

    def __call__(self, facts: int) -> float:
        return 0 if facts & self.goal_bits == self.goal_bits else self.step


class GoalCount:
    """Number of violated goal entries."""

    def __init__(self, task: Task) -> None:
        self.goal_bits = task.index.goal_bits

    def __call__(self, facts: int) -> float:
        return (self.goal_bits & ~facts).bit_count()


class Zero:
    """Constant 0; turns best-first search into uniform-cost order."""

    def __init__(self, task: Task) -> None:
        pass

    def __call__(self, facts: int) -> float:
        return 0


_HEURISTICS: dict[str, Callable[[Task], Callable[[int], float]]] = {
    "blind": Blind,
    "goalcount": GoalCount,
    "hmax": lambda task: DeleteRelaxationHeuristic(task, "max"),
    "hadd": lambda task: DeleteRelaxationHeuristic(task, "add"),
    "zero": Zero,
}
HEURISTICS = tuple(_HEURISTICS)


def make_heuristic(task: Task, name: str) -> Callable[[int], float]:
    """The heuristic of the given name, one of HEURISTICS, bound to the task;
    call it on a state's fact set, task.index.fact_set(values)."""
    try:
        make = _HEURISTICS[name]
    except KeyError:
        raise ValueError(f"unknown heuristic {name!r}") from None
    return make(task)
