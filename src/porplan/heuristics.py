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
graph. So the relaxation evaluators memoise each goal entry's cost on
F & the facts of its variable's ancestors, and each parent component's
fact costs on F & the facts of its ancestors, itself included. A call
looks each goal entry up once and combines the values as it goes; one
that finds every entry memoised never enters a pass. A missed entry costs
0 when F holds its goal fact; the others run one pass per component
holding their goal facts, over its own facts and the actions writing it,
seeded with its held facts and its parents' memoised costs, and stopped
once those goal facts are popped; a third memo keeps each component's
actions' starting values, their costs plus the combined costs of their
preconditions in the parents, on F & the facts of its proper ancestors.
When some goal variable has every variable as an ancestor, nothing could
hit and no goal entry is memoised: all variables form one component,
whose pass runs on every call.

Evaluators hold immutable per-task indexes. The relaxation evaluators
also hold the memos and, from the first call that misses, the
components' tables. Each memo entry is a pure function of its key, and
the tables of the task; each is published by a single assignment, so a
call's value depends only on the state, and threads can share an
evaluator.
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
        self.goal_facts = [task.index.offsets[v] + val for v, val in task.goal]
        # per goal entry, its memo and its ancestor fact mask; None without a memo
        projections = _goal_projections(task)
        self.entries = None if projections is None else [({}, mask) for mask in projections]
        # _build_components' result, from the first call that misses
        self.components: tuple[list[tuple], list[int]] | None = None

    def __call__(self, facts: int) -> float:
        entries = self.entries
        if entries is not None:
            # one lookup per goal entry, combined as it goes; a miss raises
            value = 0
            try:
                if self.add:
                    for memo, mask in entries:
                        value += memo[facts & mask]
                else:
                    for memo, mask in entries:
                        entry = memo[facts & mask]
                        if entry > value:
                            value = entry
                return value
            except KeyError:
                pass
        components, goal_at = self.components or self._build_components()
        goal_facts = self.goal_facts
        values = [None] * len(goal_facts)
        if entries is not None:
            # all set when another thread memoised them after the failed lookup
            values = [memo.get(facts & mask) for memo, mask in entries]
        pending: dict[int, set[int]] = {}  # per component, its unheld missing goal facts
        for i, value in enumerate(values):
            if value is None and not facts >> goal_facts[i] & 1:
                pending.setdefault(goal_at[i], set()).add(goal_facts[i])
        dist = {c: self._costs(facts, components, c, goals) for c, goals in pending.items()}
        for i, value in enumerate(values):
            if value is None:
                # a held goal fact costs 0, also in a pass that ran
                value = values[i] = dist[goal_at[i]][goal_facts[i]] if goal_at[i] in dist else 0
                if entries is not None:
                    memo, mask = entries[i]
                    memo[facts & mask] = value
        # infinity when some entry is: either combination keeps it
        return sum(values) if self.add else max(values, default=0)

    def _costs(self, facts: int, components: list, c: int, pending: set | None = None) -> list:
        """Fact costs from a pass over component c, final on its own facts, that
        stops once each fact in pending is popped; a parent's pops them all
        into its memo. Each action starts at its cost plus the combined cost
        of its preconditions in the parents, kept in the start memo."""
        memo, key, start, own, variables, inputs, rows, consumers, count = components[c]
        if memo is not None:
            dist = memo.get(facts & key)
            if dist is not None:
                return dist
            pending = set(ids(own))
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

    def _build_components(self) -> tuple[list[tuple], list[int]]:
        """The goal variables' ancestors as components, parents first (all
        variables as one without a memo), and each goal entry's component.
        A component numbers the actions writing it from 0 and holds (memo,
        key, start, own, variables, inputs, rows, consumers, count): memo is
        None unless it is a parent; key masks its ancestors' facts, own and
        variables its own facts; inputs is [(parent, [(fact, readers)])];
        rows[a] is (a, cost, own effect facts), consumers[f] the rows of
        f's readers, and count[a] a's number of own preconditions."""
        index = self.index
        own_facts, writers, readers = index.variable_facts, index.writer_masks, index.reader_masks
        if self.entries is None:
            order = [(1 << len(own_facts)) - 1]
        else:
            # arcs v -> u, u read by an action writing v: sinks first is parents first
            parents = [sum(1 << u for u, r in enumerate(readers) if r & w) for w in writers]
            ancestors = reduce(or_, [mask for _, mask in self.entries], 0)
            nodes = sum(1 << v for v, mask in enumerate(own_facts) if mask & ancestors)
            order = closure_prefix_order(parents, nodes)
        owner: dict[int, int] = {}  # variable -> its component
        components: list[list] = []
        for c, members in enumerate(order):
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
            for p in inputs:
                components[p][0] = {}
            key = reduce(or_, [components[p][1] for p in inputs], own)
            pairs = [(p, [*facts.items()]) for p, facts in inputs.items()]
            components.append([None, key, {}, own, variables, pairs, rows, consumers, count])
            owner.update(dict.fromkeys(ids(members), c))
        goal_at = [owner[index.var_of[f]] for f in self.goal_facts]
        built = self.components = [tuple(component) for component in components], goal_at
        return built


def _goal_projections(task: Task) -> list[int] | None:
    """Per goal entry, the mask of the facts of its variable's causal-graph
    ancestors, the variable included; None when some goal variable has
    every variable as an ancestor."""
    reads, writes = task.index.reader_masks, task.index.writer_masks
    n = len(writes)
    projections = []
    for v, _ in task.goal:
        # sweep the variables until none is added: u is an ancestor when
        # some action writing an ancestor reads it
        members, writers, added = [v], writes[v], True
        while added:
            added = False
            for u, readers in enumerate(reads):
                if readers & writers and u not in members:
                    members.append(u)
                    writers |= writes[u]
                    added = True
        if len(members) == n:
            return None
        projections.append(sum(map(task.index.variable_facts.__getitem__, members)))
    return projections


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
