"""Forward-search guidance: blind, goal count, and delete-relaxation costs.

Every evaluator takes a state as its fact set F (ActionIndex.fact_set).
The relaxation heuristics run a Dijkstra pass over (variable, value)
facts: a fact costs 0 when held in the evaluated state, otherwise the
cheapest achiever's cost plus the combined cost of its precondition
facts. Combining with max gives the admissible bound, combining with sum
the additive estimate. The result is infinity exactly when some goal fact
is unreachable in the relaxation. Zero-cost actions are fine: fact costs
are non-negative and monotone, so the pass terminates.

A fact's relaxed cost depends only on the state's values of its
variable's causal-graph ancestors, the variables from which it can be
reached along "an action reads u and writes w" arcs: every achiever of
an ancestor's fact reads only ancestors. So the relaxation evaluators
memoise each goal fact's cost on F & the facts of its variable's
ancestors, the variable included. A call looks each goal entry up once
and combines the values as it goes; one that finds every entry memoised
never enters the pass. A miss runs the pass for the missing entries
only, on the relaxed sub-task inside the union of their ancestors'
facts: it seeds the state's facts there and the precondition-free
actions' effects there, walks only the actions whose preconditions lie
there (the others can never fire), and stops as soon as each missing
goal fact is popped, since a popped fact's cost is final. When some goal
variable has every variable as an ancestor, nothing could hit, and the
evaluator builds no memo; every call then runs the pass for all goal
entries over all facts, with the same stop.

Evaluators hold immutable per-task indexes. The relaxation evaluators
also hold those per-goal-fact memos and, per fact mask a pass has run
on, its tables: starting costs, consumer lists and seeds cut to the
mask. Each entry of either is a pure function of its key, so a call's
value depends only on the state, and threads can share an evaluator.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
from operator import or_
from typing import Callable, Sequence

from .model import Task, ids

INFINITY = math.inf


class DeleteRelaxationHeuristic:
    """Fact-cost fixpoint evaluator; combine is "max" or "add"."""

    def __init__(self, task: Task, combine: str) -> None:
        if combine not in ("max", "add"):
            raise ValueError(f"unknown combiner {combine!r}")
        self.add = combine == "add"
        index = self.index = task.index
        self.costs = [action.cost for action in task.actions]
        self.goal_facts = [index.offsets[v] + val for v, val in task.goal]
        # the effect facts of the actions without a precondition, at their
        # cost; the membership test skips the scan when there are none
        self.seeds = []
        if 0 in index.pre_count:
            self.seeds = [
                (self.costs[a], f)
                for a, n in enumerate(index.pre_count)
                if n == 0
                for f in index.eff_facts[a]
            ]
        # per goal entry, its memo and its ancestor fact mask; None without a memo
        projections = _goal_projections(task)
        self.entries = None if projections is None else [({}, mask) for mask in projections]
        # the memo-less pass's mask; per mask, the pass's starting costs,
        # consumers and seeds
        self.all_facts = (1 << index.offsets[-1]) - 1
        self.tables: dict[int, tuple[list, list, list]] = {}

    def __call__(self, facts: int) -> float:
        entries = self.entries
        if entries is None:
            values = self._goal_costs(facts, range(len(self.goal_facts)), self.all_facts)
        else:
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
                values = [memo.get(facts & mask) for memo, mask in entries]
                # empty when another thread memoised them after the failed lookup
                missing = [i for i, value in enumerate(values) if value is None]
                if missing:
                    mask = reduce(or_, [entries[i][1] for i in missing])
                    for i, value in zip(missing, self._goal_costs(facts, missing, mask)):
                        memo, projection = entries[i]
                        values[i] = memo[facts & projection] = value
        # infinity when some entry is: either combination keeps it
        return sum(values) if self.add else max(values, default=0)

    def _goal_costs(self, facts: int, missing: Sequence[int], mask: int) -> list[float]:
        """The relaxed costs of the goal entries missing names, in its order.

        A Dijkstra pass over the facts in mask, which must hold the facts of
        those entries' variables' ancestors: an achiever of such a fact reads
        only such facts, so the pass runs on the mask's own actions and
        never pushes a fact outside it. The pass stops once every missing
        entry's goal fact is popped; a popped fact is final, as every value
        pushed after it, zero costs included, is at least its cost.
        """
        index, goal_facts = self.index, self.goal_facts
        tables = self.tables.get(mask)
        if tables is None:
            # infinity inside the mask and 0 outside, where no pushed value is
            # smaller; the consumers and seeds inside it, as an action reading
            # a fact outside never fires and a seed outside lowers no cost
            template = [0] * index.offsets[-1]
            for f in ids(mask):
                template[f] = INFINITY
            inside = [not bits & ~mask for bits in index.pre_bits]
            consumers = [[a for a in c if inside[a]] for c in index.consumers]
            seeds = [(value, f) for value, f in self.seeds if mask >> f & 1]
            tables = self.tables[mask] = (template, consumers, seeds)
        template, consumers, seeds = tables
        dist = template[:]
        # every held fact costs 0, so the ascending ids already form a heap
        heap = [(0, f) for f in ids(facts & mask)]
        for _, f in heap:
            dist[f] = 0
        pending = {goal_facts[i] for i in missing}

        remaining = list(index.pre_count)
        additive = self.add
        if additive:
            acc = list(self.costs)  # running cost + sum of finalized pre facts
        eff_facts, costs = index.eff_facts, self.costs
        pop, push = heapq.heappop, heapq.heappush

        for value, f in seeds:
            if value < dist[f]:
                dist[f] = value
                push(heap, (value, f))
        while heap:
            d, f = pop(heap)
            if d > dist[f]:
                continue  # stale; a fact is pushed once per strictly smaller value
            if f in pending:
                pending.remove(f)
                if not pending:
                    break
            for a in consumers[f]:
                remaining[a] -= 1
                if additive:
                    acc[a] += d
                if remaining[a] == 0:
                    # the action's cost plus its combined precondition cost;
                    # facts finalize in cost order, so d is the max one
                    value = acc[a] if additive else costs[a] + d
                    for g in eff_facts[a]:
                        if value < dist[g]:
                            dist[g] = value
                            push(heap, (value, g))

        return [dist[goal_facts[i]] for i in missing]


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
