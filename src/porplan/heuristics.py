"""Forward-search guidance: blind, goal count, and delete-relaxation costs.

The relaxation heuristics run a Dijkstra pass over (variable, value)
facts: a fact costs 0 when true in the evaluated state, otherwise the
cheapest achiever's cost plus the combined cost of its precondition
facts. Combining with max gives the admissible bound, combining with sum
the additive estimate. The result is infinity exactly when some goal fact
is unreachable in the relaxation. Zero-cost actions are fine: fact costs
are non-negative and monotone, so the pass terminates.

Evaluators hold immutable per-task indexes and are pure per call.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .model import State, Task, is_goal

INFINITY = math.inf


class DeleteRelaxationHeuristic:
    """Fact-cost fixpoint evaluator; combine is "max" or "add"."""

    def __init__(self, task: Task, combine: str) -> None:
        if combine not in ("max", "add"):
            raise ValueError(f"unknown combiner {combine!r}")
        self.task = task
        self.add = combine == "add"
        self.offsets = []
        total = 0
        for var in task.variables:
            self.offsets.append(total)
            total += var.domain_size
        self.num_facts = total
        self.pre_facts: list[list[int]] = []
        self.eff_facts: list[list[int]] = []
        self.costs: list[int] = []
        self.waiters: list[list[int]] = [[] for _ in range(total)]
        for action in task.actions:
            pre = [self.offsets[v] + val for v, val in action.precondition]
            eff = [self.offsets[v] + val for v, val in action.effect]
            a = len(self.pre_facts)
            self.pre_facts.append(pre)
            self.eff_facts.append(eff)
            self.costs.append(action.cost)
            for f in pre:
                self.waiters[f].append(a)
        self.goal_facts = [self.offsets[v] + val for v, val in task.goal]

    def __call__(self, state: State) -> float:
        dist: list[float] = [INFINITY] * self.num_facts
        heap: list[tuple[float, int]] = []
        for var, val in enumerate(state.values):
            f = self.offsets[var] + val
            dist[f] = 0
            heap.append((0, f))
        heapq.heapify(heap)

        remaining = [len(pre) for pre in self.pre_facts]
        acc = list(self.costs)  # running cost + sum of finalized pre facts

        def trigger(a: int, pre_value: float) -> None:
            value = acc[a] if self.add else self.costs[a] + pre_value
            for f in self.eff_facts[a]:
                if value < dist[f]:
                    dist[f] = value
                    heapq.heappush(heap, (value, f))

        done = [False] * self.num_facts
        for a, count in enumerate(remaining):
            if count == 0:
                trigger(a, 0)
        while heap:
            d, f = heapq.heappop(heap)
            if done[f] or d > dist[f]:
                continue
            done[f] = True
            for a in self.waiters[f]:
                remaining[a] -= 1
                if self.add:
                    acc[a] += d
                if remaining[a] == 0:
                    # facts finalize in cost order, so d is the max pre cost
                    trigger(a, d)

        if not self.goal_facts:
            return 0
        values = [dist[f] for f in self.goal_facts]
        if any(v == INFINITY for v in values):
            return INFINITY
        return sum(values) if self.add else max(values)


class Blind:
    """0 on goal states, else the smallest positive action cost."""

    def __init__(self, task: Task) -> None:
        self.task = task
        positive = [a.cost for a in task.actions if a.cost > 0]
        self.step = min(positive) if positive else 0

    def __call__(self, state: State) -> float:
        return 0 if is_goal(self.task, state) else self.step


class GoalCount:
    """Number of violated goal entries."""

    def __init__(self, task: Task) -> None:
        self.task = task

    def __call__(self, state: State) -> float:
        return sum(1 for v, g in self.task.goal if state[v] != g)


class Zero:
    """Constant 0; turns best-first search into uniform-cost order."""

    def __init__(self, task: Task) -> None:
        pass

    def __call__(self, state: State) -> float:
        return 0


_HEURISTICS: dict[str, Callable[[Task], Callable[[State], float]]] = {
    "blind": Blind,
    "goalcount": GoalCount,
    "hmax": lambda task: DeleteRelaxationHeuristic(task, "max"),
    "hadd": lambda task: DeleteRelaxationHeuristic(task, "add"),
    "zero": Zero,
}
HEURISTICS = tuple(_HEURISTICS)


def make_heuristic(task: Task, name: str) -> Callable[[State], float]:
    """The heuristic of the given name, one of HEURISTICS, bound to the task."""
    try:
        make = _HEURISTICS[name]
    except KeyError:
        raise ValueError(f"unknown heuristic {name!r}") from None
    return make(task)
