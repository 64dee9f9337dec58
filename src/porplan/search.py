"""State-space search engines parameterized by heuristic and strategy.

All engines test the goal when a node is popped, never at generation,
and count one expansion per pop (the final goal pop included) and one
generation per successor produced, duplicates included. A* orders the
open list by (f, -g, insertion), which pins golden node counts. Duplicate
detection keys come from the strategy (SP may fold in the generating
action's level); a stored node is only rewritten when a strictly smaller
g arrives, in which case it is reopened.

A single search run is single-threaded; concurrent runs may share a task.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from .heuristics import INFINITY, make_heuristic
from .model import Plan, State, Task, apply_action, is_goal, plan_cost
from .strategies import ExpansionContext, ExpansionStrategy, StrategyConfig, make_strategy

SEARCHES = ("astar", "gbfs", "bfs")
SOLVED = "solved"
UNSOLVABLE = "unsolvable"
RESOURCE_LIMIT = "resource_limit"


@dataclass(frozen=True)
class Limits:
    max_expanded: int | None = None
    max_time: float | None = None  # seconds
    max_open: int | None = None


@dataclass
class SearchResult:
    outcome: str  # SOLVED | UNSOLVABLE | RESOURCE_LIMIT
    plan: Plan | None
    expanded: int
    generated: int
    wall_time: float
    peak_open_size: int
    limit_kind: str | None = None

    @property
    def solved(self) -> bool:
        return self.outcome == SOLVED


class _Run:
    """Shared counters and limit checks for one engine invocation."""

    def __init__(self, limits: Limits | None) -> None:
        self.limits = limits or Limits()
        self.expanded = 0
        self.generated = 0
        self.peak_open = 0
        self.start = time.perf_counter()

    def over_limit(self, open_size: int) -> str | None:
        lim = self.limits
        if lim.max_expanded is not None and self.expanded >= lim.max_expanded:
            return "nodes"
        if lim.max_time is not None and time.perf_counter() - self.start > lim.max_time:
            return "time"
        if lim.max_open is not None and open_size > lim.max_open:
            return "memory"
        return None

    def note_open(self, open_size: int) -> None:
        if open_size > self.peak_open:
            self.peak_open = open_size

    def result(self, outcome: str, plan: Plan | None, limit_kind: str | None = None) -> SearchResult:
        return SearchResult(
            outcome=outcome,
            plan=plan,
            expanded=self.expanded,
            generated=self.generated,
            wall_time=time.perf_counter() - self.start,
            peak_open_size=self.peak_open,
            limit_kind=limit_kind,
        )


def _extract_plan(task: Task, records: dict, key) -> Plan:
    steps: list[int] = []
    while True:
        _, parent_key, gen_action, _ = records[key]
        if gen_action is None:
            break
        steps.append(gen_action)
        key = parent_key
    steps.reverse()
    return Plan(tuple(steps), plan_cost(task, steps))


def _best_first(
    task: Task,
    strategy: ExpansionStrategy,
    priority: Callable[[float, int], tuple],
    heuristic: Callable[[State], float],
    limits: Limits | None,
) -> SearchResult:
    """Engine core shared by astar and gbfs.

    priority(g, h) maps node costs to a heap ordering prefix; a running
    counter appended to every entry breaks remaining ties FIFO.
    """
    run = _Run(limits)
    counter = itertools.count()
    root = task.initial
    root_key = strategy.node_key(root, None)
    # key -> [g, parent_key, generating_action, state]
    records: dict = {root_key: [0, None, None, root]}
    h0 = heuristic(root)
    open_heap: list = []
    if h0 != INFINITY:
        open_heap = [(*priority(0, h0), next(counter), root_key, 0)]
    run.note_open(len(open_heap))

    while open_heap:
        kind = run.over_limit(len(open_heap))
        if kind:
            return run.result(RESOURCE_LIMIT, None, kind)
        *_, key, g_pushed = heapq.heappop(open_heap)
        record = records[key]
        if g_pushed > record[0]:
            continue  # stale: the key was pushed again with a smaller g
        run.expanded += 1
        state = record[3]
        if is_goal(task, state):
            return run.result(SOLVED, _extract_plan(task, records, key))
        ctx = ExpansionContext(state, record[2])
        for action_id in strategy.expansion(ctx):
            action = task.actions[action_id]
            succ = apply_action(state, action)
            run.generated += 1
            g2 = record[0] + action.cost
            succ_key = strategy.node_key(succ, action_id)
            known = records.get(succ_key)
            if known is not None and g2 >= known[0]:
                continue  # first-in wins unless strictly cheaper
            h = heuristic(succ)
            if h == INFINITY:
                records[succ_key] = [g2, key, action_id, succ]
                continue  # dead in the relaxation; keep g for reopen checks
            records[succ_key] = [g2, key, action_id, succ]
            heapq.heappush(open_heap, (*priority(g2, h), next(counter), succ_key, g2))
            run.note_open(len(open_heap))
    return run.result(UNSOLVABLE, None)


def astar(
    task: Task,
    heuristic: Callable[[State], float],
    strategy: ExpansionStrategy,
    limits: Limits | None = None,
) -> SearchResult:
    """A*: cost-optimal with an admissible heuristic and a reduction that
    preserves some optimal-cost plan in the reduced graph."""
    return _best_first(task, strategy, lambda g, h: (g + h, -g), heuristic, limits)


def gbfs(
    task: Task,
    heuristic: Callable[[State], float],
    strategy: ExpansionStrategy,
    limits: Limits | None = None,
) -> SearchResult:
    """Greedy best-first: some valid plan, no optimality contract."""
    return _best_first(task, strategy, lambda g, h: (h,), heuristic, limits)


def bfs(
    task: Task,
    strategy: ExpansionStrategy,
    limits: Limits | None = None,
) -> SearchResult:
    """Breadth-first with duplicate detection at generation; unit costs.

    FIFO tie-breaking by insertion order gives deterministic counts.
    """
    for action in task.actions:
        if action.cost != 1:
            raise ValueError("bfs requires unit action costs")
    run = _Run(limits)
    root = task.initial
    root_key = strategy.node_key(root, None)
    records: dict = {root_key: [0, None, None, root]}
    queue: list = [root_key]
    head = 0
    run.note_open(1)
    while head < len(queue):
        kind = run.over_limit(len(queue) - head)
        if kind:
            return run.result(RESOURCE_LIMIT, None, kind)
        key = queue[head]
        head += 1
        record = records[key]
        run.expanded += 1
        state = record[3]
        if is_goal(task, state):
            return run.result(SOLVED, _extract_plan(task, records, key))
        ctx = ExpansionContext(state, record[2])
        for action_id in strategy.expansion(ctx):
            succ = apply_action(state, task.actions[action_id])
            run.generated += 1
            succ_key = strategy.node_key(succ, action_id)
            if succ_key in records:
                continue
            records[succ_key] = [record[0] + 1, key, action_id, succ]
            queue.append(succ_key)
            run.note_open(len(queue) - head)
    return run.result(UNSOLVABLE, None)


@dataclass(frozen=True)
class SearchSpec:
    """Everything that selects one search run besides the task.

    heuristic is ignored by bfs. Frozen and picklable, so it can be
    shipped to worker processes.
    """

    search: str = "astar"  # one of SEARCHES
    heuristic: str = "hmax"
    por: str = "none"
    config: StrategyConfig = field(default_factory=StrategyConfig)
    limits: Limits = field(default_factory=Limits)

    def __post_init__(self) -> None:
        if self.search not in SEARCHES:
            raise ValueError(f"unknown search {self.search!r}")


def solve(task: Task, spec: SearchSpec) -> SearchResult:
    """Build the strategy (and heuristic) the spec names and run its engine."""
    strategy = make_strategy(task, spec.por, spec.config)
    if spec.search == "bfs":
        return bfs(task, strategy, spec.limits)
    engine = astar if spec.search == "astar" else gbfs
    return engine(task, make_heuristic(task, spec.heuristic), strategy, spec.limits)
