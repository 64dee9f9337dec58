"""State-space search: one best-first engine, three open-list orders.

A*, greedy best-first and breadth-first search share one loop and
differ only in the priority prefix of their heap entries (_PRIORITY): A*
orders by (f, -g), greedy by h, and BFS by nothing, so the insertion
counter that follows the prefix alone orders it (FIFO) and BFS runs
with the zero heuristic. One call per pushed node builds its whole
entry, prefix then (counter, key, g). The engine tests the goal when a
node is popped, never at generation, and counts one expansion per pop
(the final goal pop included) and one generation per action in each
expansion set, duplicates included. A node's identity is its fact set
F, an int with bit f for each fact f (see ActionIndex) its state holds:
the successor under action a is F & keep[a] | adds[a], read from a row
(pre_bits[a], keep[a], adds[a], cost) built once per search; an id
outside the task's actions, or an action with F & pre_bits[a] !=
pre_bits[a], raises NotApplicable; and the goal test is F & goal_bits ==
goal_bits. F is also the duplicate-detection key: a record is (g,
parent F, generating action), keyed by F. A stored node is only
rewritten when a strictly smaller g arrives, in which case it is
reopened. Under BFS's unit costs nodes pop in g order, so nothing is
ever reopened and the first record of every state wins. F is the only
state form the engine holds: the heuristic and the strategy
(ExpansionContext.state) receive it too.

A single search run is single-threaded; concurrent runs may share a task.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from .heuristics import INFINITY, Zero, make_heuristic
from .model import NotApplicable, Plan, Task, plan_cost
from .strategies import ExpansionContext, ExpansionStrategy, make_strategy

# heap entry per search, from a node's (g, h, insertion counter, F):
# the search's ordering prefix, then (counter, F, g)
_PRIORITY: dict[str, Callable[[float, float, int, int], tuple]] = {
    "astar": lambda g, h, n, facts: (g + h, -g, n, facts, g),
    "gbfs": lambda g, h, n, facts: (h, n, facts, g),
    "bfs": lambda g, h, n, facts: (n, facts, g),
}
SEARCHES = tuple(_PRIORITY)
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


def _extract_plan(task: Task, records: dict, facts: int) -> Plan:
    steps: list[int] = []
    while True:
        _, parent, gen_action = records[facts]
        if gen_action is None:
            break
        steps.append(gen_action)
        facts = parent
    steps.reverse()
    return Plan(tuple(steps), plan_cost(task, steps))


def _best_first(
    task: Task,
    strategy: ExpansionStrategy,
    entry: Callable[[float, float, int, int], tuple],
    heuristic: Callable[[int], float],
    limits: Limits | None,
) -> SearchResult:
    """The engine behind astar, gbfs and bfs.

    entry(g, h, n, F) builds a node's whole heap entry, its priority
    prefix followed by (n, F, g); the running counter n breaks remaining
    ties FIFO. Limits are checked before every pop: nodes, then time,
    then memory. The action rows are keyed by id, so a miss is an id
    outside the task.
    """
    limits = limits or Limits()
    start = time.perf_counter()
    index = task.index
    goal_bits = index.goal_bits
    rows = dict(enumerate(zip(index.pre_bits, index.keep, index.adds,
                              [action.cost for action in task.actions])))
    heappush, heappop = heapq.heappush, heapq.heappop
    expanded = generated = 0
    counter = itertools.count()
    root = index.fact_set(task.initial)
    # F -> (g, parent F, generating_action)
    records: dict = {root: (0, None, None)}
    h0 = heuristic(root)
    open_heap: list = []
    if h0 != INFINITY:
        open_heap = [entry(0, h0, next(counter), root)]
    peak_open = 0

    def result(outcome: str, plan: Plan | None = None, limit_kind: str | None = None):
        return SearchResult(
            outcome=outcome,
            plan=plan,
            expanded=expanded,
            generated=generated,
            wall_time=time.perf_counter() - start,
            peak_open_size=peak_open,
            limit_kind=limit_kind,
        )

    while open_heap:
        # the heap only grows between pops, so its peak is seen here
        if len(open_heap) > peak_open:
            peak_open = len(open_heap)
        if limits.max_expanded is not None and expanded >= limits.max_expanded:
            return result(RESOURCE_LIMIT, limit_kind="nodes")
        if limits.max_time is not None and time.perf_counter() - start > limits.max_time:
            return result(RESOURCE_LIMIT, limit_kind="time")
        if limits.max_open is not None and len(open_heap) > limits.max_open:
            return result(RESOURCE_LIMIT, limit_kind="memory")
        popped = heappop(open_heap)
        facts = popped[-2]
        g, _, gen_action = records[facts]
        if popped[-1] > g:
            continue  # stale: the state was pushed again with a smaller g
        expanded += 1
        if facts & goal_bits == goal_bits:
            return result(SOLVED, _extract_plan(task, records, facts))
        chosen = strategy.expansion(ExpansionContext(facts, gen_action))
        generated += len(chosen)
        for action_id in chosen:
            try:
                pre, keep, adds, cost = rows[action_id]
            except KeyError:
                raise NotApplicable(f"action id {action_id!r} is out of range") from None
            if facts & pre != pre:
                raise NotApplicable(f"action {task.actions[action_id].name!r} is not applicable")
            succ_facts = facts & keep | adds
            g2 = g + cost
            known = records.get(succ_facts)
            if known is not None and g2 >= known[0]:
                continue  # first-in wins unless strictly cheaper
            h = heuristic(succ_facts)
            records[succ_facts] = (g2, facts, action_id)
            if h == INFINITY:
                continue  # dead in the relaxation; keep g for reopen checks
            heappush(open_heap, entry(g2, h, next(counter), succ_facts))
    return result(UNSOLVABLE)


def astar(
    task: Task,
    heuristic: Callable[[int], float],
    strategy: ExpansionStrategy,
    limits: Limits | None = None,
) -> SearchResult:
    """A*: cost-optimal with an admissible heuristic and a reduction that
    preserves some optimal-cost plan in the reduced graph."""
    return _best_first(task, strategy, _PRIORITY["astar"], heuristic, limits)


def gbfs(
    task: Task,
    heuristic: Callable[[int], float],
    strategy: ExpansionStrategy,
    limits: Limits | None = None,
) -> SearchResult:
    """Greedy best-first: some valid plan, no optimality contract."""
    return _best_first(task, strategy, _PRIORITY["gbfs"], heuristic, limits)


def bfs(
    task: Task,
    strategy: ExpansionStrategy,
    limits: Limits | None = None,
) -> SearchResult:
    """Breadth-first: the engine in FIFO order with the zero heuristic;
    unit costs only."""
    for action in task.actions:
        if action.cost != 1:
            raise ValueError("bfs requires unit action costs")
    return _best_first(task, strategy, _PRIORITY["bfs"], Zero(task), limits)


@dataclass(frozen=True)
class SearchSpec:
    """Everything that selects one search run besides the task.

    heuristic is ignored by bfs. Frozen and picklable, so it can be
    shipped to worker processes.
    """

    search: str = "astar"  # one of SEARCHES
    heuristic: str = "hmax"
    por: str = "none"
    limits: Limits = field(default_factory=Limits)

    def __post_init__(self) -> None:
        if self.search not in SEARCHES:
            raise ValueError(f"unknown search {self.search!r}")


def solve(task: Task, spec: SearchSpec) -> SearchResult:
    """Build the strategy (and heuristic) the spec names and run its search."""
    strategy = make_strategy(task, spec.por)
    if spec.search == "bfs":
        return bfs(task, strategy, spec.limits)
    heuristic = make_heuristic(task, spec.heuristic)
    return _best_first(task, strategy, _PRIORITY[spec.search], heuristic, spec.limits)
