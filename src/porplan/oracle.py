"""Brute-force verification machinery for small instances.

Turns the reduction conditions into executable checks: exhaustive state
space enumeration, optimal costs by Dijkstra, the two stubborn-set
conditions, action preservation, the SP permutation property, and the
equivalence of the syntactic left-commutativity criterion with its
semantic both-orders reading. A seeded generator supplies small random
tasks whose goals are sampled from a random walk, so solvability is by
construction.

Applicability and application are re-implemented here on raw value
tuples, deliberately on a separate code path from the model module, so a
shared bug cannot vouch for itself. Checks are pure per task; distinct
seeds may run in parallel.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .model import Action, PartialAssignment, Task, Variable
from .strategies import (
    ExpansionContext,
    ExpansionStrategy,
    is_left_commutative,
    make_bare_strategy,
)

DEFAULT_MAX_STATES = 2000
_DFS_CAP = 2_000_000  # enumeration nodes before giving up
_MAX_WITNESSES = 5  # violations a checker records before it only counts


class TooLarge(Exception):
    """The instance exceeds the exhaustive-checking budget."""


# independent action table: (precondition pairs, effect pairs, cost)
Row = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]


def _rows(task: Task) -> list[Row]:
    return [(a.precondition.entries, a.effect.entries, a.cost) for a in task.actions]


def _applies(values: tuple[int, ...], pre: tuple[tuple[int, int], ...]) -> bool:
    return all(values[v] == x for v, x in pre)


def _result(values: tuple[int, ...], eff: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    out = list(values)
    for v, x in eff:
        out[v] = x
    return tuple(out)


def _walk(
    values: tuple[int, ...], rows: Sequence[Row], steps: Iterable[int]
) -> tuple[int, ...] | None:
    """End state of the sequence, or None when some step is inapplicable."""
    for a in steps:
        pre, eff, _ = rows[a]
        if not _applies(values, pre):
            return None
        values = _result(values, eff)
    return values


@dataclass
class StateSpaceGraph:
    """Exact reachable subgraph; edge (s, s', o) iff o applies and produces s'."""

    states: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    successors: list[list[tuple[int, int]]]  # per state: (action, successor index)
    edges: list[tuple[int, int, int]]  # (from, to, action)
    initial: int
    goal_states: frozenset[int]

    def can_reach_goal(self) -> frozenset[int]:
        """Indices of states from which some goal state is reachable."""
        preds: dict[int, list[int]] = {}
        for src, dst, _ in self.edges:
            preds.setdefault(dst, []).append(src)
        reached = set(self.goal_states)
        queue = list(reached)
        while queue:
            s = queue.pop()
            for p in preds.get(s, ()):
                if p not in reached:
                    reached.add(p)
                    queue.append(p)
        return frozenset(reached)


def enumerate_state_space(
    task: Task,
    max_states: int = DEFAULT_MAX_STATES,
    root: tuple[int, ...] | None = None,
) -> StateSpaceGraph:
    """BFS over all applicable actions from the root (default: initial)."""
    rows = _rows(task)
    goal = task.goal.entries
    start = task.initial if root is None else tuple(root)
    states = [start]
    index = {start: 0}
    successors: list[list[tuple[int, int]]] = []
    edges: list[tuple[int, int, int]] = []
    frontier = deque([0])
    while frontier:
        si = frontier.popleft()
        while len(successors) <= si:
            successors.append([])
        values = states[si]
        for a, (pre, eff, _) in enumerate(rows):
            if not _applies(values, pre):
                continue
            succ = _result(values, eff)
            ti = index.get(succ)
            if ti is None:
                if len(states) >= max_states:
                    raise TooLarge(f"more than {max_states} reachable states")
                ti = len(states)
                index[succ] = ti
                states.append(succ)
                frontier.append(ti)
            successors[si].append((a, ti))
            edges.append((si, ti, a))
    while len(successors) < len(states):
        successors.append([])
    goal_states = frozenset(
        i for i, values in enumerate(states) if _applies(values, goal)
    )
    return StateSpaceGraph(states, index, successors, edges, 0, goal_states)


def brute_force_optimal_cost(
    task: Task, max_states: int = DEFAULT_MAX_STATES
) -> int | None:
    """Dijkstra over the full reachable graph; None when unsolvable."""
    graph = enumerate_state_space(task, max_states)
    rows = _rows(task)
    dist = {graph.initial: 0}
    heap = [(0, graph.initial)]
    while heap:
        d, si = heapq.heappop(heap)
        if d > dist.get(si, d):
            continue
        if si in graph.goal_states:
            return d
        for a, ti in graph.successors[si]:
            nd = d + rows[a][2]
            if nd < dist.get(ti, nd + 1):
                dist[ti] = nd
                heapq.heappush(heap, (nd, ti))
    return None


@dataclass
class Violation:
    kind: str
    state: tuple[int, ...] | None
    witness: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "state": self.state, **self.witness}


@dataclass
class Report:
    """Outcome of one checker run; empty violations means the check passed."""

    name: str
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, state: tuple[int, ...] | None, **witness) -> None:
        self.violations.append(Violation(kind, state, witness))

    def absorb(self, sub: Report, **tags) -> None:
        """Add a sub-report's checks and its violations, tagged."""
        self.checked += sub.checked
        for v in sub.violations:
            v.witness.update(tags)
            self.violations.append(v)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
            "notes": self.notes,
        }


def check_stubborn_conditions(
    task: Task,
    state: Sequence[int],
    expansion: Iterable[int],
    horizon: int,
    graph: StateSpaceGraph | None = None,
    goal_reachable: set[tuple[int, ...]] | None = None,
) -> Report:
    """Check A1 and A2 for one expansion set at one state.

    A2: no goal-reaching action sequence of length <= horizon avoids the
    set. A1: for every sequence of outside actions followed by a member b
    that extends to a goal (extendability judged exactly on the
    enumerated graph), fronting b is valid and lands in the same state.
    """
    values = tuple(state)
    rows = _rows(task)
    members = sorted(set(expansion))
    member_set = set(members)
    outside = [a for a in range(len(rows)) if a not in member_set]
    if goal_reachable is None:
        if graph is None:
            graph = enumerate_state_space(task, root=values)
        goal_reachable = {graph.states[i] for i in graph.can_reach_goal()}
    reach_goal = goal_reachable

    report = Report("stubborn_conditions")
    explored = 0
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(values, ())]
    while stack:
        current, path = stack.pop()
        explored += 1
        if explored > _DFS_CAP:
            raise TooLarge("path enumeration exceeded the budget")
        if path and _applies(current, task.goal.entries):
            if len(report.violations) < _MAX_WITNESSES:
                report.add("A2", values, path=list(path))
        if len(path) <= horizon - 1:
            for b in members:
                pre, eff, _ = rows[b]
                if not path or not _applies(current, pre):
                    continue
                tail_end = _result(current, eff)
                if tail_end not in reach_goal:
                    continue  # not a prefix of any goal path
                report.checked += 1
                fronted = _walk(values, rows, (b, *path))
                if fronted is None or fronted != tail_end:
                    if len(report.violations) < _MAX_WITNESSES:
                        report.add(
                            "A1",
                            values,
                            member=b,
                            path=list(path),
                            fronted_end=fronted,
                            original_end=tail_end,
                        )
        if len(path) < horizon:
            for o in outside:
                pre, eff, _ = rows[o]
                if _applies(current, pre):
                    stack.append((_result(current, eff), path + (o,)))
    return report


def _reduced_expansion(
    task: Task, strategy: ExpansionStrategy, values: tuple[int, ...]
) -> tuple[int, ...]:
    """Strategy expansion on raw values, as their fact set; goal states are terminal."""
    if _applies(values, task.goal.entries):
        return ()
    return strategy.expansion(ExpansionContext(task.index.fact_set(values), None))


def check_action_preserving(
    task: Task,
    strategy: ExpansionStrategy,
    horizon: int,
    strict: bool = False,
) -> Report:
    """Every full-graph solution has a same-multiset permutation that is a
    path of the reduced graph reaching the same final state.

    Solution sequences start at a non-goal state and stop at the first
    goal state reached; the reduced graph is terminal at goal states.
    Because goals are terminal, a permutation may hit a goal before
    consuming the whole multiset (front-swapping can promote the
    goal-reaching suffix); by default such a truncated witness, a reduced
    solution over a sub-multiset, is accepted. strict=True demands the
    exact multiset and final state.
    """
    rows = _rows(task)
    goal = task.goal.entries
    initial = task.initial
    report = Report("action_preserving")
    if _applies(initial, goal):
        return report  # no solution sequences from a goal state

    # collect minimal solution (multiset, end) pairs, deduplicating subtrees
    targets: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    stack = [(initial, ())]
    while stack:
        values, multiset = stack.pop()
        if len(seen) > _DFS_CAP:
            raise TooLarge("solution enumeration exceeded the budget")
        if multiset and _applies(values, goal):
            targets.setdefault((multiset, values), multiset)
            continue
        if len(multiset) < horizon:
            for a, (pre, eff, _) in enumerate(rows):
                if _applies(values, pre):
                    key = (_result(values, eff), tuple(sorted(multiset + (a,))))
                    if key not in seen:
                        seen.add(key)
                        stack.append((key[0], key[1]))
    expansions: dict[tuple[int, ...], tuple[int, ...]] = {}

    def reduced_moves(values: tuple[int, ...]) -> tuple[int, ...]:
        if values not in expansions:
            expansions[values] = _reduced_expansion(task, strategy, values)
        return expansions[values]

    for (multiset, end), _ in targets.items():
        report.checked += 1
        memo: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        found = False
        frames = [(initial, multiset)]
        while frames and not found:
            values, remaining = frames.pop()
            if _applies(values, goal):  # terminal in the reduced graph
                found = (not remaining and values == end) if strict else True
                continue
            if not remaining or (values, remaining) in memo:
                continue
            memo.add((values, remaining))
            moves = set(reduced_moves(values))
            for i, a in enumerate(remaining):
                if i > 0 and remaining[i - 1] == a:
                    continue
                if a not in moves:
                    continue
                pre, eff, _ = rows[a]
                if _applies(values, pre):
                    frames.append(
                        (_result(values, eff), remaining[:i] + remaining[i + 1 :])
                    )
        if not found and len(report.violations) < _MAX_WITNESSES:
            report.add("action_preserving", initial, multiset=list(multiset), end=end)
    return report


def _follow_up_matrix(task: Task) -> list[list[bool]]:
    """follow[a][b]: eff(a) shares an entry with pre(b) or eff(b)."""
    rows = _rows(task)
    return [
        [not set(eff).isdisjoint(pre_b + eff_b) for pre_b, eff_b, _ in rows]
        for _, eff, _ in rows
    ]


def check_sp_permutation(
    task: Task,
    horizon: int,
    tie_break: str = "canonical",
) -> Report:
    """Every valid path from the initial state has an SP-path permutation
    to the same state (consecutive pairs survive the level filter)."""
    from .graphs import stratify

    strat = stratify(task, tie_break=tie_break)
    level = strat.action_level
    follow = _follow_up_matrix(task)
    rows = _rows(task)
    initial = task.initial

    def allowed(prev: int | None, b: int) -> bool:
        return prev is None or level[b] >= level[prev] or follow[prev][b]

    # all reachable (multiset, end) pairs within the horizon
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = {(initial, ())}
    stack = [(initial, ())]
    while stack:
        values, multiset = stack.pop()
        if len(seen) > _DFS_CAP:
            raise TooLarge("path enumeration exceeded the budget")
        if len(multiset) < horizon:
            for a, (pre, eff, _) in enumerate(rows):
                if _applies(values, pre):
                    key = (_result(values, eff), tuple(sorted(multiset + (a,))))
                    if key not in seen:
                        seen.add(key)
                        stack.append(key)

    report = Report("sp_permutation")
    for end, multiset in sorted(seen):
        if not multiset:
            continue
        report.checked += 1
        memo: set[tuple[tuple[int, ...], tuple[int, ...], int | None]] = set()
        frames: list[tuple[tuple[int, ...], tuple[int, ...], int | None]] = [
            (initial, multiset, None)
        ]
        found = False
        while frames and not found:
            values, remaining, last = frames.pop()
            if not remaining:
                found = values == end
                continue
            state_key = (values, remaining, last)
            if state_key in memo:
                continue
            memo.add(state_key)
            for i, a in enumerate(remaining):
                if i > 0 and remaining[i - 1] == a:
                    continue
                if not allowed(last, a):
                    continue
                pre, eff, _ = rows[a]
                if _applies(values, pre):
                    frames.append(
                        (_result(values, eff), remaining[:i] + remaining[i + 1 :], a)
                    )
        if not found and len(report.violations) < _MAX_WITNESSES:
            report.add("sp_permutation", initial, multiset=list(multiset), end=end)
    return report


def sp_reachable_values(task: Task, tie_break: str = "canonical") -> frozenset[tuple[int, ...]]:
    """States reachable via SP-paths, explored exactly over
    (state, last action) pairs; closed-list policy plays no role here."""
    from .graphs import stratify

    strat = stratify(task, tie_break=tie_break)
    level = strat.action_level
    follow = _follow_up_matrix(task)
    rows = _rows(task)
    initial = task.initial
    seen_pairs: set[tuple[tuple[int, ...], int | None]] = {(initial, None)}
    values_seen: set[tuple[int, ...]] = {initial}
    queue: deque[tuple[tuple[int, ...], int | None]] = deque([(initial, None)])
    while queue:
        values, last = queue.popleft()
        for a, (pre, eff, _) in enumerate(rows):
            if last is not None and level[a] < level[last] and not follow[last][a]:
                continue
            if not _applies(values, pre):
                continue
            succ = _result(values, eff)
            pair = (succ, a)
            if pair not in seen_pairs:
                if len(values_seen) > DEFAULT_MAX_STATES:
                    raise TooLarge(f"more than {DEFAULT_MAX_STATES} reachable states")
                seen_pairs.add(pair)
                values_seen.add(succ)
                queue.append(pair)
    return frozenset(values_seen)


def check_left_commutativity_equivalence(task: Task, samples: int, seed: int) -> Report:
    """Sample valid (a, b) pairs and compare the syntactic criterion with
    the semantic both-orders check."""
    rng = random.Random(seed)
    rows = _rows(task)
    goal_free_pool: list[tuple[int, ...]] = [task.initial]
    pool_set = {task.initial}
    for _ in range(50):
        values = task.initial
        for _ in range(8):
            moves = [a for a, (pre, _, _) in enumerate(rows) if _applies(values, pre)]
            if not moves:
                break
            _, eff, _ = rows[rng.choice(moves)]
            values = _result(values, eff)
            if values not in pool_set:
                pool_set.add(values)
                goal_free_pool.append(values)

    report = Report("left_commutativity_equivalence")
    attempts = 0
    while report.checked < samples and attempts < samples * 20:
        attempts += 1
        values = rng.choice(goal_free_pool)
        first_moves = [a for a, (pre, _, _) in enumerate(rows) if _applies(values, pre)]
        if not first_moves:
            continue
        a = rng.choice(first_moves)
        mid = _result(values, rows[a][1])
        second_moves = [b for b, (pre, _, _) in enumerate(rows) if _applies(mid, pre)]
        if not second_moves:
            continue
        b = rng.choice(second_moves)

        syntactic = is_left_commutative(task, values, a, b)
        end_ab = _result(mid, rows[b][1])
        semantic = False
        if _applies(values, rows[b][0]):
            swapped_mid = _result(values, rows[b][1])
            if _applies(swapped_mid, rows[a][0]):
                semantic = _result(swapped_mid, rows[a][1]) == end_ab
        report.checked += 1
        if syntactic != semantic:
            if len(report.violations) < _MAX_WITNESSES:
                report.add(
                    "commutativity_mismatch",
                    values,
                    pair=[a, b],
                    syntactic=syntactic,
                    semantic=semantic,
                )
    return report


def brute_force_core(
    task: Task, values: tuple[int, ...], seed: Iterable[int]
) -> frozenset[int]:
    """The seed closed under ASG edges at the values, seed included.

    Edge x -> y: x is inapplicable and some effect entry of y is a
    precondition entry of x. Adds every edge target of every member
    until a full pass adds nothing.
    """
    rows = _rows(task)
    core: set[int] = set()
    grown = set(seed)
    while grown != core:
        core = grown
        grown = core | {
            y
            for x in core
            if not _applies(values, rows[x][0])
            for y, (_, eff, _) in enumerate(rows)
            if not set(rows[x][0]).isdisjoint(eff)
        }
    return frozenset(core)


def check_action_core_lemma(task: Task, horizon: int) -> Report:
    """Every valid path from the initial state ending in an action that is
    inapplicable there contains a distinct member of that action's core."""
    rows = _rows(task)
    initial = task.initial
    inapplicable = {
        a for a, (pre, _, _) in enumerate(rows) if not _applies(initial, pre)
    }
    cores = {a: brute_force_core(task, initial, {a}) - {a} for a in inapplicable}
    report = Report("action_core_lemma")
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(initial, ())]
    explored = 0
    while stack:
        values, path = stack.pop()
        explored += 1
        if explored > _DFS_CAP:
            raise TooLarge("path enumeration exceeded the budget")
        if path and path[-1] in inapplicable:
            report.checked += 1
            if not cores[path[-1]].intersection(path):
                if len(report.violations) < _MAX_WITNESSES:
                    report.add("action_core_lemma", initial, path=list(path))
        if len(path) < horizon:
            for a, (pre, eff, _) in enumerate(rows):
                if _applies(values, pre):
                    stack.append((_result(values, eff), path + (a,)))
    return report


# ---------------------------------------------------------------------------
# seeded task streams and aggregate suites (shared by the CLI and the
# acceptance tests)


def default_task_stream(
    count: int,
    start: int = 0,
    cost_mode: str = "unit",
    max_states: int = DEFAULT_MAX_STATES,
) -> list[tuple[int, Task, StateSpaceGraph]]:
    """First `count` seeds from `start` whose task fits the state cap.

    Sizes vary deterministically with the seed within the generator
    bounds. Random-walk goals make every returned task solvable.
    """
    out: list[tuple[int, Task, StateSpaceGraph]] = []
    seed = start
    while len(out) < count:
        spec = RandomTaskSpec(
            seed=seed,
            num_variables=3 + seed % 4,
            max_domain=2 + seed % 2,
            num_actions=5 + seed % 6,
            goal_size=1 + seed % 2,
            cost_mode=cost_mode,
        )
        seed += 1
        task = generate_random_task(spec)
        try:
            graph = enumerate_state_space(task, max_states)
        except TooLarge:
            continue
        out.append((spec.seed, task, graph))
    return out


def reduced_reachable_values(task: Task, strategy: ExpansionStrategy) -> list[tuple[int, ...]]:
    """States a strategy-driven exhaustive BFS expands (goals terminal)."""
    rows = _rows(task)
    initial = task.initial
    seen = {initial}
    order = [initial]
    queue = deque([initial])
    while queue:
        values = queue.popleft()
        for a in _reduced_expansion(task, strategy, values):
            succ = _result(values, rows[a][1])
            if succ not in seen:
                if len(seen) >= DEFAULT_MAX_STATES:
                    raise TooLarge(f"more than {DEFAULT_MAX_STATES} reachable states")
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    return order


class _DropLast:
    """Wraps a strategy and drops the last action of every expansion set."""

    def __init__(self, inner: ExpansionStrategy) -> None:
        self.inner = inner
        self.task = inner.task
        self.node_key = inner.node_key

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]:
        return self.inner.expansion(ctx)[:-1]


def drop_one_sac(task: Task, kind: str) -> ExpansionStrategy:
    """make_bare_strategy with a deliberate fault in SAC, for the suites'
    strategy_factory: every SAC expansion set loses its last action, which
    the stubborn, optimality and action-preserving suites must report."""
    strategy = make_bare_strategy(task, kind)
    return _DropLast(strategy) if kind == "sac" else strategy


def suite_stubborn(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]],
    kinds: Sequence[str] = ("sac", "ec"),
    horizon: int = 6,
    strategy_factory=make_bare_strategy,
) -> Report:
    """A1/A2 at every state an exhaustive reduced BFS expands."""
    report = Report("stubborn_suite")
    for seed, task, graph in tasks:
        goal_reachable = {graph.states[i] for i in graph.can_reach_goal()}
        for kind in kinds:
            strategy = strategy_factory(task, kind)
            for values in reduced_reachable_values(task, strategy):
                if _applies(values, task.goal.entries):
                    continue
                expansion = _reduced_expansion(task, strategy, values)
                sub = check_stubborn_conditions(
                    task, values, expansion, horizon, goal_reachable=goal_reachable
                )
                report.absorb(sub, seed=seed, strategy=kind)
                report.checked += 1
    return report


def suite_optimality(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]],
    strategy_factory=make_bare_strategy,
) -> Report:
    """A*+hmax cost equality under ec/sac and solvability agreement under
    all four strategies, against the Dijkstra oracle."""
    from .heuristics import make_heuristic
    from .search import astar

    report = Report("optimality_suite")
    for seed, task, graph in tasks:
        optimum = brute_force_optimal_cost(task)
        heuristic = make_heuristic(task, "hmax")
        for kind in ("none", "ec", "sp", "sac"):
            result = astar(task, heuristic, strategy_factory(task, kind))
            report.checked += 1
            if result.solved != (optimum is not None):
                report.add(
                    "solvability",
                    task.initial,
                    seed=seed,
                    strategy=kind,
                    oracle=optimum,
                    outcome=result.outcome,
                )
            elif result.solved and kind in ("none", "ec", "sac"):
                assert result.plan is not None
                if result.plan.cost != optimum:
                    report.add(
                        "optimality",
                        task.initial,
                        seed=seed,
                        strategy=kind,
                        oracle=optimum,
                        cost=result.plan.cost,
                    )
    return report


def suite_sp(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]], horizon: int = 5
) -> Report:
    """Permutation property plus reachable-set equality for SP."""
    report = Report("sp_suite")
    for seed, task, graph in tasks:
        report.absorb(check_sp_permutation(task, horizon), seed=seed)
        reachable = sp_reachable_values(task)
        full = frozenset(graph.states)
        report.checked += 1
        if reachable != full:
            report.add(
                "sp_reachability",
                task.initial,
                seed=seed,
                missing=sorted(full - reachable)[:5],
                extra=sorted(reachable - full)[:5],
            )
    return report


def suite_lemma(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]], horizon: int = 5
) -> Report:
    report = Report("action_core_lemma_suite")
    for seed, task, _ in tasks:
        report.absorb(check_action_core_lemma(task, horizon), seed=seed)
    return report


def suite_commutativity(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]],
    samples_per_task: int = 10,
    seed: int = 0,
) -> Report:
    report = Report("commutativity_suite")
    for task_seed, task, _ in tasks:
        sub = check_left_commutativity_equivalence(task, samples_per_task, seed)
        report.absorb(sub, seed=task_seed)
    return report


def suite_action_preserving(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]],
    kinds: Sequence[str] = ("sac", "ec"),
    horizon: int = 4,
    strategy_factory=make_bare_strategy,
) -> Report:
    report = Report("action_preserving_suite")
    for seed, task, _ in tasks:
        for kind in kinds:
            sub = check_action_preserving(task, strategy_factory(task, kind), horizon)
            report.absorb(sub, seed=seed, strategy=kind)
    return report


@dataclass(frozen=True)
class RandomTaskSpec:
    """Deterministic small-task generator parameters."""

    seed: int
    num_variables: int = 4
    max_domain: int = 3
    num_actions: int = 8
    goal_size: int = 2
    cost_mode: str = "unit"  # or "random"

    def __post_init__(self) -> None:
        if not 1 <= self.num_variables <= 6:
            raise ValueError("variable count must be in 1..6")
        if not 2 <= self.max_domain <= 3:
            raise ValueError("domain sizes must be in 2..3")
        if not 1 <= self.num_actions <= 12:
            raise ValueError("action count must be in 1..12")
        if self.goal_size < 1:
            raise ValueError("goal size must be positive")
        if self.cost_mode not in ("unit", "random"):
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")


def generate_random_task(spec: RandomTaskSpec) -> Task:
    """Deterministic per seed; goals come from a random walk, so they are reachable."""
    rng = random.Random(spec.seed)
    n = spec.num_variables
    domains = [rng.randint(2, spec.max_domain) for _ in range(n)]
    variables = tuple(Variable(i, f"var{i}", domains[i]) for i in range(n))

    actions = []
    for k in range(spec.num_actions):
        eff_vars = sorted(rng.sample(range(n), rng.randint(1, min(2, n))))
        effect = tuple((v, rng.randrange(domains[v])) for v in eff_vars)
        pre_vars = sorted(rng.sample(range(n), rng.randint(0, min(2, n))))
        precondition = tuple((v, rng.randrange(domains[v])) for v in pre_vars)
        cost = 1 if spec.cost_mode == "unit" else rng.randint(0, 3)
        actions.append(
            Action(
                id=k,
                name=f"op{k}",
                precondition=PartialAssignment.of(precondition),
                effect=PartialAssignment.of(effect),
                cost=cost,
            )
        )

    initial = tuple(rng.randrange(d) for d in domains)
    goal_size = min(spec.goal_size, n)
    rows = [(a.precondition.entries, a.effect.entries, a.cost) for a in actions]
    values = initial
    for _ in range(rng.randint(1, n + 2)):
        moves = [a for a, (pre, _, _) in enumerate(rows) if _applies(values, pre)]
        if not moves:
            break
        values = _result(values, rows[rng.choice(moves)][1])
    goal_vars = sorted(rng.sample(range(n), goal_size))
    goal = tuple((v, values[v]) for v in goal_vars)

    return Task(
        variables=variables,
        actions=tuple(actions),
        initial=initial,
        goal=PartialAssignment.of(goal),
        uses_metric=spec.cost_mode == "random",
    )
