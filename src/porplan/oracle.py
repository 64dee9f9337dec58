"""Brute-force verification machinery for small instances.

Turns the reduction conditions into executable checks: exhaustive state
space enumeration, optimal costs by Dijkstra, the two stubborn-set
conditions, action preservation, the SP permutation property, and the
equivalence of the syntactic left-commutativity criterion with its
semantic both-orders reading on every valid pair of actions at every
reachable state. A seeded generator supplies small random tasks whose
goals are sampled from a random walk, so solvability is by construction.

Each enumeration exists once, as a private helper the checkers share: the
successor step `_successors` (over `_applicable`), the state-space BFS
`_explore` under a given move rule, the path DFS `_paths`, the (end, multiset)
enumeration `_multisets`, the reordering search `_reordering` under a given
move rule, SP's step rule `_sp_rule` and the Dijkstra `_optimal_cost`.
There is one state cap, DEFAULT_MAX_STATES, which every state enumeration
reads when it is called and which raises TooLarge when passed. The check_*
functions take a path depth; each suite fixes its own (stubborn 6, SP and
the action-core lemma 5, action preservation 4), so a suite run costs a
fixed amount per seed.

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
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .graphs import stratify
from .heuristics import make_heuristic
from .model import Action, PartialAssignment, Task, Variable
from .search import astar
from .strategies import (
    ExpansionContext,
    ExpansionStrategy,
    is_left_commutative,
    make_bare_strategy,
)

DEFAULT_MAX_STATES = 2000
_DFS_CAP = 2_000_000  # enumeration nodes before giving up
_MAX_WITNESSES = 5  # violations a checker records; later ones are dropped uncounted


class TooLarge(Exception):
    """The instance exceeds the exhaustive-checking budget."""


# independent action table: (precondition pairs, effect pairs, cost)
Row = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]


def _rows(task: Task) -> list[Row]:
    return [(a.precondition.entries, a.effect.entries, a.cost) for a in task.actions]


def _applies(values: tuple[int, ...], pre: tuple[tuple[int, int], ...]) -> bool:
    # a loop, not all() over a generator: this is every enumeration's inner test
    for v, x in pre:
        if values[v] != x:
            return False
    return True


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


def _applicable(
    values: tuple[int, ...], rows: Sequence[Row], among: Iterable[int] | None = None
) -> list[int]:
    """The applicable actions, in the order of `among` (default: all, ascending)."""
    if among is None:
        among = range(len(rows))
    return [a for a in among if _applies(values, rows[a][0])]


def _successors(
    values: tuple[int, ...], rows: Sequence[Row], among: Iterable[int] | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """(action, successor) per applicable action; a list, as searches call it per node."""
    return [(a, _result(values, rows[a][1])) for a in _applicable(values, rows, among)]


def _paths(
    start: tuple[int, ...],
    rows: Sequence[Row],
    horizon: int,
    among: Sequence[int] | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(end, path) for every non-empty path of length <= horizon from start,
    depth first, its steps drawn from `among` (default: all actions)."""
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(start, ())]
    explored = 0
    while stack:
        values, path = stack.pop()
        explored += 1
        if explored > _DFS_CAP:
            raise TooLarge("path enumeration exceeded the budget")
        if path:
            yield values, path
        if len(path) < horizon:
            stack.extend([(succ, path + (a,)) for a, succ in _successors(values, rows, among)])


def _multisets(
    start: tuple[int, ...],
    rows: Sequence[Row],
    horizon: int,
    stop: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Distinct (end, sorted action multiset) pairs of the paths of length
    <= horizon from start, the empty path included, in depth-first order.
    A path goes no further from a state where `stop` holds."""
    seen = {(start, ())}
    stack = [(start, ())]
    while stack:
        key = stack.pop()
        if len(seen) > _DFS_CAP:
            raise TooLarge("path enumeration exceeded the budget")
        yield key
        values, multiset = key
        if len(multiset) < horizon and not (stop is not None and stop(values)):
            for a, succ in _successors(values, rows):
                key = (succ, tuple(sorted(multiset + (a,))))
                if key not in seen:
                    seen.add(key)
                    stack.append(key)


def _reordering(
    start: tuple[int, ...],
    multiset: tuple[int, ...],
    rows: Sequence[Row],
    moves: Callable[[tuple[int, ...], int | None], Collection[int]],
    accept: Callable[[tuple[int, ...], tuple[int, ...]], bool],
) -> bool:
    """Whether some ordering of the sorted multiset, applied from start,
    passes a (state, unused actions) node that `accept` holds at.

    `moves(state, last action or None)` names the actions that may come
    next; a node is memoised with the moves it allows.
    """
    memo: set[tuple[tuple[int, ...], tuple[int, ...], Collection[int]]] = set()
    frames: list[tuple[tuple[int, ...], tuple[int, ...], int | None]] = [(start, multiset, None)]
    while frames:
        values, remaining, last = frames.pop()
        if accept(values, remaining):
            return True
        if not remaining:
            continue
        allowed = moves(values, last)
        node = (values, remaining, allowed)
        if node in memo:
            continue
        memo.add(node)
        for i, a in enumerate(remaining):
            if (i > 0 and remaining[i - 1] == a) or a not in allowed:
                continue
            pre, eff, _ = rows[a]
            if _applies(values, pre):
                frames.append((_result(values, eff), remaining[:i] + remaining[i + 1 :], a))
    return False


def _sp_rule(task: Task) -> dict[int | None, tuple[int, ...]]:
    """SP's step rule: the actions b that may follow `last` on an SP-path
    (any action first, keyed None). b may follow a iff level(b) >= level(a)
    or eff(a) shares an entry with pre(b) or eff(b). Built on the rows,
    apart from SpStrategy's keep table; only the levels come from stratify."""
    level = stratify(task).action_level
    rows = _rows(task)
    rule: dict[int | None, tuple[int, ...]] = {None: tuple(range(len(rows)))}
    for a, (_, eff, _) in enumerate(rows):
        written = set(eff)
        rule[a] = tuple(
            b
            for b, (pre_b, eff_b, _) in enumerate(rows)
            if level[b] >= level[a] or not written.isdisjoint(pre_b + eff_b)
        )
    return rule


def _explore(
    start: tuple[int, ...],
    rows: Sequence[Row],
    moves: Callable[[tuple[int, ...]], Iterable[int] | None],
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int], list[list[tuple[int, int]]]]:
    """Breadth-first (states, index, successors) from start; `moves(state)`
    names the actions to try there (None: all), and is called once per
    state in BFS order. Raises TooLarge past DEFAULT_MAX_STATES states."""
    states = [start]
    index = {start: 0}
    successors: list[list[tuple[int, int]]] = []
    for values in states:  # grows while we walk it: a FIFO queue
        out: list[tuple[int, int]] = []
        for a, succ in _successors(values, rows, moves(values)):
            ti = index.get(succ)
            if ti is None:
                if len(states) >= DEFAULT_MAX_STATES:
                    raise TooLarge(f"more than {DEFAULT_MAX_STATES} reachable states")
                ti = index[succ] = len(states)
                states.append(succ)
            out.append((a, ti))
        successors.append(out)
    return states, index, successors


@dataclass
class StateSpaceGraph:
    """Exact reachable subgraph from state 0; edge (s, s', o) iff o applies and produces s'."""

    states: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    successors: list[list[tuple[int, int]]]  # per state: (action, successor index)
    goal_states: frozenset[int]

    def can_reach_goal(self) -> frozenset[int]:
        """Indices of states from which some goal state is reachable."""
        preds: dict[int, list[int]] = {}
        for src, out in enumerate(self.successors):
            for _, dst in out:
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


def enumerate_state_space(task: Task) -> StateSpaceGraph:
    """BFS over all applicable actions from the initial state."""
    states, index, successors = _explore(task.initial, _rows(task), lambda values: None)
    goal = frozenset(i for i, values in enumerate(states) if _applies(values, task.goal.entries))
    return StateSpaceGraph(states, index, successors, goal)


def brute_force_optimal_cost(task: Task) -> int | None:
    """Dijkstra over the full reachable graph; None when unsolvable."""
    return _optimal_cost(enumerate_state_space(task), _rows(task))


def _optimal_cost(graph: StateSpaceGraph, rows: Sequence[Row]) -> int | None:
    """Dijkstra from the graph's state 0 to its nearest goal state."""
    dist = {0: 0}
    heap = [(0, 0)]
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

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, state: tuple[int, ...] | None, **witness) -> None:
        self.violations.append(Violation(kind, state, witness))

    def add_witness(self, kind: str, state: tuple[int, ...] | None, **witness) -> None:
        """add, unless _MAX_WITNESSES violations are recorded already; a
        checker's later violations are neither recorded nor counted."""
        if len(self.violations) < _MAX_WITNESSES:
            self.add(kind, state, **witness)

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
        }


def check_stubborn_conditions(
    task: Task,
    state: Sequence[int],
    expansion: Iterable[int],
    horizon: int,
    goal_reachable: Collection[tuple[int, ...]],
) -> Report:
    """Check A1 and A2 for one expansion set at one state.

    A2: no goal-reaching action sequence of length <= horizon avoids the
    set. A1: for every sequence of outside actions followed by a member b
    that extends to a goal, fronting b is valid and lands in the same
    state. Extendability is judged exactly by `goal_reachable`: the states
    that can reach a goal, among all those reachable from the state (as
    in `suite_stubborn`, the states of the task's enumerated graph).
    """
    values = tuple(state)
    rows = _rows(task)
    members = sorted(set(expansion))
    outside = [a for a in range(len(rows)) if a not in members]

    report = Report("stubborn_conditions")
    for current, path in _paths(values, rows, horizon, outside):
        if _applies(current, task.goal.entries):
            report.add_witness("A2", values, path=list(path))
        if len(path) < horizon:
            for b, tail_end in _successors(current, rows, members):
                if tail_end not in goal_reachable:
                    continue  # not a prefix of any goal path
                report.checked += 1
                fronted = _walk(values, rows, (b, *path))
                if fronted != tail_end:
                    report.add_witness(
                        "A1",
                        values,
                        member=b,
                        path=list(path),
                        fronted_end=fronted,
                        original_end=tail_end,
                    )
    return report


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
    exact multiset and final state. A reordering passes only reduced states,
    so its moves come from `reduced_reachable_values`, which, like every
    state enumeration here, raises TooLarge past DEFAULT_MAX_STATES states.
    """
    rows = _rows(task)
    initial = task.initial
    report = Report("action_preserving")

    def is_goal(values: tuple[int, ...]) -> bool:
        return _applies(values, task.goal.entries)

    if is_goal(initial):
        return report  # no solution sequences from a goal state
    expansions = reduced_reachable_values(task, strategy)

    def reduced_moves(values: tuple[int, ...], last: int | None) -> tuple[int, ...]:
        return expansions[values]

    for end, multiset in _multisets(initial, rows, horizon, stop=is_goal):
        if not is_goal(end):
            continue
        report.checked += 1

        def accept(values: tuple[int, ...], remaining: tuple[int, ...]) -> bool:
            return (not remaining and values == end) if strict else is_goal(values)

        if not _reordering(initial, multiset, rows, reduced_moves, accept):
            report.add_witness("action_preserving", initial, multiset=list(multiset), end=end)
    return report


def check_sp_permutation(task: Task, horizon: int) -> Report:
    """Every valid path from the initial state has an SP-path permutation
    to the same state (consecutive pairs survive the level filter)."""
    rule = _sp_rule(task)
    rows = _rows(task)
    initial = task.initial

    def may_follow(values: tuple[int, ...], last: int | None) -> tuple[int, ...]:
        return rule[last]

    report = Report("sp_permutation")
    for end, multiset in sorted(_multisets(initial, rows, horizon)):
        if not multiset:
            continue
        report.checked += 1

        def reaches_end(values: tuple[int, ...], remaining: tuple[int, ...]) -> bool:
            return not remaining and values == end

        if not _reordering(initial, multiset, rows, may_follow, reaches_end):
            report.add_witness("sp_permutation", initial, multiset=list(multiset), end=end)
    return report


def sp_reachable_values(task: Task) -> frozenset[tuple[int, ...]]:
    """States reachable via SP-paths, explored exactly over
    (state, last action) pairs; closed-list policy plays no role here.

    Its own BFS, not `_explore`: the nodes are pairs, while the cap counts
    distinct states. Like `_explore`, it raises TooLarge when a new state
    would pass DEFAULT_MAX_STATES."""
    rule = _sp_rule(task)
    rows = _rows(task)
    initial = task.initial
    seen_pairs: set[tuple[tuple[int, ...], int | None]] = {(initial, None)}
    values_seen: set[tuple[int, ...]] = {initial}
    queue: deque[tuple[tuple[int, ...], int | None]] = deque([(initial, None)])
    while queue:
        values, last = queue.popleft()
        for a, succ in _successors(values, rows, rule[last]):
            pair = (succ, a)
            if pair not in seen_pairs:
                if succ not in values_seen and len(values_seen) >= DEFAULT_MAX_STATES:
                    raise TooLarge(f"more than {DEFAULT_MAX_STATES} reachable states")
                seen_pairs.add(pair)
                values_seen.add(succ)
                queue.append(pair)
    return frozenset(values_seen)


def check_left_commutativity_equivalence(task: Task, graph: StateSpaceGraph) -> Report:
    """Compare the syntactic criterion with the semantic both-orders check
    on every valid pair (a, b) at every state of the task's graph."""
    rows = _rows(task)
    report = Report("left_commutativity_equivalence")
    for values, out in zip(graph.states, graph.successors):
        for a, mid in out:
            for b, end in graph.successors[mid]:
                syntactic = is_left_commutative(task, values, a, b)
                semantic = _walk(values, rows, (b, a)) == graph.states[end]
                report.checked += 1
                if syntactic != semantic:
                    report.add_witness(
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
    inapplicable = set(range(len(rows))).difference(_applicable(initial, rows))
    cores = {a: brute_force_core(task, initial, {a}) - {a} for a in inapplicable}
    report = Report("action_core_lemma")
    for _, path in _paths(initial, rows, horizon):
        if path[-1] in inapplicable:
            report.checked += 1
            if not cores[path[-1]].intersection(path):
                report.add_witness("action_core_lemma", initial, path=list(path))
    return report


# ---------------------------------------------------------------------------
# seeded task streams and aggregate suites (shared by the CLI and the
# acceptance tests)


def default_task_stream(
    count: int, start: int = 0, cost_mode: str = "unit"
) -> list[tuple[int, Task, StateSpaceGraph]]:
    """(seed, task, state space) for the `count` seeds from `start`.

    Sizes vary deterministically with the seed within the generator
    bounds, so no task has more than 6 variables of 3 values (729 states)
    and none passes DEFAULT_MAX_STATES unless a caller lowers it, when
    the enumeration raises TooLarge. Random-walk goals make every task
    solvable.
    """
    out: list[tuple[int, Task, StateSpaceGraph]] = []
    for seed in range(start, start + count):
        spec = RandomTaskSpec(
            seed=seed,
            num_variables=3 + seed % 4,
            max_domain=2 + seed % 2,
            num_actions=5 + seed % 6,
            goal_size=1 + seed % 2,
            cost_mode=cost_mode,
        )
        task = generate_random_task(spec)
        out.append((seed, task, enumerate_state_space(task)))
    return out


def reduced_reachable_values(
    task: Task, strategy: ExpansionStrategy
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each state a strategy-driven exhaustive BFS expands, in BFS order,
    mapped to its expansion set there; goal states are terminal and map to ()."""
    goal = task.goal.entries
    expansions: dict[tuple[int, ...], tuple[int, ...]] = {}

    def moves(values: tuple[int, ...]) -> tuple[int, ...]:
        if not _applies(values, goal):
            ctx = ExpansionContext(task.index.fact_set(values), None)
            expansions[values] = strategy.expansion(ctx)
        return expansions.setdefault(values, ())

    _explore(task.initial, _rows(task), moves)
    return expansions


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
    strategy_factory=make_bare_strategy,
) -> Report:
    """A1/A2 to depth 6 at every state an exhaustive reduced BFS expands,
    under sac and ec."""
    report = Report("stubborn_suite")
    for seed, task, graph in tasks:
        goal_reachable = {graph.states[i] for i in graph.can_reach_goal()}
        for kind in ("sac", "ec"):
            strategy = strategy_factory(task, kind)
            for values, expansion in reduced_reachable_values(task, strategy).items():
                if _applies(values, task.goal.entries):
                    continue
                sub = check_stubborn_conditions(
                    task, values, expansion, 6, goal_reachable=goal_reachable
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
    report = Report("optimality_suite")
    for seed, task, graph in tasks:
        optimum = _optimal_cost(graph, _rows(task))
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


def suite_sp(tasks: Sequence[tuple[int, Task, StateSpaceGraph]]) -> Report:
    """Permutation property to depth 5 plus reachable-set equality for SP."""
    report = Report("sp_suite")
    for seed, task, graph in tasks:
        report.absorb(check_sp_permutation(task, 5), seed=seed)
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


def suite_lemma(tasks: Sequence[tuple[int, Task, StateSpaceGraph]]) -> Report:
    """The action-core lemma on every path of depth <= 5."""
    report = Report("action_core_lemma_suite")
    for seed, task, _ in tasks:
        report.absorb(check_action_core_lemma(task, 5), seed=seed)
    return report


def suite_commutativity(tasks: Sequence[tuple[int, Task, StateSpaceGraph]]) -> Report:
    report = Report("commutativity_suite")
    for seed, task, graph in tasks:
        report.absorb(check_left_commutativity_equivalence(task, graph), seed=seed)
    return report


def suite_action_preserving(
    tasks: Sequence[tuple[int, Task, StateSpaceGraph]],
    strategy_factory=make_bare_strategy,
) -> Report:
    """Action preservation to depth 4 under sac and ec."""
    report = Report("action_preserving_suite")
    for seed, task, _ in tasks:
        for kind in ("sac", "ec"):
            sub = check_action_preserving(task, strategy_factory(task, kind), 4)
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
        moves = _applicable(values, rows)
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
