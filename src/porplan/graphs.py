"""Derived graph structures: DTGs, causal graph, ASG, PDG, condensation, stratification.

Domain transition graphs carry a sentinel source vertex V0 for actions
whose effect touches the variable but whose precondition does not mention
it; they are built for inspection and DOT output. The PDG reads per-fact
action masks instead (potential_masks), built once per task from the
action index, where an action without a precondition on a variable
leaves every value of it, as a V0 edge does. Paths are walks;
repetition is allowed.

The causal graph, ASG and PDG are plain frozensets of (source, target)
index pairs: variables for the causal graph and PDG, action ids for the
ASG. DTGs, the potential masks and the stratification are immutable and
built once per task. EC and SP share one condensation,
`closure_prefix_order`.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add, or_
from typing import Iterable, NamedTuple, Sequence

from .model import State, Task, ids

V0 = -1  # sentinel DTG vertex for effects without an own-variable precondition


@dataclass(frozen=True)
class DtgEdge:
    source: int  # domain value, or V0
    target: int
    actions: frozenset[int]


@dataclass(frozen=True)
class DTG:
    """Value transition graph of one variable."""

    variable: int
    domain_size: int
    edges: tuple[DtgEdge, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return (V0,) + tuple(range(self.domain_size))


@dataclass(frozen=True)
class Stratification:
    """Causal-graph levels; no edge runs from a higher to a lower level."""

    variable_level: tuple[int, ...]
    action_level: tuple[int, ...]


class MixedEffectLevels(Exception):
    """An action's effect variables span different stratification levels."""

    def __init__(self, action_id: int) -> None:
        super().__init__(f"action {action_id} has effects on multiple levels")
        self.action_id = action_id


def build_dtg(task: Task, var: int) -> DTG:
    """Transitions of one variable; parallel actions merge into one edge."""
    by_pair: dict[tuple[int, int], set[int]] = defaultdict(set)
    for a in ids(task.index.writer_masks[var]):
        action = task.actions[a]
        pre = action.precondition.value_of(var)
        source = V0 if pre is None else pre
        by_pair[(source, action.effect.value_of(var))].add(a)
    edges = tuple(
        DtgEdge(src, dst, frozenset(ids))
        for (src, dst), ids in sorted(by_pair.items())
    )
    return DTG(var, task.variables[var].domain_size, edges)


def build_causal_graph(task: Task) -> frozenset[tuple[int, int]]:
    """Edge (x, y): some action writes x and reads or writes y."""
    edges: set[tuple[int, int]] = set()
    for action in task.actions:
        eff_vars = action.effect.variables
        dep_vars = set(action.precondition.variables) | set(eff_vars)
        for x in eff_vars:
            for y in dep_vars:
                if x != y:
                    edges.add((x, y))
    return frozenset(edges)


def build_asg(task: Task, state: State) -> frozenset[tuple[int, int]]:
    """Action support graph at the state: edge (a, b) when a is not
    applicable and some effect entry of b is a precondition entry of a."""
    applicable = task.index.applicable_mask(state.values)
    return frozenset(
        (a, b)
        for a, support in enumerate(task.index.support)
        if not applicable >> a & 1
        for b in ids(support)
    )


class PotentialMasks(NamedTuple):
    """Action masks per fact (j, v), for a state where variable j holds v.

    relevant: the writers of j on a transition that lies on a walk from v
    to j's goal value, or on any walk from v when j has no goal value.
    dependent: the writers of j, plus the consumers of every value of j
    that such a walk visits.
    """

    relevant: tuple[int, ...]
    dependent: tuple[int, ...]


def potential_masks(task: Task) -> PotentialMasks:
    """The potential masks of every fact, from the task's action index.

    A transition leaves value u when its action writes j and is compatible
    with (j, u), so an action without a precondition on j leaves every
    value; it moves j to w when the action achieves (j, w).
    """
    index = task.index
    relevant: list[int] = []
    dependent: list[int] = []
    for j, goal in enumerate(map(task.goal.value_of, range(task.num_variables))):
        facts = range(index.offsets[j], index.offsets[j + 1])
        values = range(len(facts))
        leaving = [index.writer_masks[j] & index.compatible[f] for f in facts]
        successors = [
            [w for w in values if leave & index.achiever_masks[facts[w]]] for leave in leaving
        ]
        reach = []  # reach[v]: the values some walk from v visits
        for v in values:
            seen = [v]
            for u in seen:  # also visits the values appended on the way
                seen += [w for w in successors[u] if w not in seen]
            reach.append(set(seen))
        onward = {u for u in values if goal is None or goal in reach[u]}
        into = reduce(or_, (index.achiever_masks[facts[w]] for w in onward), 0)
        for v in values:
            relevant.append(into & reduce(or_, (leaving[u] for u in reach[v])))
            visited = (index.consumer_masks[facts[w]] for w in reach[v] & onward)
            dependent.append(reduce(or_, visited, index.writer_masks[j]))
    return PotentialMasks(tuple(relevant), tuple(dependent))


def build_pdg(task: Task, state: State, masks: PotentialMasks) -> frozenset[tuple[int, int]]:
    """Potential dependency graph over DTG indices at the state.

    Edge (i, j), i != j: an action on a still-relevant transition of
    G_j requires variable i at its current value (potential precondition),
    or an action moving G_i off its current value requires a value G_j
    may still visit, or also writes j (potential dependent; without the
    co-movement tie an outside writer of G_j breaks the front-swap
    condition, since effects need not carry own-variable preconditions).
    """
    index = task.index
    held = list(map(add, index.offsets, state.values))
    needs = [index.consumer_masks[f] for f in held]
    moves = [index.writer_masks[i] & index.compatible[f] for i, f in enumerate(held)]
    return frozenset(
        (i, j)
        for j, f in enumerate(held)
        for i, (need, move) in enumerate(zip(needs, moves))
        if i != j and (masks.relevant[f] & need or masks.dependent[f] & move)
    )


def strongly_connected_components(
    num_nodes: int, edges: frozenset[tuple[int, int]]
) -> list[list[int]]:
    """Kosaraju's two-pass SCCs (Sharir, 1981), each sorted, in no promised order."""
    succ: list[list[int]] = [[] for _ in range(num_nodes)]
    pred: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, w in edges:
        succ[u].append(w)
        pred[w].append(u)

    # pass 1: the nodes in the order a search over successors finishes them
    finished: list[int] = []
    seen = [False] * num_nodes
    for root in range(num_nodes):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(node)

    # pass 2: from the latest finished node still unassigned, a search over
    # predecessors collects exactly its component
    components: list[list[int]] = []
    assigned = [False] * num_nodes
    for root in reversed(finished):
        if assigned[root]:
            continue
        assigned[root] = True
        component = [root]
        for v in component:  # also visits the nodes appended on the way
            for u in pred[v]:
                if not assigned[u]:
                    assigned[u] = True
                    component.append(u)
        components.append(sorted(component))
    return components


def stratify(
    task: Task,
    causal_graph: frozenset[tuple[int, int]] | None = None,
    tie_break: str = "canonical",
) -> Stratification:
    """Level the causal graph; same-component variables share a level.

    canonical: level = 1 + longest condensation path from a source.
    distinct: components get distinct levels 1..K ordered by canonical
    level, ties giving earlier variables the higher level (reproduces the
    conventional walkthrough layering on edgeless graphs).
    """
    if tie_break not in ("canonical", "distinct"):
        raise ValueError(f"unknown tie break {tie_break!r}")
    if causal_graph is None:
        causal_graph = build_causal_graph(task)
    n = task.num_variables
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, w in causal_graph:
        pred[w].append(u)

    # reversed, the sinks-first order lists every component after all of
    # its predecessors; members of the component itself still read 0
    components = closure_prefix_order(n, causal_graph)[::-1]
    variable_level = [0] * n
    for comp in components:
        level = 1 + max((variable_level[u] for v in comp for u in pred[v]), default=0)
        for v in comp:
            variable_level[v] = level

    if tie_break == "distinct":
        ranked = sorted(components, key=lambda comp: (variable_level[comp[0]], -comp[0]))
        for pos, comp in enumerate(ranked, start=1):
            for v in comp:
                variable_level[v] = pos

    action_level = []
    for action in task.actions:
        levels = {variable_level[v] for v in action.effect.variables}
        if len(levels) != 1:
            raise MixedEffectLevels(action.id)
        action_level.append(levels.pop())
    return Stratification(tuple(variable_level), tuple(action_level))


def closure_prefix_order(
    num_nodes: int, edges: frozenset[tuple[int, int]]
) -> list[list[int]]:
    """SCCs ordered sinks-first so that every prefix has no outgoing edge.

    Deterministic: among ready components the one containing the smallest
    node is emitted first.
    """
    sccs = strongly_connected_components(num_nodes, edges)
    scc_of = [0] * num_nodes
    for i, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = i
    # a component is ready once every component it has an edge to is out
    pred: list[set[int]] = [set() for _ in sccs]
    remaining = [0] * len(sccs)
    for u, w in edges:
        su, sw = scc_of[u], scc_of[w]
        if su != sw and su not in pred[sw]:
            pred[sw].add(su)
            remaining[su] += 1

    ready = [(comp[0], i) for i, comp in enumerate(sccs) if remaining[i] == 0]
    heapq.heapify(ready)
    order: list[list[int]] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(sccs[i])
        for p in pred[i]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(ready, (sccs[p][0], p))
    return order


# ---------------------------------------------------------------------------
# DOT emission


def _dot(name: str, nodes: list[str], edges: list[str]) -> str:
    body = "\n".join("  " + line for line in nodes + edges)
    return f"digraph {name} {{\n{body}\n}}\n"


def dtg_to_dot(task: Task, dtg: DTG) -> str:
    var = task.variables[dtg.variable]
    nodes = ['"v0" [shape=diamond];']
    nodes += [f'"{var.value_names[v]}";' for v in range(dtg.domain_size)]
    edges = []
    for e in dtg.edges:
        src = "v0" if e.source == V0 else var.value_names[e.source]
        dst = var.value_names[e.target]
        label = ",".join(task.actions[a].name for a in sorted(e.actions))
        edges.append(f'"{src}" -> "{dst}" [label="{label}"];')
    return _dot(f"dtg_{dtg.variable}", nodes, edges)


def graph_to_dot(name: str, nodes: Sequence[str], edges: Iterable[tuple[int, int]]) -> str:
    """A plain digraph: node labels by index, edges as index pairs drawn
    in sorted order."""
    return _dot(
        name,
        [f'"{n}";' for n in nodes],
        [f'"{nodes[u]}" -> "{nodes[w]}";' for u, w in sorted(edges)],
    )
