"""Derived graph structures: DTGs, causal graph, ASG, PDG, stratification.

Domain transition graphs carry a sentinel source vertex V0 for actions
whose effect touches the variable but whose precondition does not mention
it. Such an action can fire at any current value, so all reachability
used by the potential-descendant relations treats V0 as reachable from
every vertex, and the potential-dependent rule treats V0-source edges as
leaving the current value. Paths are walks; repetition is allowed.

DTGs, the causal graph and the stratification are built once per task and
immutable; ASG and PDG are per-state values owned by the caller.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .model import State, Task, applicable

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

    def edges_leaving(self, value: int, include_v0: bool = True) -> list[DtgEdge]:
        """Edges traversable while the variable holds the given value."""
        return [
            e for e in self.edges
            if e.source == value or (include_v0 and e.source == V0)
        ]


@dataclass(frozen=True)
class CausalGraph:
    """Variable dependencies: effect variable to precondition/effect variable."""

    num_variables: int
    edges: frozenset[tuple[int, int]]

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {v: [] for v in range(self.num_variables)}
        for u, w in sorted(self.edges):
            succ[u].append(w)
        return succ


@dataclass(frozen=True)
class ASG:
    """Action support graph at a state.

    Edge (a, b): a is not applicable in the state and some effect entry of
    b is a precondition entry of a.
    """

    state: State
    num_actions: int
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class PDG:
    """Potential dependency graph over DTG indices at a state."""

    state: State
    num_variables: int
    edges: frozenset[tuple[int, int]]


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
    for action in task.actions:
        post = action.effect.value_of(var)
        if post is None:
            continue
        pre = action.precondition.value_of(var)
        source = V0 if pre is None else pre
        by_pair[(source, post)].add(action.id)
    edges = tuple(
        DtgEdge(src, dst, frozenset(ids))
        for (src, dst), ids in sorted(by_pair.items())
    )
    return DTG(var, task.variables[var].domain_size, edges)


def build_all_dtgs(task: Task) -> tuple[DTG, ...]:
    return tuple(build_dtg(task, v) for v in range(task.num_variables))


def build_causal_graph(task: Task) -> CausalGraph:
    edges: set[tuple[int, int]] = set()
    for action in task.actions:
        eff_vars = action.effect.variables
        dep_vars = set(action.precondition.variables) | set(eff_vars)
        for x in eff_vars:
            for y in dep_vars:
                if x != y:
                    edges.add((x, y))
    return CausalGraph(task.num_variables, frozenset(edges))


def build_asg(task: Task, state: State) -> ASG:
    edges: set[tuple[int, int]] = set()
    for a in task.actions:
        if applicable(state, a):
            continue
        for b in task.actions:
            if a.precondition.shares_entry_with(b.effect):
                edges.add((a.id, b.id))
    return ASG(state, len(task.actions), frozenset(edges))


def _forward_reachable(dtg: DTG, start: int) -> set[int]:
    """Vertices reachable from start; V0 is reachable from everywhere."""
    succ: dict[int, list[int]] = defaultdict(list)
    for e in dtg.edges:
        succ[e.source].append(e.target)
    reached = {start, V0}
    queue = [start, V0]
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    return reached


def _reaches(dtg: DTG, target: int) -> set[int]:
    """Vertices from which target is reachable, under the V0 semantics."""
    pred: dict[int, list[int]] = defaultdict(list)
    for e in dtg.edges:
        pred[e.target].append(e.source)
    reaching = {target}
    queue = [target]
    while queue:
        v = queue.pop()
        for u in pred[v]:
            if u not in reaching:
                reaching.add(u)
                queue.append(u)
    if V0 in reaching:
        # any vertex can hop to V0, hence reach the target through it
        reaching.update(dtg.vertices)
    return reaching


def potential_descendant_edges(
    dtg: DTG, v: int, goal_value: int | None = None
) -> frozenset[DtgEdge]:
    """Edges that may still be traversed starting from vertex v.

    Goal-related case: edges lying on some walk from v to the goal value.
    Non-goal case: edges reachable from v.
    """
    forward = _forward_reachable(dtg, v)
    if goal_value is None:
        return frozenset(e for e in dtg.edges if e.source in forward)
    backward = _reaches(dtg, goal_value)
    return frozenset(
        e for e in dtg.edges if e.source in forward and e.target in backward
    )


def potential_descendant_vertices(
    dtg: DTG, v: int, goal_value: int | None = None
) -> frozenset[int]:
    """Domain values that may still be visited starting from vertex v."""
    forward = _forward_reachable(dtg, v) - {V0}
    if goal_value is None:
        return frozenset(forward)
    return frozenset(forward & _reaches(dtg, goal_value))


def _descendants(
    dtgs: Sequence[DTG],
    goal_values: Sequence[int | None],
    var: int,
    value: int,
    cache: dict | None,
) -> tuple[frozenset[DtgEdge], frozenset[int]]:
    key = (var, value)
    if cache is not None and key in cache:
        return cache[key]
    result = (
        potential_descendant_edges(dtgs[var], value, goal_values[var]),
        potential_descendant_vertices(dtgs[var], value, goal_values[var]),
    )
    if cache is not None:
        cache[key] = result
    return result


def build_pdg(
    task: Task,
    state: State,
    dtgs: Sequence[DTG],
    cache: dict | None = None,
) -> PDG:
    """Edge (i, j): the current value of variable i is a potential
    precondition or potential dependent of DTG j."""
    n = task.num_variables
    goal_values = [task.goal.value_of(v) for v in range(n)]
    edges: set[tuple[int, int]] = set()

    for j in range(n):
        desc_edges, _ = _descendants(dtgs, goal_values, j, state[j], cache)
        # potential precondition: an action driving a still-relevant
        # transition of G_j requires variable i at its current value
        for e in desc_edges:
            for o in e.actions:
                for i, val in task.actions[o].precondition:
                    if i != j and state[i] == val:
                        edges.add((i, j))

    for i in range(n):
        # potential dependent: an action moving G_i off its current value
        # requires a still-reachable value of G_j
        for e in dtgs[i].edges_leaving(state[i]):
            for o in e.actions:
                for j, w in task.actions[o].precondition:
                    if j == i:
                        continue
                    _, desc_verts = _descendants(dtgs, goal_values, j, state[j], cache)
                    if w in desc_verts:
                        edges.add((i, j))
                # co-movement: the same action also writes G_j, so a
                # closure containing G_i may execute it and move G_j;
                # without this tie an outside writer of G_j breaks the
                # front-swap condition (effects need not carry
                # own-variable preconditions, so no other rule fires)
                for j in task.actions[o].effect.variables:
                    if j != i:
                        edges.add((i, j))

    return PDG(state, n, frozenset(edges))


def strongly_connected_components(
    num_nodes: int, successors: dict[int, list[int]]
) -> list[list[int]]:
    """Iterative Tarjan; each component is sorted, order is emission order."""
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(num_nodes):
        if root in index_of:
            continue
        work = [(root, iter(successors.get(root, ())))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    component.append(w)
                    if w == node:
                        break
                components.append(sorted(component))
    return components


def stratify(
    task: Task,
    causal_graph: CausalGraph | None = None,
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
    sccs = strongly_connected_components(n, causal_graph.successors())
    scc_of = {}
    for idx, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = idx

    succ: dict[int, set[int]] = defaultdict(set)
    pred_count: dict[int, int] = defaultdict(int)
    for u, w in causal_graph.edges:
        su, sw = scc_of[u], scc_of[w]
        if su != sw and sw not in succ[su]:
            succ[su].add(sw)
            pred_count[sw] += 1

    level = [1] * len(sccs)
    ready = [i for i in range(len(sccs)) if pred_count[i] == 0]
    remaining = dict(pred_count)
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in succ[i]:
            level[j] = max(level[j], level[i] + 1)
            remaining[j] -= 1
            if remaining[j] == 0:
                ready.append(j)

    if tie_break == "distinct":
        ranked = sorted(range(len(sccs)), key=lambda i: (level[i], -min(sccs[i])))
        level = [0] * len(sccs)
        for pos, i in enumerate(ranked, start=1):
            level[i] = pos

    variable_level = tuple(level[scc_of[v]] for v in range(n))
    action_level = []
    for action in task.actions:
        levels = {variable_level[v] for v in action.effect.variables}
        if len(levels) != 1:
            raise MixedEffectLevels(action.id)
        action_level.append(levels.pop())
    return Stratification(variable_level, tuple(action_level))


def closure_prefix_order(
    num_nodes: int, edges: frozenset[tuple[int, int]]
) -> list[list[int]]:
    """SCCs ordered sinks-first so that every prefix has no outgoing edge.

    Deterministic: among ready components the one containing the smallest
    node is emitted first.
    """
    succ: dict[int, list[int]] = defaultdict(list)
    for u, w in edges:
        succ[u].append(w)
    sccs = strongly_connected_components(num_nodes, succ)
    scc_of = {}
    for idx, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = idx

    out_succ: dict[int, set[int]] = defaultdict(set)
    in_pred: dict[int, set[int]] = defaultdict(set)
    for u, w in edges:
        su, sw = scc_of[u], scc_of[w]
        if su != sw:
            out_succ[su].add(sw)
            in_pred[sw].add(su)

    remaining = {i: len(out_succ[i]) for i in range(len(sccs))}
    ready = [(min(comp), i) for i, comp in enumerate(sccs) if remaining[i] == 0]
    heapq.heapify(ready)
    order: list[list[int]] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(sccs[i])
        for p in in_pred[i]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(ready, (min(sccs[p]), p))
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


def causal_graph_to_dot(task: Task, cg: CausalGraph) -> str:
    nodes = [f'"{v.name}";' for v in task.variables]
    edges = [
        f'"{task.variables[u].name}" -> "{task.variables[w].name}";'
        for u, w in sorted(cg.edges)
    ]
    return _dot("causal_graph", nodes, edges)


def asg_to_dot(task: Task, asg: ASG) -> str:
    nodes = [f'"{a.name}";' for a in task.actions]
    edges = [
        f'"{task.actions[a].name}" -> "{task.actions[b].name}";'
        for a, b in sorted(asg.edges)
    ]
    return _dot("action_support_graph", nodes, edges)


def pdg_to_dot(task: Task, pdg: PDG) -> str:
    nodes = [f'"{v.name}";' for v in task.variables]
    edges = [
        f'"{task.variables[i].name}" -> "{task.variables[j].name}";'
        for i, j in sorted(pdg.edges)
    ]
    return _dot("potential_dependency_graph", nodes, edges)
