"""Derived graph structures: DTGs, causal graph, ASG, PDG, condensation, stratification.

Domain transition graphs carry a sentinel source vertex V0 for actions
whose effect touches the variable but whose precondition does not mention
it; they are built for inspection and DOT output. The PDG reads a fact
table instead (potential_masks), built once per task from the actions'
DTG steps, where an action without a precondition on a variable leaves
every value of it, as a V0 edge does. Paths are walks; repetition is
allowed.

The causal graph is one successor bit mask per variable, which stratify
condenses and build_causal_graph reads out as variable pairs; the ASG is
a frozenset of action-id pairs. The PDG is one successor bit mask per
variable over the held facts, one n-AND lookup in the table per state;
pdg_edges reads it out as variable pairs. DTGs, the table and the
stratification are immutable and built once per task. EC and SP share
one condensation, the lazy `closure_prefix_order` over successor masks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .model import Task, bit_flags, ids

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


@dataclass(frozen=True)
class Stratification:
    """Causal-graph levels; no edge runs from a higher to a lower level."""

    variable_level: tuple[int, ...]
    action_level: tuple[int, ...]
    at_or_above: tuple[int, ...]  # per level l from 0 up: the actions of level >= l


def build_dtg(task: Task, var: int) -> DTG:
    """Transitions of one variable; parallel actions merge into one edge."""
    by_pair: dict[tuple[int, int], set[int]] = defaultdict(set)
    for a in ids(task.index.writer_masks[var]):
        action = task.actions[a]
        pre = action.precondition.value_of(var)
        source = V0 if pre is None else pre
        by_pair[(source, action.effect.value_of(var))].add(a)
    edges = tuple(
        DtgEdge(src, dst, frozenset(actions))
        for (src, dst), actions in sorted(by_pair.items())
    )
    return DTG(var, task.variables[var].domain_size, edges)


def _causal_successors(task: Task) -> list[int]:
    """The causal graph as one successor mask per variable x: bit y is set
    when y != x and some action writes x and reads or writes y."""
    writers = task.index.writer_masks
    touches = list(map(or_, task.index.reader_masks, writers))
    return [
        sum(1 << y for y, t in enumerate(touches) if w & t and x != y)
        for x, w in enumerate(writers)
    ]


def build_causal_graph(task: Task) -> frozenset[tuple[int, int]]:
    """Edge (x, y), x != y: some action writes x and reads or writes y."""
    return frozenset(
        (x, y) for x, succ in enumerate(_causal_successors(task)) for y in ids(succ)
    )


def build_asg(task: Task, facts: int) -> frozenset[tuple[int, int]]:
    """Action support graph at the state with fact set facts: edge (a, b)
    when a is not applicable and some effect entry of b is a precondition
    entry of a."""
    applicable = task.index.applicable_mask(facts)
    return frozenset(
        (a, b)
        for a, support in enumerate(task.index.support)
        if not applicable >> a & 1
        for b in ids(support)
    )


def potential_masks(task: Task) -> tuple[int, ...]:
    """The PDG successor table: for each fact f_i = (i, u), the mask of the
    facts f_j = (j, v), j != i, such that PDG(s) has the edge (i, j) in
    every state s holding both (see build_pdg).

    It is built per variable j from reach[v], the values some walk from v
    visits. An action writing j steps from its precondition value on j to
    its effect value, or from every value when it has no precondition on
    j (a V0 edge). A value is onward when some walk from it visits j's
    goal value (every value when j has none). Per action a, relevant holds
    the facts (j, v) where a moves j into an onward value and leaves a
    value of reach[v]; dependent holds the facts of every variable a
    writes, and the facts (j, v) where reach[v] holds an onward value that
    a consumes. The table ORs relevant into the row of each precondition
    fact of a, and dependent into the row of each fact of a written
    variable that a is compatible with.
    """
    off, own = task.index.offsets, task.index.variable_facts
    n = task.num_variables
    everything = (1 << off[-1]) - 1
    pres = [dict(action.precondition.entries) for action in task.actions]
    # DTG steps as masks of values: step[f] leaves fact f, free[j] every value of j
    step = [0] * off[-1]
    free = [0] * n
    for action, pre in zip(task.actions, pres):
        for j, w in action.effect:
            if j in pre:
                step[off[j] + pre[j]] |= 1 << w
            else:
                free[j] |= 1 << w
    reached_from = [0] * off[-1]  # fact (j, w): the facts (j, v) with w in reach[v]
    onward = [False] * off[-1]
    for j, goal in enumerate(map(task.goal.value_of, range(n))):
        o, d = off[j], off[j + 1] - off[j]
        reach = [1 << v | step[o + v] | free[j] for v in range(d)]
        for k in range(d):  # Warshall: what reaches k reaches all k reaches
            for v in range(d):
                if reach[v] >> k & 1:
                    reach[v] |= reach[k]
        for v in range(d):
            for w in range(d):
                if reach[v] >> w & 1:
                    reached_from[o + w] |= 1 << o + v
            onward[o + v] = goal is None or bool(reach[v] >> goal & 1)

    table = [0] * off[-1]
    any_value = [0] * n  # the part of the rows shared by every fact of a variable
    for action, pre, pre_facts in zip(task.actions, pres, task.index.pre_facts):
        relevant = dependent = 0
        for f in pre_facts:
            if onward[f]:
                dependent |= reached_from[f]
        for j, w in action.effect:
            dependent |= own[j]
            if onward[off[j] + w]:
                relevant |= reached_from[off[j] + pre[j]] if j in pre else own[j]
        for f in pre_facts:
            table[f] |= relevant
        for j, _ in action.effect:
            if j in pre:
                table[off[j] + pre[j]] |= dependent
            else:
                any_value[j] |= dependent
    # a row holds no fact of its own variable
    return tuple(
        (row | any_value[j]) & (everything ^ own[j])
        for j in range(n)
        for row in table[off[j] : off[j + 1]]
    )


def build_pdg(facts: int, table: Sequence[int], held: bytes | None = None) -> tuple[int, ...]:
    """Potential dependency graph over DTG indices at the state with fact
    set facts, as one successor mask per variable i over the held facts:
    bit f_j, j's fact in facts, is set when PDG(s) has the edge (i, j).
    table is the task's potential_masks, held is bit_flags(facts) if known;
    pdg_edges reads the masks out as (i, j) pairs.

    Edge (i, j), i != j: an action on a still-relevant transition of
    G_j requires variable i at its current value (potential precondition),
    or an action moving G_i off its current value requires a value G_j
    may still visit, or also writes j (potential dependent; without the
    co-movement tie an outside writer of G_j breaks the front-swap
    condition, since effects need not carry own-variable preconditions).
    """
    return tuple([row & facts for row in compress(table, held or bit_flags(facts))])


def pdg_edges(facts: int, pdg: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The (i, j) variable pairs of build_pdg's successor masks at facts."""
    var_of = {f: j for j, f in enumerate(ids(facts))}
    return frozenset((i, var_of[f]) for i, mask in enumerate(pdg) for f in ids(mask))


def stratify(task: Task) -> Stratification:
    """Level the task's causal graph; same-component variables share a level.

    Each component first gets its canonical level, 1 + the longest
    condensation path from a source; the components then get the distinct
    levels 1..K in that order, ties giving earlier variables the higher
    level (so on an edgeless graph variable 0 is the top level, as in the
    conventional walkthrough layering). An action writing x and y links
    them both ways, so its effect variables share a level, the action's.
    """
    succ = _causal_successors(task)
    n = len(succ)
    # reversed, the sinks-first order lists every component after all of
    # its predecessors; members of the component itself still read 0
    components = [(comp, ids(comp)) for comp in closure_prefix_order(succ, (1 << n) - 1)][::-1]
    variable_level = [0] * n  # canonical levels first
    for comp, members in components:
        level = 1 + max((variable_level[u] for u, s in enumerate(succ) if s & comp), default=0)
        for v in members:
            variable_level[v] = level
    # sorted reads every canonical level before the loop overwrites one
    ranked = sorted(components, key=lambda c: (variable_level[c[1][0]], -c[1][0]))
    for pos, (_, members) in enumerate(ranked, start=1):
        for v in members:
            variable_level[v] = pos

    action_level = [variable_level[action.effect.variables[0]] for action in task.actions]
    by_level = [0] * (max(action_level, default=0) + 1)
    for a, level in enumerate(action_level):
        by_level[level] |= 1 << a
    at_or_above = tuple(accumulate(reversed(by_level), or_))[::-1]
    return Stratification(tuple(variable_level), tuple(action_level), at_or_above)


def closure_prefix_order(
    successors: Mapping[int, int] | Sequence[int], nodes: int
) -> Iterator[int]:
    """The SCCs of a digraph as node masks, sinks first, so that no edge
    leaves any prefix; yielded lazily, so a caller that stops early skips
    the rest.

    The nodes are the set bits of nodes, and successors[v] is the mask of
    v's successors. Deterministic: among ready components (those whose
    edges all end in emitted components or in themselves) the one holding
    the smallest node is emitted first. That is the smallest remaining
    node v whose component, the nodes of v's remaining reach that reach v
    back, is all of that reach. The emitted nodes reach no remaining one,
    so each node's full reach is computed once.
    """
    reach: dict[int, int] = {}
    remaining = nodes
    while remaining:
        for v in ids(remaining):
            if v not in reach:
                r = new = 1 << v
                while new:
                    new = reduce(or_, map(successors.__getitem__, ids(new))) & ~r
                    r |= new
                reach[v] = r
            component = 1 << v
            rest = reach[v] & remaining & ~component
            grown = True
            while rest and grown:
                grown = False
                for w in ids(rest):
                    if successors[w] & component:
                        component |= 1 << w
                        grown = True
                rest &= ~component
            if not rest:
                break
        yield component
        remaining &= ~component


# ---------------------------------------------------------------------------
# DOT emission


def _quoted(text: str) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, nodes: list[str], edges: list[str]) -> str:
    body = "\n".join("  " + line for line in nodes + edges)
    return f"digraph {name} {{\n{body}\n}}\n"


def dtg_to_dot(task: Task, dtg: DTG) -> str:
    """Value nodes by their index, labelled with the value name, so no
    name can clash with the V0 source node "v0" or with another value."""
    names = task.variables[dtg.variable].value_names
    nodes = ['"v0" [shape=diamond];'] + [f"{v} [label={_quoted(n)}];" for v, n in enumerate(names)]
    edges = []
    for e in dtg.edges:
        src = '"v0"' if e.source == V0 else e.source
        label = _quoted(",".join(task.actions[a].name for a in sorted(e.actions)))
        edges.append(f"{src} -> {e.target} [label={label}];")
    return _dot(f"dtg_{dtg.variable}", nodes, edges)


def graph_to_dot(name: str, nodes: Sequence[str], edges: Iterable[tuple[int, int]]) -> str:
    """A plain digraph: node labels by index, edges as index pairs drawn
    in sorted order."""
    quoted = [_quoted(n) for n in nodes]
    return _dot(
        name,
        [f"{n};" for n in quoted],
        [f"{quoted[u]} -> {quoted[w]};" for u, w in sorted(edges)],
    )
