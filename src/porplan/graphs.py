"""Derived graph structures: DTGs, causal graph, ASG, PDG, condensation, stratification.

Domain transition graphs carry a sentinel source vertex V0 for actions
whose effect touches the variable but whose precondition does not mention
it; they are built for inspection and DOT output. The PDG reads a fact
table instead (potential_masks), built once per task from the DTG steps
in the action index, where an action without a precondition on a
variable leaves every value of it, as a V0 edge does. Paths are walks;
repetition is allowed.

The causal graph is one successor bit mask per variable, which stratify
condenses and build_causal_graph reads out as variable pairs; the ASG is
a frozenset of action-id pairs. The PDG is one successor bit mask per
variable over the held facts, one n-AND lookup in the table per state;
pdg_edges reads it out as variable pairs. DTGs, the table and the
stratification are immutable and built once per task. EC and SP share
one lazy condensation, `closure_prefix_order`, walking node bits lowest first.
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

    It is built from the action index and reached_from[w], for each fact
    w of a variable j the values of j whose walks visit w. An action
    writing j steps from its precondition value on j, the fact
    pre_bits[a] & variable_facts[j], to its effect value, or from every
    value when it has no precondition on j (a V0 edge). A value is onward when some walk
    from it visits j's goal value (every value when j has none). Per action
    a, relevant holds the facts (j, v) where a moves j into an onward value
    and leaves a value some walk from v visits; dependent holds the facts
    of every variable a writes, and the facts (j, v) where a walk from v
    visits an onward value that a consumes. The table ORs relevant into the
    row of each precondition fact of a, and dependent into the row of each
    fact of a written variable that a is compatible with.
    """
    index = task.index
    off, own, var_of = index.offsets, index.variable_facts, index.var_of
    everything = (1 << off[-1]) - 1
    # fact w: w and the facts with a DTG step to w, every fact of w's variable
    # for a V0 step; then, after Warshall, every fact whose walks visit w
    reached_from = [1 << w for w in range(off[-1])]
    for pre, keep, effs in zip(index.pre_bits, index.keep, index.eff_facts):
        moved = pre & ~keep  # the precondition facts on effect variables
        for e in effs:
            reached_from[e] |= moved & own[var_of[e]] or own[var_of[e]]
    for j in range(len(own)):  # Warshall: what reaches k reaches all k reaches
        facts = range(off[j], off[j + 1])
        for k in facts:
            row = reached_from[k]
            for v in facts:
                if reached_from[v] >> k & 1:
                    reached_from[v] |= row
    goals = map(reached_from.__getitem__, ids(index.goal_bits))
    onward = reduce(or_, goals, everything ^ index.goal_variable_facts)

    table = [0] * off[-1]
    any_value = [0] * len(own)  # the part of the rows shared by every fact of a variable
    rows = zip(index.pre_bits, index.keep, index.pre_facts, index.eff_facts)
    for pre, keep, pre_facts, effs in rows:
        dependent = everything ^ keep  # the facts of a's effect variables
        moved = pre & dependent
        for f in pre_facts:
            if onward >> f & 1:
                dependent |= reached_from[f]
        relevant = 0
        for e in effs:
            j = var_of[e]
            if source := moved & own[j]:
                source = source.bit_length() - 1
                table[source] |= dependent
                if onward >> e & 1:
                    relevant |= reached_from[source]
            else:
                any_value[j] |= dependent
                if onward >> e & 1:
                    relevant |= own[j]
        for f in pre_facts:
            table[f] |= relevant
    # a row holds no fact of its own variable
    return tuple([(row | any_value[j]) & (everything ^ own[j]) for row, j in zip(table, var_of)])


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

    action_level = [variable_level[task.index.var_of[e[0]]] for e in task.index.eff_facts]
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
    the smallest node is emitted first: the first remaining node v, lowest
    bit first, whose component (v's remaining reach that reaches v back) is
    all of that reach. Emitted nodes reach no remaining one, so each reach
    is computed once, from successors[v]; only nodes it holds are read.
    """
    reach: dict[int, int] = {}
    remaining = nodes
    while remaining:
        pending = remaining
        while pending:  # the candidates, lowest bit first
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1
            if v not in reach:
                new = successors[v] & ~low
                r = low | new
                while new:
                    new = reduce(or_, map(successors.__getitem__, ids(new))) & ~r
                    r |= new
                reach[v] = r
            component = low
            rest = reach[v] & remaining & ~low
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
    """A plain digraph: nodes by their index, labelled with their name, so
    two nodes of one name stay apart; edges drawn in sorted order."""
    return _dot(
        name,
        [f"{i} [label={_quoted(n)}];" for i, n in enumerate(nodes)],
        [f"{u} -> {w};" for u, w in sorted(edges)],
    )
