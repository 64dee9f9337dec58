"""Per-state expansion-set generators: full, EC, SP filtering, SAC.

Each strategy answers one question at a state s, given as its fact set F
(ActionIndex.fact_set): which applicable actions may the search apply.
Each kind is defined once, by the expansion method of its class behind
the ExpansionStrategy protocol; make_bare_strategy builds it.
FullStrategy ("none") returns every applicable action (full_expansion).
EcStrategy keeps the applicable actions that write a dependency-closed
DTG prefix of the potential dependency graph. SacStrategy closes a
landmark action set under ASG support and conflict rules (sac_fixpoint)
and keeps the applicable members. SpStrategy keeps the applicable
actions in the per-task table row of the action that generated the node:
those at or above its causal-graph level, and its follow-ups. Each
expansion set is one expression over the index's action bit masks: it
computes the state's applicability mask once and reads the chosen ids
out of the result once, with ids(). is_left_commutative, the syntactic
left-commutativity criterion, reads the same index conflict tables as
SAC's closure.

Every kind is built as cls(task). The none and SAC objects hold only
their task, EC also its PDG table and SP its stratification and keep
table; none of them changes after construction, so concurrent searches
can share one. make_strategy wraps ec and sac in an AdaptiveStrategy,
which falls back to full expansion for the rest of a search when the
bare strategy pruned too little in the first few expansions after the
root. It holds per-search counters, so each concurrent search needs its
own wrapper.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from operator import or_
from typing import Hashable, NamedTuple, Protocol

from .graphs import build_pdg, closure_prefix_order, potential_masks, stratify
from .model import State, Task, bit_flags, ids


class NoUnachievedGoal(Exception):
    """Expansion was requested at a state that already satisfies the goal."""


class InvalidPath(Exception):
    """The ordered action pair is not applicable in sequence at the state."""


class ExpansionContext(NamedTuple):
    """A node the search is about to expand.

    state is the node's fact set (ActionIndex.fact_set); generating_action
    is the action that produced the node, None exactly at the search root.
    """

    state: int
    generating_action: int | None = None


def full_expansion(task: Task, facts: int) -> tuple[int, ...]:
    """All applicable action ids, ascending."""
    return ids(task.index.applicable_mask(facts))


def landmark_action_set(task: Task, facts: int) -> int:
    """Mask of actions of which every solution from the state must use one.

    Picks one unachieved goal-related DTG and takes the actions on its
    transitions leaving the current value, V0-source transitions included
    (an action without an own-variable precondition can be the first
    mover): the variable's writers compatible with its current value. The
    DTG with the fewest such actions wins, ties to the lowest variable id.
    """
    index = task.index
    unachieved = facts & index.goal_variable_facts & ~index.goal_bits
    if not unachieved:
        raise NoUnachievedGoal("state satisfies the goal")
    # ascending fact ids are ascending variables, and min keeps the first
    return min(compress(index.leaving, bit_flags(unachieved)), key=int.bit_count)


def sac_fixpoint(task: Task, facts: int, seed_mask: int, applicable: int) -> int:
    """Joint support/conflict closure of a seed action mask.

    Two rules, each applied once per member when it enters the set: an
    inapplicable member a pulls in support[a], every action supplying one
    of its precondition entries (ASG support closure), and an applicable
    member a pulls in every b whose effect conflicts with eff(a), or whose
    precondition both conflicts with eff(a) and has an entry holding in
    the state (conflict closure). Both rules depend only on the member and
    the state, so closing in rounds reaches the unique least fixpoint.
    applicable is the state's applicability mask.
    """
    index = task.index
    touching = reduce(or_, compress(index.consumer_masks, bit_flags(facts)), 0)
    members = new = seed_mask
    while new:
        pulled = 0
        for a in ids(new):
            if applicable >> a & 1:
                pulled |= index.eff_conflicts[a] | index.pre_conflicts[a] & touching
            else:
                pulled |= index.support[a]
        new = pulled & ~members
        members |= new
    return members


def is_left_commutative(task: Task, state: State, first: int, second: int) -> bool:
    """Decide whether the pair may be swapped in front at the state.

    Requires (first, second) to be a valid path at the state; raises
    InvalidPath otherwise. True iff neither precondition conflicts with
    the other's effect, the effects agree, and second is applicable at the
    state directly, which is exactly "both orders are valid and reach the
    same state". Decided on the action index alone: applicability from
    pre_bits, keep and adds, conflicts from the pre_conflicts and
    eff_conflicts tables SAC's closure reads.
    """
    index = task.index
    pre, facts = index.pre_bits, index.fact_set(state)
    if facts & pre[first] != pre[first]:
        raise InvalidPath(f"{task.actions[first].name!r} is not applicable")
    if (facts & index.keep[first] | index.adds[first]) & pre[second] != pre[second]:
        a, b = task.actions[first].name, task.actions[second].name
        raise InvalidPath(f"{b!r} is not applicable after {a!r}")
    conflicts = (
        index.pre_conflicts[second] >> first
        | index.pre_conflicts[first] >> second
        | index.eff_conflicts[first] >> second
    )
    return not conflicts & 1 and facts & pre[second] == pre[second]


class ExpansionStrategy(Protocol):
    """A per-state expansion-set generator bound to one task.

    expansion(ctx) returns the action ids to apply at the node, ascending;
    it is not defined on goal states, which the search tests before
    expanding. The search keys every node by its fact set, so task and
    expansion are the whole protocol: any object with these two members
    can stand in for the classes below.
    """

    task: Task

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]: ...

    # read by nothing in src/; perfbench's TracedStrategy copies it (ROADMAP item 13)
    def node_key(self, facts: int, generating_action: int | None) -> Hashable:
        return facts


class FullStrategy(ExpansionStrategy):
    """"none": every applicable action."""

    def __init__(self, task: Task) -> None:
        self.task = task

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]:
        return full_expansion(self.task, ctx.state)


class EcStrategy(ExpansionStrategy):
    """"ec": the applicable actions of a minimal dependency-closed DTG
    prefix, ascending.

    SCCs of PDG(s) are ordered sinks-first (every prefix then is a
    dependency closure); the prefix stops at the first component holding
    an unachieved goal-related DTG, and the rest of the condensation is
    never computed. The condensation's nodes are the held facts, one per
    variable, in variable order. self.table is the task's potential_masks.
    """

    def __init__(self, task: Task) -> None:
        self.task = task
        self.table = potential_masks(task)

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]:
        facts, index = ctx.state, self.task.index
        unachieved = facts & index.goal_variable_facts & ~index.goal_bits
        if not unachieved:
            raise NoUnachievedGoal("state satisfies the goal")
        held = bit_flags(facts)
        successors = dict(zip(compress(count(), held), build_pdg(facts, self.table, held)))
        prefix = 0
        for component in closure_prefix_order(successors, facts):
            prefix |= component
            if component & unachieved:
                break
        # an applicable action is compatible with every held fact, so the ones
        # writing a prefix variable are exactly the applicable ones in leaving
        leaving = reduce(or_, compress(index.leaving, bit_flags(prefix)), 0)
        return ids(index.applicable_mask(facts, held) & leaving)


class SpStrategy(ExpansionStrategy):
    """"sp": the applicable actions that may follow the generating action
    on an SP-path, ascending.

    b may follow a iff level(b) >= level(a) or eff(a) shares an entry with
    pre(b) or eff(b). self.keep[a] is the mask of those b, built once per
    task: at_or_above[level(a)] and the consumers of a's effect facts. A b
    sharing an effect entry with a writes one of a's effect variables, so
    it has a's level (see stratify) and needs no term of its own. At the
    root every applicable action is kept. The search keys nodes by their
    fact set alone, so each state is one node, expanded after the
    generating action its search record holds.
    """

    def __init__(self, task: Task) -> None:
        self.task = task
        self.stratification = strat = stratify(task)
        at_or_above, consumers = strat.at_or_above, task.index.consumer_masks
        keep = []
        for floor, eff in zip(strat.action_level, task.index.eff_facts):
            row = at_or_above[floor]
            for f in eff:
                row |= consumers[f]
            keep.append(row)
        self.keep = tuple(keep)

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]:
        applicable = self.task.index.applicable_mask(ctx.state)
        gen = ctx.generating_action
        return ids(applicable if gen is None else applicable & self.keep[gen])


class SacStrategy(ExpansionStrategy):
    """"sac": the applicable members of the joint closure of a landmark
    action set, ascending."""

    def __init__(self, task: Task) -> None:
        self.task = task

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]:
        task, facts = self.task, ctx.state
        landmarks = landmark_action_set(task, facts)
        applicable = task.index.applicable_mask(facts)
        return ids(applicable & sac_fixpoint(task, facts, landmarks, applicable))


_STRATEGIES = {"none": FullStrategy, "ec": EcStrategy, "sp": SpStrategy, "sac": SacStrategy}
KINDS = tuple(_STRATEGIES)
ADAPTIVE_WINDOW = 3  # expansions after each search's root that decide the switch-off
MIN_PRUNING = 0.2  # least pruned share of the window's applicable actions


class AdaptiveStrategy:
    """A bare strategy that falls back to full expansion when it prunes
    too little.

    For ADAPTIVE_WINDOW expansions after each search's root (the node
    whose generating action is None, which is not measured) it answers
    with the bare strategy and sums the chosen and applicable counts. If
    under MIN_PRUNING of the applicable actions were pruned, it answers
    with full_expansion for the rest of the search, else with the bare
    strategy. Every expansion set contains the bare one, so A* with ec or
    sac stays optimal. The counters are per search: one wrapper serves
    several searches in sequence with the same results, but never two at
    once.
    """

    def __init__(self, inner: ExpansionStrategy) -> None:
        self.inner = inner
        self.task = inner.task
        # read by nothing in src/; perfbench's TracedStrategy copies it (ROADMAP item 13)
        self.node_key = inner.node_key
        self.full = FullStrategy(inner.task)
        # the decided expansion, None inside the window; never a method of
        # self, so the wrapper holds no reference cycle
        self.decided = None
        self.seen = self.chosen = self.applicable = 0

    def expansion(self, ctx: ExpansionContext) -> tuple[int, ...]:
        decided = self.decided
        if decided is not None and ctx.generating_action is not None:
            return decided(ctx)
        chosen = self.inner.expansion(ctx)
        if ctx.generating_action is None:
            self.decided = None
            self.seen = self.chosen = self.applicable = 0
            return chosen
        self.seen += 1
        self.chosen += len(chosen)
        self.applicable += self.task.index.applicable_mask(ctx.state).bit_count()
        if self.seen == ADAPTIVE_WINDOW:
            pruned = self.applicable - self.chosen
            keep = pruned >= MIN_PRUNING * self.applicable
            self.decided = self.inner.expansion if keep else self.full.expansion
        return chosen


def make_bare_strategy(task: Task, kind: str) -> ExpansionStrategy:
    """The strategy of the given kind, one of KINDS, bound to the task,
    without the adaptive switch-off: the object the oracle checks.
    Immutable, so concurrent searches can share it."""
    try:
        cls = _STRATEGIES[kind]
    except KeyError:
        raise ValueError(f"unknown strategy kind {kind!r}") from None
    return cls(task)


def make_strategy(task: Task, kind: str) -> ExpansionStrategy:
    """make_bare_strategy's object, wrapped in an AdaptiveStrategy if kind
    is ec or sac. SP's expansion set costs one AND more than none's, so
    the switch-off has nothing to save there. The wrapper holds per-search
    counters: build one per concurrent search."""
    strategy = make_bare_strategy(task, kind)
    return AdaptiveStrategy(strategy) if kind in ("ec", "sac") else strategy
