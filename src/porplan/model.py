"""SAS+ task model: variables, states, actions, plans, the action index.

Off the search path a state is its dense value tuple: position i holds
the value of variable i, and State is that tuple type, named for
annotations. The engine, the heuristics, the strategies and the
per-state graph builders take its fact set (ActionIndex.fact_set).
Partial assignments are sorted (variable, value) pair tuples. Each Task
builds one ActionIndex at construction, which holds the action relations
(applicability, support, conflicts, readers and writers) as bit masks;
the search engine, the heuristics, the graph builders and the strategies
all read it. All types are immutable after construction and safe to
share across threads; the operations below are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, compress, count
from operator import add, and_, or_
from typing import Iterable, Iterator


# a total assignment: position i holds the current value of variable i
State = tuple[int, ...]


class InvalidTask(ValueError):
    """A task component violates a structural invariant."""


class NotApplicable(Exception):
    """An action was applied in a state where its precondition fails."""


class NotApplicableAt(NotApplicable):
    """A plan step is not applicable; carries the failing step index."""

    def __init__(self, step: int, action_id: int) -> None:
        super().__init__(f"plan step {step} (action {action_id}) is not applicable")
        self.step = step
        self.action_id = action_id


class GoalNotReached(Exception):
    """A plan executed to completion but its final state misses the goal."""


@dataclass(frozen=True)
class Variable:
    """A multi-valued state variable with a finite domain."""

    id: int
    name: str
    domain_size: int
    value_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise InvalidTask(f"variable {self.name!r}: domain must be non-empty")
        if not self.value_names:
            names = tuple(f"{self.name}={v}" for v in range(self.domain_size))
            object.__setattr__(self, "value_names", names)
        if len(self.value_names) != self.domain_size:
            raise InvalidTask(
                f"variable {self.name!r}: {len(self.value_names)} value names "
                f"for domain size {self.domain_size}"
            )


@dataclass(frozen=True)
class PartialAssignment:
    """A set of (variable, value) entries, at most one entry per variable,
    sorted, with their variables in that order. of_map builds one from a
    dict, whose keys are distinct already, without the duplicate check."""

    entries: tuple[tuple[int, int], ...]
    variables: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_var: dict[int, int] = {}
        for var, val in self.entries:  # a variable twice: raise unless equal
            if by_var.setdefault(var, val) != val:
                raise InvalidTask(f"variable {var} assigned both {by_var[var]} and {val}")
        self._store(by_var)

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]] = ()) -> PartialAssignment:
        return cls(tuple(pairs))

    @classmethod
    def of_map(cls, by_var: dict[int, int]) -> PartialAssignment:
        return object.__new__(cls)._store(by_var)

    def _store(self, by_var: dict[int, int]) -> PartialAssignment:
        entries = sorted(by_var.items())
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "variables", tuple([v for v, _ in entries]))
        return self

    def value_of(self, var: int) -> int | None:
        for v, val in self.entries:
            if v == var:
                return val
        return None

    def holds_in(self, state: State) -> bool:
        for v, val in self.entries:
            if state[v] != val:
                return False
        return True

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass(frozen=True)
class Action:
    """An action with precondition/effect partial assignments and a cost."""

    id: int
    name: str
    precondition: PartialAssignment
    effect: PartialAssignment
    cost: int = 1

    def __post_init__(self) -> None:
        if not self.effect.entries:
            raise InvalidTask(f"action {self.name!r}: empty effect")
        if self.cost < 0:
            raise InvalidTask(f"action {self.name!r}: negative cost")


@dataclass(frozen=True)
class Plan:
    """A sequence of action ids with its summed cost."""

    steps: tuple[int, ...]
    cost: int


# bin() digits to the bytes 0/1, so compress() can pick out the set bits
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(mask: int) -> bytes:
    """Byte i is 1 iff bit i of the non-negative mask is set, up to its highest
    set bit: compress(table, bit_flags(mask)) picks a per-bit table's entries."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def ids(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a non-negative mask, ascending."""
    # a list first: a tuple grown from an iterator is resized, and CPython
    # then parks it in the free list of its final size instead of reusing
    # it (about 1 MB more peak memory over a SAC corpus run)
    return tuple([*compress(count(), bit_flags(mask))])


def _inverse(size: int, keys_of: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """For each key below size, the ascending positions whose keys hold it."""
    lists: list[list[int]] = [[] for _ in range(size)]
    for position, keys in enumerate(keys_of):
        for key in keys:
            lists[key].append(position)
    return tuple(map(tuple, lists))


def _masks(lists: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """The bit mask of each id list."""
    return tuple([sum(map((1).__lshift__, members)) for members in lists])


class ActionIndex:
    """The action tables of one task, built once with the Task.

    Fact (var, value) has the dense id offsets[var] + value; offsets[-1]
    is the number of facts, var_of[f] the variable of fact f, and
    variable_facts[var] the mask of var's facts. Per action a:
    pre_facts[a] and eff_facts[a] hold the fact ids of its precondition
    and effect, ascending, and pre_count[a] the precondition size. Per
    fact: consumers, the ascending actions whose precondition needs it.

    Fact and action sets are bit masks, bit f for fact f, bit a for
    action a; ids() reads one out. Per action a: pre_bits[a], adds[a] (its
    effect facts) and keep[a] (all facts but its effect variables'), so a
    applies to a state's fact set F iff F & pre_bits[a] == pre_bits[a] and
    yields F & keep[a] | adds[a]; goal_bits holds the goal facts and
    goal_variable_facts every fact of a goal variable, so F &
    goal_variable_facts & ~goal_bits is the held fact of each unachieved
    goal variable. Per fact: achiever_masks (the effect sets it),
    consumer_masks and compatible (no precondition entry contradicts it).
    Per variable: writer_masks and reader_masks. leaving[f], f = (v, x),
    is v's writers compatible with f: the DTG transitions leaving x, V0
    ones included. Per action a: support (the achievers of a's
    precondition facts), pre_conflicts and eff_conflicts (the actions
    b != a whose precondition, or effect, contradicts eff(a)).
    """

    def __init__(self, task: Task) -> None:
        variables, actions = task.variables, task.actions
        sizes = [var.domain_size for var in variables]
        off = self.offsets = tuple(accumulate(sizes, initial=0))
        self.var_of = var_of = tuple([v for v, size in enumerate(sizes) for _ in range(size)])
        self.variable_facts = own = tuple([(1 << b) - (1 << a) for a, b in zip(off, off[1:])])
        self.pre_facts = tuple(
            [tuple([off[v] + x for v, x in a.precondition.entries]) for a in actions]
        )
        eff_facts = tuple([tuple([off[v] + x for v, x in a.effect.entries]) for a in actions])
        self.eff_facts, self.pre_count = eff_facts, tuple(map(len, self.pre_facts))
        self.pre_bits, self.adds = _masks(self.pre_facts), _masks(eff_facts)
        every = (1 << off[-1]) - 1  # the mask of all facts
        self.keep = tuple([every ^ sum(map(own.__getitem__, a.effect.variables)) for a in actions])
        self.goal_bits = sum(1 << off[v] + x for v, x in task.goal.entries)
        self.goal_variable_facts = sum(own[v] for v in task.goal.variables)
        self.consumers = _inverse(off[-1], self.pre_facts)
        self.consumer_masks = needs = _masks(self.consumers)
        self.achiever_masks = achievers = _masks(_inverse(off[-1], eff_facts))
        # per variable, the OR over its facts: the actions writing it, and
        # the actions reading it, as an action reads a variable at most once
        slices = list(map(slice, off, off[1:]))
        self.writer_masks = writers = tuple([reduce(or_, achievers[s]) for s in slices])
        self.reader_masks = reads = tuple([reduce(or_, needs[s]) for s in slices])
        self._all = everything = (1 << len(actions)) - 1
        self.compatible = tuple([everything & ~reads[v] | needs[f] for f, v in enumerate(var_of)])
        self.leaving = tuple([writers[v] & c for v, c in zip(var_of, self.compatible)])
        self.support = tuple([reduce(or_, map(achievers.__getitem__, p), 0) for p in self.pre_facts])
        # per fact f = (v, x): the actions whose precondition, or effect,
        # contradicts it, OR-ed over an action's (never empty) effect facts
        pre_row = [everything ^ c for c in self.compatible]
        eff_row = [writers[v] & ~achievers[f] for f, v in enumerate(var_of)]
        self.pre_conflicts = tuple(
            [reduce(or_, map(pre_row.__getitem__, e)) & ~(1 << a) for a, e in enumerate(eff_facts)]
        )
        self.eff_conflicts = tuple([reduce(or_, map(eff_row.__getitem__, e)) for e in eff_facts])

    def fact_set(self, values: tuple[int, ...]) -> int:
        """The fact set of the state values."""
        return sum(map((1).__lshift__, map(add, self.offsets, values)))

    def applicable_mask(self, facts: int, held: bytes | None = None) -> int:
        """Bit a is set iff action a is applicable in the state with fact
        set facts; held is bit_flags(facts), when the caller already has it."""
        return reduce(and_, compress(self.compatible, held or bit_flags(facts)), self._all)


@dataclass(frozen=True)
class Task:
    """A full SAS+ instance.

    The optimization preference is fixed to summed action cost; with
    uses_metric off every action costs 1 and plan cost equals plan length.
    An action's entries are tested against the set of valid (variable,
    value) pairs at once, and walked one by one only to word an error.
    """

    variables: tuple[Variable, ...]
    actions: tuple[Action, ...]
    initial: State
    goal: PartialAssignment
    uses_metric: bool = False
    index: ActionIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.variables)
        for i, var in enumerate(self.variables):
            if var.id != i:
                raise InvalidTask(f"variable {var.name!r} has id {var.id}, expected {i}")
        # the oracle keys its state tables on the value tuple, so it must hash
        if not isinstance(self.initial, tuple):
            raise InvalidTask("initial state must be a tuple of values")
        if len(self.initial) != n:
            raise InvalidTask("initial state length differs from variable count")
        self._check_assignment(enumerate(self.initial), "initial state")
        self._check_assignment(self.goal, "goal")
        facts = {(v, x) for v, var in enumerate(self.variables) for x in range(var.domain_size)}
        for i, action in enumerate(self.actions):
            if action.id != i:
                raise InvalidTask(f"action {action.name!r} has id {action.id}, expected {i}")
            pre, eff = action.precondition.entries, action.effect.entries
            if not (facts.issuperset(pre) and facts.issuperset(eff)):
                self._check_assignment(pre, f"precondition of {action.name!r}")
                self._check_assignment(eff, f"effect of {action.name!r}")
            if not self.uses_metric and action.cost != 1:
                raise InvalidTask(
                    f"action {action.name!r}: cost {action.cost} without a metric"
                )
        object.__setattr__(self, "index", ActionIndex(self))

    def _check_assignment(self, entries: Iterable[tuple[int, int]], where: str) -> None:
        for var, val in entries:
            if not 0 <= var < len(self.variables):
                raise InvalidTask(f"{where}: unknown variable {var}")
            if not 0 <= val < self.variables[var].domain_size:
                raise InvalidTask(f"{where}: value {val} out of domain of variable {var}")

    @property
    def num_variables(self) -> int:
        return len(self.variables)


def applicable(state: State, action: Action) -> bool:
    """True iff every precondition entry of the action holds in the state."""
    return action.precondition.holds_in(state)


def apply_action(state: State, action: Action) -> State:
    """Apply the action; effect variables take their effect values.

    Raises NotApplicable when the precondition fails.
    """
    if not applicable(state, action):
        raise NotApplicable(f"action {action.name!r} is not applicable")
    values = list(state)
    for var, val in action.effect:
        values[var] = val
    return tuple(values)


def is_goal(task: Task, state: State) -> bool:
    """True iff every goal entry holds in the state."""
    return task.goal.holds_in(state)


def plan_cost(task: Task, steps: Iterable[int]) -> int:
    return sum(task.actions[a].cost for a in steps)


def validate_plan(task: Task, steps: Iterable[int]) -> Plan:
    """Check stepwise applicability from the initial state and the goal.

    Raises NotApplicableAt(step) on the first inapplicable step, a step
    outside the action ids 0..len(actions)-1 included, and GoalNotReached
    when the final state is not a goal state.
    """
    steps = tuple(steps)
    state = task.initial
    for i, action_id in enumerate(steps):
        if not 0 <= action_id < len(task.actions):
            raise NotApplicableAt(i, action_id)
        try:
            state = apply_action(state, task.actions[action_id])
        except NotApplicable:
            raise NotApplicableAt(i, action_id) from None
    if not is_goal(task, state):
        raise GoalNotReached(f"final state {state} misses the goal")
    return Plan(steps, plan_cost(task, steps))
