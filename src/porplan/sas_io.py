"""Reader and writer for translator output files (.sas, format version 3).

The reader is total: any input yields either a Task or a structured error
carrying a 1-based line number. Section order is fixed: version, metric,
variables, mutex groups (checked, then dropped), initial state, goal,
operators, axiom count. Operator prevail conditions and pre/post
pairs are merged into precondition/effect assignments; a pre value of -1
contributes no precondition entry. Axioms and conditional effects are
rejected.
"""

from __future__ import annotations

from .model import Action, PartialAssignment, Task, Variable


class SasError(Exception):
    """Base class for reader errors; line is 1-based when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SasSyntaxError(SasError):
    def __init__(self, line: int, expected: str) -> None:
        self.expected = expected
        super().__init__(f"expected {expected}", line)


class UnsupportedVersion(SasError):
    def __init__(self, version: int, line: int | None = None) -> None:
        self.version = version
        super().__init__(f"unsupported format version {version}", line)


class UnsupportedFeature(SasError):
    def __init__(self, feature: str, line: int | None = None) -> None:
        self.feature = feature
        super().__init__(f"unsupported feature: {feature}", line)


class SasRangeError(SasError):
    """A variable index or value outside its declared range."""


class _Cursor:
    """Line cursor with 1-based positions for error reporting."""

    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expected: str) -> str:
        if self.pos >= len(self.lines):
            raise SasSyntaxError(len(self.lines) + 1, expected)
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    @property
    def line_no(self) -> int:
        return self.pos  # number of the line just consumed

    def expect(self, literal: str) -> None:
        if self.next(repr(literal)) != literal:
            raise SasSyntaxError(self.line_no, repr(literal))

    def read_int(self, what: str, low: int | None = None) -> int:
        token = self.next(what)
        try:
            value = int(token)
        except ValueError:
            raise SasSyntaxError(self.line_no, what) from None
        if low is not None and value < low:
            raise SasSyntaxError(self.line_no, f"{what} of at least {low}")
        return value

    def read_ints(self, count: int, what: str) -> tuple[int, ...]:
        tokens = self.next(what).split()
        try:
            values = tuple(int(t) for t in tokens)
        except ValueError:
            raise SasSyntaxError(self.line_no, what) from None
        if len(values) != count:
            raise SasSyntaxError(self.line_no, what)
        return values


def _check_fact(cursor: _Cursor, variables: tuple[Variable, ...], var: int, val: int) -> None:
    if not 0 <= var < len(variables):
        raise SasRangeError(f"variable index {var} out of range", cursor.line_no)
    if not 0 <= val < variables[var].domain_size:
        raise SasRangeError(
            f"value {val} out of domain of variable {var}", cursor.line_no
        )


def parse_sas(text: str) -> Task:
    """Parse a complete .sas document into a Task."""
    c = _Cursor(text)

    c.expect("begin_version")
    version = c.read_int("a version number")
    if version != 3:
        raise UnsupportedVersion(version, c.line_no)
    c.expect("end_version")

    c.expect("begin_metric")
    metric = c.read_int("a metric flag")
    if metric not in (0, 1):
        raise SasSyntaxError(c.line_no, "a metric flag of 0 or 1")
    c.expect("end_metric")

    num_vars = c.read_int("a variable count", low=0)
    variables: list[Variable] = []
    for i in range(num_vars):
        c.expect("begin_variable")
        name = c.next("a variable name")
        layer = c.read_int("an axiom layer")
        if layer != -1:
            raise UnsupportedFeature("axioms", c.line_no)
        size = c.read_int("a domain size", low=1)
        names = tuple(c.next("a value name") for _ in range(size))
        c.expect("end_variable")
        variables.append(Variable(i, name, size, names))
    var_tuple = tuple(variables)

    num_mutexes = c.read_int("a mutex group count", low=0)
    for _ in range(num_mutexes):
        c.expect("begin_mutex_group")
        size = c.read_int("a mutex group size", low=0)
        for _ in range(size):
            var, val = c.read_ints(2, "a variable-value pair")
            _check_fact(c, var_tuple, var, val)
        c.expect("end_mutex_group")

    c.expect("begin_state")
    initial = []
    for var in range(num_vars):
        val = c.read_int(f"a value for variable {var}")
        _check_fact(c, var_tuple, var, val)
        initial.append(val)
    c.expect("end_state")

    c.expect("begin_goal")
    goal_count = c.read_int("a goal entry count", low=0)
    goal: dict[int, int] = {}
    for _ in range(goal_count):
        var, val = c.read_ints(2, "a goal variable-value pair")
        _check_fact(c, var_tuple, var, val)
        if goal.get(var, val) != val:
            raise SasSyntaxError(c.line_no, "a single value per goal variable")
        goal[var] = val
    c.expect("end_goal")

    num_ops = c.read_int("an operator count", low=0)
    actions: list[Action] = []
    for op_id in range(num_ops):
        c.expect("begin_operator")
        name = c.next("an operator name")

        num_prevail = c.read_int("a prevail condition count", low=0)
        pre_map: dict[int, int] = {}
        for _ in range(num_prevail):
            var, val = c.read_ints(2, "a prevail variable-value pair")
            _check_fact(c, var_tuple, var, val)
            if pre_map.get(var, val) != val:
                raise SasSyntaxError(c.line_no, "a single precondition value per variable")
            pre_map[var] = val

        num_effects = c.read_int("an effect count", low=0)
        if num_effects == 0:
            raise SasSyntaxError(c.line_no, "a non-empty effect list")
        eff_map: dict[int, int] = {}
        for _ in range(num_effects):
            tokens = c.next("an effect line").split()
            try:
                ints = [int(t) for t in tokens]
            except ValueError:
                raise SasSyntaxError(c.line_no, "an effect line of integers") from None
            if not ints:
                raise SasSyntaxError(c.line_no, "an effect line")
            if ints[0] != 0:
                raise UnsupportedFeature("conditional effects", c.line_no)
            if len(ints) != 4:
                raise SasSyntaxError(c.line_no, "an effect line '0 var pre post'")
            _, var, pre, post = ints
            if not 0 <= var < num_vars:
                raise SasRangeError(f"variable index {var} out of range", c.line_no)
            dom = var_tuple[var].domain_size
            if not -1 <= pre < dom:
                raise SasRangeError(f"pre value {pre} out of domain of variable {var}", c.line_no)
            if not 0 <= post < dom:
                raise SasRangeError(f"post value {post} out of domain of variable {var}", c.line_no)
            if pre != -1:
                if pre_map.get(var, pre) != pre:
                    raise SasSyntaxError(c.line_no, "a single precondition value per variable")
                pre_map[var] = pre
            if eff_map.get(var, post) != post:
                raise SasSyntaxError(c.line_no, "a single effect value per variable")
            eff_map[var] = post

        cost = c.read_int("an operator cost", low=0)
        c.expect("end_operator")
        actions.append(
            Action(
                id=op_id,
                name=name,
                precondition=PartialAssignment.of(pre_map.items()),
                effect=PartialAssignment.of(eff_map.items()),
                cost=cost if metric else 1,
            )
        )

    axiom_count = c.read_int("an axiom count", low=0)
    if axiom_count > 0:
        raise UnsupportedFeature("axioms", c.line_no)

    while c.pos < len(c.lines):
        if c.lines[c.pos].strip():
            raise SasSyntaxError(c.pos + 1, "end of document")
        c.pos += 1

    return Task(
        variables=var_tuple,
        actions=tuple(actions),
        initial=tuple(initial),
        goal=PartialAssignment.of(goal.items()),
        uses_metric=bool(metric),
    )


def _one_line(kind: str, name: str) -> str:
    """name, if the reader gives it back unchanged: it strips each line and
    splits the text with str.splitlines."""
    if name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"{kind} name {name!r} has outer whitespace or a line break")
    return name


def emit_sas(task: Task) -> str:
    """Serialize a Task; parse_sas(emit_sas(t)) reconstructs t.

    Mutex groups are emitted empty; they carry no information the
    reduction strategies use. Raises ValueError for a variable, value or
    operator name with outer whitespace or a line break, which the reader
    would not give back unchanged.
    """
    out: list[str] = []
    out += ["begin_version", "3", "end_version"]
    out += ["begin_metric", str(int(task.uses_metric)), "end_metric"]
    out.append(str(len(task.variables)))
    for var in task.variables:
        out += ["begin_variable", _one_line("variable", var.name), "-1", str(var.domain_size)]
        out += [_one_line(f"variable {var.name!r} value", name) for name in var.value_names]
        out.append("end_variable")
    out.append("0")  # mutex groups
    out.append("begin_state")
    out += [str(v) for v in task.initial]
    out.append("end_state")
    out.append("begin_goal")
    out.append(str(len(task.goal)))
    out += [f"{var} {val}" for var, val in task.goal]
    out.append("end_goal")
    out.append(str(len(task.actions)))
    for action in task.actions:
        out += ["begin_operator", _one_line("operator", action.name)]
        eff_vars = set(action.effect.variables)
        prevail = [(v, val) for v, val in action.precondition if v not in eff_vars]
        out.append(str(len(prevail)))
        out += [f"{var} {val}" for var, val in prevail]
        out.append(str(len(action.effect)))
        for var, post in action.effect:
            pre = action.precondition.value_of(var)
            out.append(f"0 {var} {-1 if pre is None else pre} {post}")
        out.append(str(action.cost))
        out.append("end_operator")
    out.append("0")  # axioms
    return "\n".join(out) + "\n"
