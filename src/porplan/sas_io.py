"""Reader and writer for translator output files (.sas, format version 3).

The reader is total: any input yields either a Task or a structured error
carrying a 1-based line number. Section order is fixed: version, metric,
variables, mutex groups (checked, then dropped), initial state, goal,
operators, axiom count. Operator prevail conditions and pre/post
pairs are merged into precondition/effect assignments; a pre value of -1
contributes no precondition entry. Axioms and conditional effects are
rejected.

The reader walks the lines by index. Names and keywords are stripped;
integer lines go to int() as they are, which skips the same outer
whitespace but U+001F (a text holding it is stripped first). An n-line
text that ends early fails at line n + 1, naming the item expected.
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


def _int(lines: list[str], pos: int, what: str, low: int | None = None) -> int:
    """The integer on line pos, at least low when given."""
    try:
        value = int(lines[pos])
    except IndexError:
        raise SasSyntaxError(len(lines), what) from None
    except ValueError:
        raise SasSyntaxError(pos, what) from None
    if low is not None and value < low:
        raise SasSyntaxError(pos, f"{what} of at least {low}")
    return value


def _word(lines: list[str], pos: int, what: str) -> str:
    """Line pos, stripped: a name or a keyword."""
    try:
        return lines[pos].strip()
    except IndexError:
        raise SasSyntaxError(len(lines), what) from None


def _expect(lines: list[str], pos: int, literal: str) -> None:
    if _word(lines, pos, repr(literal)) != literal:
        raise SasSyntaxError(pos, repr(literal))


def _pair(lines: list[str], pos: int, what: str, sizes: list[int]) -> tuple[int, int]:
    """The variable-value pair on line pos, a fact of the task."""
    try:
        var, val = map(int, lines[pos].split())
    except IndexError:
        raise SasSyntaxError(len(lines), what) from None
    except ValueError:
        raise SasSyntaxError(pos, what) from None
    if not 0 <= var < len(sizes):
        raise SasRangeError(f"variable index {var} out of range", pos)
    if not 0 <= val < sizes[var]:
        raise SasRangeError(f"value {val} out of domain of variable {var}", pos)
    return var, val


def parse_sas(text: str) -> Task:
    """Parse a complete .sas document into a Task."""
    # lines[i] is line i of the text, lines[0] a blank stand-in; pos is the
    # number of the line read last
    lines = ["", *text.splitlines()]
    if "\x1f" in text:  # outer whitespace to strip() but not to int()
        lines = [line.strip() for line in lines]

    _expect(lines, 1, "begin_version")
    if (version := _int(lines, 2, "a version number")) != 3:
        raise UnsupportedVersion(version, 2)
    _expect(lines, 3, "end_version")

    _expect(lines, 4, "begin_metric")
    if (metric := _int(lines, 5, "a metric flag")) not in (0, 1):
        raise SasSyntaxError(5, "a metric flag of 0 or 1")
    _expect(lines, 6, "end_metric")

    num_vars = _int(lines, pos := 7, "a variable count", 0)
    variables: list[Variable] = []
    for i in range(num_vars):
        _expect(lines, pos + 1, "begin_variable")
        name = _word(lines, pos + 2, "a variable name")
        if _int(lines, pos := pos + 3, "an axiom layer") != -1:
            raise UnsupportedFeature("axioms", pos)
        size = _int(lines, pos := pos + 1, "a domain size", 1)
        names = tuple([_word(lines, pos := pos + 1, "a value name") for _ in range(size)])
        _expect(lines, pos := pos + 1, "end_variable")
        variables.append(Variable(i, name, size, names))
    sizes = [var.domain_size for var in variables]

    for _ in range(_int(lines, pos := pos + 1, "a mutex group count", 0)):
        _expect(lines, pos + 1, "begin_mutex_group")
        for _ in range(_int(lines, pos := pos + 2, "a mutex group size", 0)):
            _pair(lines, pos := pos + 1, "a variable-value pair", sizes)
        _expect(lines, pos := pos + 1, "end_mutex_group")

    _expect(lines, pos := pos + 1, "begin_state")
    initial = []
    for var in range(num_vars):
        val = _int(lines, pos := pos + 1, f"a value for variable {var}")
        if not 0 <= val < sizes[var]:
            raise SasRangeError(f"value {val} out of domain of variable {var}", pos)
        initial.append(val)
    _expect(lines, pos := pos + 1, "end_state")

    _expect(lines, pos := pos + 1, "begin_goal")
    goal: dict[int, int] = {}
    for _ in range(_int(lines, pos := pos + 1, "a goal entry count", 0)):
        var, val = _pair(lines, pos := pos + 1, "a goal variable-value pair", sizes)
        if goal.setdefault(var, val) != val:
            raise SasSyntaxError(pos, "a single value per goal variable")
    _expect(lines, pos := pos + 1, "end_goal")

    # the operators, most of the text, read off lines[] inline but for the
    # prevail pairs; what names the item read next, for the error when the
    # text ends or its line holds no integer
    num_ops = _int(lines, pos := pos + 1, "an operator count", 0)
    actions: list[Action] = []
    for op_id in range(num_ops):
        what = "'begin_operator'"
        try:
            if lines[pos := pos + 1].strip() != "begin_operator":
                raise SasSyntaxError(pos, what)
            what = "an operator name"
            name = lines[pos := pos + 1].strip()
            what = "a prevail condition count"
            if (count := int(lines[pos := pos + 1])) < 0:
                raise SasSyntaxError(pos, f"{what} of at least 0")
            pre_map: dict[int, int] = {}
            for _ in range(count):
                var, val = _pair(lines, pos := pos + 1, "a prevail variable-value pair", sizes)
                if pre_map.setdefault(var, val) != val:
                    raise SasSyntaxError(pos, "a single precondition value per variable")
            what = "an effect count"
            if (count := int(lines[pos := pos + 1])) < 1:
                raise SasSyntaxError(
                    pos, "a non-empty effect list" if count == 0 else f"{what} of at least 0"
                )
            what = "an effect line"
            eff_map: dict[int, int] = {}
            for _ in range(count):
                tokens = lines[pos := pos + 1].split()
                try:
                    ints = [*map(int, tokens)]
                except ValueError:
                    raise SasSyntaxError(pos, "an effect line of integers") from None
                if not ints:
                    raise SasSyntaxError(pos, what)
                if ints[0] != 0:
                    raise UnsupportedFeature("conditional effects", pos)
                if len(ints) != 4:
                    raise SasSyntaxError(pos, "an effect line '0 var pre post'")
                _, var, pre, post = ints
                if not 0 <= var < num_vars:
                    raise SasRangeError(f"variable index {var} out of range", pos)
                if not -1 <= pre < sizes[var]:
                    raise SasRangeError(f"pre value {pre} out of domain of variable {var}", pos)
                if not 0 <= post < sizes[var]:
                    raise SasRangeError(f"post value {post} out of domain of variable {var}", pos)
                if pre != -1 and pre_map.setdefault(var, pre) != pre:
                    raise SasSyntaxError(pos, "a single precondition value per variable")
                if eff_map.setdefault(var, post) != post:
                    raise SasSyntaxError(pos, "a single effect value per variable")
            what = "an operator cost"
            if (cost := int(lines[pos := pos + 1])) < 0:
                raise SasSyntaxError(pos, f"{what} of at least 0")
            what = "'end_operator'"
            if lines[pos := pos + 1].strip() != "end_operator":
                raise SasSyntaxError(pos, what)
        except IndexError:
            raise SasSyntaxError(len(lines), what) from None
        except ValueError:
            raise SasSyntaxError(pos, what) from None
        precondition, effect = PartialAssignment.of_map(pre_map), PartialAssignment.of_map(eff_map)
        actions.append(Action(op_id, name, precondition, effect, cost if metric else 1))

    if _int(lines, pos := pos + 1, "an axiom count", 0) > 0:
        raise UnsupportedFeature("axioms", pos)
    for pos in range(pos + 1, len(lines)):
        if lines[pos].strip():
            raise SasSyntaxError(pos, "end of document")

    return Task(
        variables=tuple(variables),
        actions=tuple(actions),
        initial=tuple(initial),
        goal=PartialAssignment.of_map(goal),
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
