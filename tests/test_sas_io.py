from __future__ import annotations

import hashlib
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from porplan import Action, PartialAssignment, State, Task, Variable, emit_sas, parse_sas
from porplan.model import ActionIndex
from porplan.oracle import RandomTaskSpec, generate_random_task
from porplan.sas_io import (
    SasError,
    SasRangeError,
    SasSyntaxError,
    UnsupportedFeature,
    UnsupportedVersion,
)

from conftest import BENCH_WORKLOADS, FIXTURES, perfbench_corpus


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_parse_two_switches(two_switches):
    task = parse_sas(fixture_text("two_switches.sas"))
    assert task == two_switches


def test_parse_enable_chain(enable_chain):
    task = parse_sas(fixture_text("enable_chain.sas"))
    # the file realizes the same structure; value names differ from defaults
    assert [a.name for a in task.actions] == ["a", "b"]
    assert task.actions[0].precondition.entries == ((0, 0),)
    assert task.actions[0].effect.entries == ((1, 1),)
    assert task.actions[1].precondition.entries == ((1, 1), (2, 2))
    assert task.initial == enable_chain.initial
    assert task.goal == enable_chain.goal


@pytest.mark.parametrize(
    "name", ["two_switches.sas", "enable_chain.sas", "support_chain.sas"]
)
def test_round_trip_fixture(name):
    task = parse_sas(fixture_text(name))
    assert parse_sas(emit_sas(task)) == task


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("cost_mode", ["unit", "random"])
def test_round_trip_generated(seed, cost_mode):
    task = generate_random_task(RandomTaskSpec(seed=seed, cost_mode=cost_mode))
    assert parse_sas(emit_sas(task)) == task


def test_metric_costs_preserved(build):
    task = build(
        domains=[2],
        actions=[("zero", [(0, 0)], [(0, 1)], 0), ("five", [(0, 1)], [(0, 0)], 5)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    again = parse_sas(emit_sas(task))
    assert [a.cost for a in again.actions] == [0, 5]


def test_minimal_document_matches_hand_written(build):
    task = build(domains=[2], actions=[("flip", [(0, 0)], [(0, 1)])],
                 initial=[0], goal=[(0, 1)], names=["bit"])
    hand = "\n".join(
        [
            "begin_version", "3", "end_version",
            "begin_metric", "0", "end_metric",
            "1",
            "begin_variable", "bit", "-1", "2", "bit=0", "bit=1", "end_variable",
            "0",
            "begin_state", "0", "end_state",
            "begin_goal", "1", "0 1", "end_goal",
            "1",
            "begin_operator", "flip", "0", "1", "0 0 0 1", "1", "end_operator",
            "0",
        ]
    ) + "\n"
    assert emit_sas(task) == hand
    assert parse_sas(hand) == task


def _one_flip(variable="bit", values=("off", "on"), operator="flip"):
    return Task(
        variables=(Variable(0, variable, 2, values),),
        actions=(
            Action(0, operator, PartialAssignment.of([(0, 0)]), PartialAssignment.of([(0, 1)])),
        ),
        initial=State((0,)),
        goal=PartialAssignment.of([(0, 1)]),
    )


def test_emit_keeps_inner_spaces():
    task = _one_flip(variable="the bit", values=("is off", "is on"), operator="flip it")
    assert parse_sas(emit_sas(task)) == task


@pytest.mark.parametrize(
    "names, offending",
    [
        ({"variable": " x "}, "variable name ' x '"),
        ({"variable": "x\t"}, "variable name 'x\\t'"),
        ({"values": ("off", "o\x0bn")}, "variable 'bit' value name 'o\\x0bn'"),
        ({"operator": "op\n1"}, "operator name 'op\\n1'"),
        ({"operator": "op\u20281"}, "operator name 'op\\u20281'"),
    ],
    ids=["variable-spaces", "variable-tab", "value-vtab", "operator-newline", "operator-u2028"],
)
def test_emit_refuses_names_the_reader_changes(names, offending):
    # the reader strips each line and splits the text with str.splitlines
    with pytest.raises(ValueError, match=re.escape(offending)):
        emit_sas(_one_flip(**names))


def test_version_gate():
    text = fixture_text("two_switches.sas").replace("begin_version\n3", "begin_version\n2")
    with pytest.raises(UnsupportedVersion) as err:
        parse_sas(text)
    assert err.value.line == 2


def test_axiom_count_gate():
    text = fixture_text("two_switches.sas").rstrip("\n")
    text = text[: text.rfind("\n")] + "\n1\n"  # axiom count 1
    with pytest.raises(UnsupportedFeature) as err:
        parse_sas(text)
    assert err.value.feature == "axioms"


def test_axiom_layer_gate():
    text = fixture_text("two_switches.sas").replace("x1\n-1", "x1\n0", 1)
    with pytest.raises(UnsupportedFeature) as err:
        parse_sas(text)
    assert err.value.feature == "axioms"


def test_conditional_effect_gate():
    text = fixture_text("two_switches.sas").replace("0 0 0 1", "1 1 0 0 0 1")
    with pytest.raises(UnsupportedFeature) as err:
        parse_sas(text)
    assert err.value.feature == "conditional effects"


def test_empty_effect_list_rejected():
    text = fixture_text("two_switches.sas").replace("0\n1\n0 0 0 1", "0\n0", 1)
    with pytest.raises(SasSyntaxError):
        parse_sas(text)


def test_conflicting_prevail_and_pre_rejected():
    # operator a gains a prevail x1=1 conflicting with its pre 0
    text = fixture_text("two_switches.sas").replace(
        "begin_operator\na\n0\n1\n0 0 0 1", "begin_operator\na\n1\n0 1\n1\n0 0 0 1"
    )
    with pytest.raises(SasSyntaxError):
        parse_sas(text)


def test_pre_equal_post_is_kept():
    text = fixture_text("two_switches.sas").replace("0 0 0 1", "0 0 1 1", 1)
    task = parse_sas(text)
    assert task.actions[0].precondition.entries == ((0, 1),)
    assert task.actions[0].effect.entries == ((0, 1),)


def test_range_errors_have_lines():
    text = fixture_text("two_switches.sas").replace(
        "begin_state\n0\n0", "begin_state\n0\n7"
    )
    with pytest.raises(SasRangeError) as err:
        parse_sas(text)
    assert err.value.line is not None


def test_mutex_groups_parsed_and_ignored():
    text = fixture_text("two_switches.sas").replace(
        "end_variable\n0\nbegin_state",
        "end_variable\n1\nbegin_mutex_group\n2\n0 0\n1 1\nend_mutex_group\nbegin_state",
    )
    assert parse_sas(text) == parse_sas(fixture_text("two_switches.sas"))
    out_of_range = text.replace("0 0\n1 1\nend_mutex_group", "0 0\n1 5\nend_mutex_group")
    with pytest.raises(SasRangeError) as err:
        parse_sas(out_of_range)
    assert err.value.line == out_of_range.splitlines().index("1 5") + 1


def test_trailing_garbage_rejected():
    with pytest.raises(SasSyntaxError):
        parse_sas(fixture_text("two_switches.sas") + "unexpected\n")


def test_trailing_blank_lines_parse():
    text = fixture_text("two_switches.sas")
    assert parse_sas(text + "\n  \n\t\n") == parse_sas(text)


@pytest.mark.parametrize(
    "old, new, line, expected",
    [
        # goal x1=1 and x1=0: the second pair is line 30
        ("begin_goal\n2\n0 1\n1 1", "begin_goal\n2\n0 1\n0 0", 30,
         "a single value per goal variable"),
        # operator a gains prevails x2=0 and x2=1, on lines 36 and 37
        ("a\n0\n1\n0 0 0 1", "a\n2\n1 0\n1 1\n1\n0 0 0 1", 37,
         "a single precondition value per variable"),
        # operator a sets x1 to 1 (line 37) and to 0 (line 38)
        ("a\n0\n1\n0 0 0 1", "a\n0\n2\n0 0 0 1\n0 0 -1 0", 38,
         "a single effect value per variable"),
        ("0 0 0 1", "0 0 1", 37, "an effect line '0 var pre post'"),
        ("0 0 0 1", "0 0 0 1 1", 37, "an effect line '0 var pre post'"),
    ],
    ids=["goal-two-values", "prevail-two-values", "effect-two-values", "effect-three-ints",
         "effect-five-ints"],
)
def test_doubled_values_and_bad_effect_lines_rejected(old, new, line, expected):
    text = fixture_text("two_switches.sas")
    assert text.count(old) == 1
    with pytest.raises(SasSyntaxError) as err:
        parse_sas(text.replace(old, new))
    assert type(err.value) is SasSyntaxError
    assert err.value.line == line and err.value.expected == expected


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    if not lines:
        return rng.choice(["", "begin_version", "0"])
    op = rng.randrange(6)
    if op == 0 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif op == 1:
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    elif op == 2:
        i = rng.randrange(len(lines))
        lines[i] = rng.choice(["-7", "999", "begin_goal", "x y z", "", "3.5"])
    elif op == 3:
        lines = lines[: rng.randrange(len(lines))]
    elif op == 4:
        lines.insert(rng.randrange(len(lines) + 1), "garbage %s" % rng.random())
    else:
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        if tokens:
            tokens[rng.randrange(len(tokens))] = str(rng.randint(-9, 99))
            lines[i] = " ".join(tokens)
    return "\n".join(lines)


def test_fuzz_mutations_yield_structured_errors_only():
    rng = random.Random(7)
    base = fixture_text("two_switches.sas")
    for _ in range(2000):
        mutated = _mutate(rng, base)
        try:
            parse_sas(mutated)
        except SasError:
            pass  # structured failure is the contract


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=400))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_sas(text)
    except SasError:
        pass


# The reader's outcome on a fixed set of documents, pinned: entry i of
# fixtures/sas_outcomes.json belongs to document i of _pinned_documents()
# and is [error class, line, message], or ["ok", digest] with the first 16
# hex digits of the SHA-256 of emit_sas(task). The file was written by the
# line-cursor reader that the line-index reader replaced; it pins that
# reader's behaviour and is never rewritten to fit a new one.
OUTCOMES = FIXTURES / "sas_outcomes.json"
PINNED = ("two_switches.sas", "enable_chain.sas")
# outer whitespace on a line: int() skips all that strip() drops but U+001F,
# and str.splitlines() breaks the line at U+000B
PADDINGS = (" {}\t", "{}\x0b", "\x1f{}", "{}\x1f", "\xa0{}\u3000")


def _pinned_documents():
    """(label, text) of every pinned document, in the file's order."""
    for name in PINNED:
        text = fixture_text(name)
        for cut in range(len(text) + 1):
            yield f"{name} cut {cut}", text[:cut]
        lines = text.splitlines()
        for i in range(len(lines)):
            for pad in PADDINGS:
                padded = [*lines[:i], pad.format(lines[i]), *lines[i + 1 :]]
                yield f"{name} line {i + 1} pad {pad!r}", "\n".join(padded) + "\n"
        rng = random.Random(27)
        for k in range(300):
            yield f"{name} mutant {k}", _mutate(rng, text)


def _outcome(text: str) -> list:
    try:
        task = parse_sas(text)
    except SasError as exc:
        return [type(exc).__name__, exc.line, str(exc)]
    return ["ok", hashlib.sha256(emit_sas(task).encode()).hexdigest()[:16]]


def test_pinned_outcomes_replay():
    pinned = json.loads(OUTCOMES.read_text())
    documents = list(_pinned_documents())
    assert len(documents) == len(pinned)
    differ = [
        (label, want, got)
        for (label, text), want in zip(documents, pinned)
        if (got := _outcome(text)) != want
    ]
    assert not differ, differ[:5]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_benchmark_corpus_round_trips(workload, seed):
    # at benchmark size, the reader gives back what the writer wrote, and
    # the index built with the Task equals one built afresh
    for instance in perfbench_corpus().instances(workload, seed):
        task = parse_sas(instance.text)
        again = parse_sas(emit_sas(task))
        assert again == task
        assert vars(task.index) == vars(ActionIndex(task)) == vars(again.index)


def _reader_tasks():
    """Tasks the reader builds: seeds 1-3 of every benchmark corpus, the
    fixtures and every pinned document it accepts."""
    for workload in BENCH_WORKLOADS:
        for seed in (1, 2, 3):
            for instance in perfbench_corpus().instances(workload, seed):
                yield parse_sas(instance.text)
    for path in sorted(FIXTURES.glob("*.sas")):
        yield parse_sas(path.read_text())
    pinned = json.loads(OUTCOMES.read_text())
    for (_, text), outcome in zip(_pinned_documents(), pinned):
        if outcome[0] == "ok":
            yield parse_sas(text)


def _assert_same(built, public) -> None:
    """Field by field, variables included (it is compare=False, so == does
    not see it), in hash and after a pickle round trip."""
    for obj in (built, pickle.loads(pickle.dumps(built))):
        assert type(obj) is type(public)
        assert vars(obj) == vars(public)
        assert hash(obj) == hash(public)
        if isinstance(obj, Action):
            _assert_same(obj.precondition, public.precondition)
            _assert_same(obj.effect, public.effect)


def test_reader_builds_what_the_public_constructors_build():
    def public(assignment):  # reversed, so the constructor must sort
        return PartialAssignment(tuple(reversed(assignment.entries)))

    count = 0
    for task in _reader_tasks():
        _assert_same(task.goal, public(task.goal))
        for a in task.actions:
            _assert_same(a, Action(a.id, a.name, public(a.precondition), public(a.effect), a.cost))
        count += 1
    assert count > 100
