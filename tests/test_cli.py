from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import re
import shutil
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from porplan import Variable, cli, emit_sas, oracle, parse_sas
from porplan.cli import main

from conftest import FIXTURES, build_task


@pytest.fixture
def two_switches_file(tmp_path):
    dst = tmp_path / "two_switches.sas"
    shutil.copy(FIXTURES / "two_switches.sas", dst)
    return dst


def unsolvable_text():
    task = build_task(
        domains=[2, 2],
        actions=[("o", [(0, 0)], [(0, 1)])],
        initial=[0, 0],
        goal=[(1, 1)],
    )
    return emit_sas(task)


def run_plan(tmp_path, file, *extra):
    plan = tmp_path / "out.plan"
    stats = tmp_path / "stats.json"
    code = main(
        ["plan", str(file), "--plan-out", str(plan), "--stats-json", str(stats), *extra]
    )
    return code, plan, stats


def test_plan_solved(tmp_path, two_switches_file):
    code, plan, stats = run_plan(tmp_path, two_switches_file, "--por", "sac")
    assert code == 0
    lines = plan.read_text().splitlines()
    assert len(lines) == 3 and lines[0] in ("(a)", "(b)")
    assert lines[-1] == "; cost = 2 (unit cost)"
    payload = json.loads(stats.read_text())
    for key in ("expanded", "generated", "time_ms", "cost", "outcome"):
        assert key in payload
    assert payload["outcome"] == "solved" and payload["cost"] == 2
    assert payload["limit_kind"] is None
    assert payload["expanded"] <= payload["generated"] + 1

    code2, _, stats2 = run_plan(tmp_path, two_switches_file, "--por", "none")
    assert code2 == 0
    assert payload["expanded"] <= json.loads(stats2.read_text())["expanded"]


def test_plan_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.sas"
    bad.write_text("begin_version\nbanana\n")
    code = main(["plan", str(bad)])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_plan_node_limit(tmp_path, two_switches_file):
    code, _, stats = run_plan(tmp_path, two_switches_file, "--max-nodes", "1")
    assert code == 2
    stats = json.loads(stats.read_text())
    assert (stats["outcome"], stats["limit_kind"]) == ("resource_limit", "nodes")


def test_plan_open_limit(tmp_path, two_switches_file):
    code, _, stats = run_plan(tmp_path, two_switches_file, "--max-open", "0")
    assert code == 2
    stats = json.loads(stats.read_text())
    assert (stats["outcome"], stats["limit_kind"]) == ("resource_limit", "memory")


def test_plan_unsolvable(tmp_path):
    f = tmp_path / "dead.sas"
    f.write_text(unsolvable_text())
    code, _, _ = run_plan(tmp_path, f)
    assert code == 1


def test_plan_bfs_rejects_metric_costs(tmp_path, capsys):
    task = build_task(
        domains=[2],
        actions=[("o", [(0, 0)], [(0, 1)], 3)],
        initial=[0],
        goal=[(0, 1)],
        uses_metric=True,
    )
    f = tmp_path / "metric.sas"
    f.write_text(emit_sas(task))
    code, _, _ = run_plan(tmp_path, f, "--search", "bfs")
    assert code == 3
    assert "unit" in capsys.readouterr().err


def test_inspect_causal_graph(two_switches_file, capsys):
    assert main(["inspect", str(two_switches_file), "cg"]) == 0
    out = capsys.readouterr().out
    assert out.count('"x1"') == 1 and out.count('"x2"') == 1
    assert "->" not in out


def test_inspect_dtg(two_switches_file, capsys):
    assert main(["inspect", str(two_switches_file), "dtg:0"]) == 0
    out = capsys.readouterr().out
    assert '"v0" [shape=diamond]' in out and '0 [label="x1=0"]' in out
    assert '0 -> 1 [label="a"]' in out


def test_inspect_dtg_keeps_v0_apart_from_a_value_named_v0(tmp_path, capsys):
    # a value named v0 beside the V0 source of a precondition-free action:
    # DOT names value nodes by index and JSON names the V0 source null
    task = build_task(
        domains=[2],
        actions=[("free", [], [(0, 1)]), ("step", [(0, 0)], [(0, 1)])],
        initial=[0],
        goal=[(0, 1)],
    )
    x = dataclasses.replace(task.variables[0], value_names=("v0", "v1"))
    f = tmp_path / "v0_value.sas"
    f.write_text(emit_sas(dataclasses.replace(task, variables=(x,))))
    assert main(["inspect", str(f), "dtg:0"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:-2]  # inside digraph {...}
    assert lines == [
        '  "v0" [shape=diamond];',
        '  0 [label="v0"];',
        '  1 [label="v1"];',
        '  "v0" -> 1 [label="free"];',
        '  0 -> 1 [label="step"];',
    ]
    assert main(["inspect", str(f), "dtg:0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == ["v0", "v1"]
    assert [(e["from"], e["to"]) for e in payload["edges"]] == [(None, "v1"), ("v0", "v1")]


def test_inspect_expansions(two_switches_file, capsys):
    assert main(["inspect", str(two_switches_file), "expansion@initial", "--json"]) == 0
    sets = json.loads(capsys.readouterr().out)
    assert sets["none"] == ["a", "b"]
    assert sets["sp"] == ["a", "b"]
    assert len(sets["ec"]) == 1
    assert sets["sac"] == ["a"]
    # spaces around each value are allowed: the initial state again
    assert main(["inspect", str(two_switches_file), "expansion@ 0 , 0 ", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == sets


def test_inspect_state_graphs(tmp_path, capsys):
    src = FIXTURES / "enable_chain.sas"
    assert main(["inspect", str(src), "asg@0,0,2", "pdg@initial", "strata", "--json"]) == 0
    out = capsys.readouterr().out
    assert '"b"' in out and "variable_level" in out


def test_inspect_bad_target(two_switches_file, capsys):
    assert main(["inspect", str(two_switches_file), "nonsense"]) == 3


@pytest.mark.parametrize(
    "target",
    ["dtg:abc", "expansion@1,1", "expansion@0,1,2", "pdg@9,9", "asg@9,9", "asg@-1,0",
     # int() alone reads these as 1 and (1, 0): "_" separators, non-ASCII digits
     "dtg:0_1", "expansion@0_1,0", "expansion@\u0661,0"],
)
def test_inspect_rejects_bad_index_state_or_goal(two_switches_file, capsys, target):
    assert main(["inspect", str(two_switches_file), target]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_inspect_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "latin1.sas"
    bad.write_bytes(b"begin_version\n3\nend_version\n\xff\xfe\n")
    assert main(["inspect", str(bad), "cg"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, prints_first",
    [
        (["plan", "{two}", "--plan-out", "{missing}"], True),
        (["plan", "{two}", "--stats-json", "{missing}"], False),
        (["inspect", "{two}", "cg", "--out", "{missing}"], False),
        (["verify", "--seeds", "0", "--json-out", "{missing}"], False),
        (["bench", "{corpus}", "--search", "bfs", "--strategies", "none",
          "--csv-out", "{missing}"], False),
        (["bench", "{corpus}", "--search", "bfs", "--strategies", "none",
          "--json-out", "{missing}"], False),
    ],
    ids=["plan-out", "stats-json", "inspect-out", "verify-json-out", "bench-csv-out",
         "bench-json-out"],
)
def test_unwritable_output_path(tmp_path, capsys, argv, prints_first):
    paths = {
        "two": str(FIXTURES / "two_switches.sas"),
        "corpus": str(bench_corpus(tmp_path)),
        "missing": str(tmp_path / "no_such_dir" / "out"),
        "plan": str(tmp_path / "sas_plan"),
    }
    argv = [a.format(**paths) for a in argv]
    if argv[0] == "plan" and "--plan-out" not in argv:
        argv += ["--plan-out", paths["plan"]]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert bool(captured.out) == prints_first  # plan prints its stats first
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "F", "--bogus"],
        ["plan", "F", "--max-nodes", "-1"],
        ["plan", "F", "--max-open", "-1"],
        ["plan", "F", "--max-time", "-0.5"],
        ["plan", "F", "--max-time", "nan"],
        ["bench", "D", "--workers", "0"],
        ["bench", "D", "--max-nodes", "-3"],
        ["verify", "--horizon", "-3"],
        ["verify", "--horizon", "0"],
        ["verify", "--seeds", "-1"],
        ["bench", "D", "--por", "sp"],  # bench takes --strategies only
        ["verify", "--samples", "5"],  # the option is gone
        ["verify", "--max-states", "0"],
        ["plan", "F", "--sp-closed", "state"],
        ["bench", "D", "--sp-closed", "state"],
        ["verify", "--horizon", "6"],  # each suite fixes its own depth
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_verify_clean(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--seeds", "12", "--json-out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["ok"] and payload["reports"]


def test_verify_report_is_pinned(capsys):
    # what a clean `porplan verify --seeds 30` checks, suite by suite: an
    # oracle change that checks less moves these counts
    assert main(["verify", "--seeds", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert [(r["name"], r["checked"]) for r in payload["reports"]] == [
        ("commutativity_suite", 11368),
        ("stubborn_suite", 11481),
        ("optimality_suite", 120),
        ("sp_suite", 23852),
        ("action_core_lemma_suite", 10131),
        ("action_preserving_suite", 1882),
    ]


def test_verify_injected_fault(capsys):
    code = main(["verify", "--seeds", "12", "--suites", "stubborn"])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "--seeds", "12", "--suites", "stubborn",
                 "--inject-fault", "sac-drop"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    kinds = {
        v["kind"] for r in payload["reports"] for v in r["violations"]
    }
    assert "A2" in kinds


def test_verify_injected_fault_optimality(capsys):
    code = main(["verify", "--seeds", "12", "--suites", "optimality",
                 "--inject-fault", "sac-drop"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    violations = [v for r in payload["reports"] for v in r["violations"]]
    assert violations and {v["strategy"] for v in violations} == {"sac"}


def test_verify_injected_fault_action_preserving(capsys):
    code = main(["verify", "--seeds", "12", "--suites", "ap",
                 "--inject-fault", "sac-drop"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    violations = [v for r in payload["reports"] for v in r["violations"]]
    assert violations and {v["strategy"] for v in violations} == {"sac"}


def test_verify_enumeration_budget_is_a_resource_limit(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_DFS_CAP", 10)
    assert main(["verify", "--seeds", "3", "--suites", "sp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_state_cap_is_a_resource_limit(monkeypatch, capsys):
    # the stream's own enumeration passes a lowered cap
    monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 3)
    assert main(["verify", "--seeds", "3", "--suites", "comm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: more than 3 reachable states\n"


def test_verify_seed_start(capsys):
    assert main(["verify", "--seed-start", "30", "--seeds", "5", "--suites", "comm"]) == 0
    [report] = json.loads(capsys.readouterr().out)["reports"]
    expected = oracle.suite_commutativity(oracle.default_task_stream(5, start=30))
    assert report["checked"] == expected.checked > 0


def test_verify_zero_seeds(capsys):
    assert main(["verify", "--seeds", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def bench_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("two_switches.sas", "enable_chain.sas", "support_chain.sas"):
        shutil.copy(FIXTURES / name, corpus / name)
    return corpus


def test_bench(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    csv_out = tmp_path / "bench.csv"
    json_out = tmp_path / "bench.json"
    code = main(
        ["bench", str(corpus), "--search", "bfs", "--strategies", "none,ec,sac",
         "--csv-out", str(csv_out), "--json-out", str(json_out)]
    )
    assert code == 0
    rows = json.loads(json_out.read_text())
    assert len(rows) == 9
    by_instance = {}
    for row in rows:
        assert row["outcome"] == "solved"
        by_instance.setdefault(row["instance"], {})[row["strategy"]] = row["expanded"]
    for counts in by_instance.values():
        assert counts["sac"] <= counts["none"]
        assert counts["ec"] <= counts["none"]
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("instance,strategy,outcome")


def test_bench_handles_unsolvable_and_broken(tmp_path):
    corpus = bench_corpus(tmp_path)
    (corpus / "dead.sas").write_text(unsolvable_text())
    (corpus / "broken.sas").write_text("not a document\n")
    json_out = tmp_path / "bench.json"
    code = main(["bench", str(corpus), "--search", "bfs", "--strategies", "none",
                 "--json-out", str(json_out)])
    assert code == 0
    rows = {r["instance"]: r for r in json.loads(json_out.read_text())}
    assert rows["dead"]["outcome"] == "unsolvable"
    assert rows["broken"]["outcome"] == "error" and rows["broken"]["error"]


# bench's CSV for the fixtures, a file that does not parse, an unsolvable
# task and a metric task that BFS refuses, without the time_ms column
BENCH_CSV = """\
instance,strategy,outcome,cost,expanded,generated,error
broken,none,error,,,,line 1: expected 'begin_version'
broken,ec,error,,,,line 1: expected 'begin_version'
broken,sp,error,,,,line 1: expected 'begin_version'
broken,sac,error,,,,line 1: expected 'begin_version'
costly,none,error,,,,bfs requires unit action costs
costly,ec,error,,,,bfs requires unit action costs
costly,sp,error,,,,bfs requires unit action costs
costly,sac,error,,,,bfs requires unit action costs
dead,none,unsolvable,,2,1,
dead,ec,unsolvable,,2,1,
dead,sp,unsolvable,,2,1,
dead,sac,unsolvable,,1,0,
enable_chain,none,solved,2,3,3,
enable_chain,ec,solved,2,3,3,
enable_chain,sp,solved,2,3,3,
enable_chain,sac,solved,2,3,2,
support_chain,none,solved,2,4,4,
support_chain,ec,solved,2,4,3,
support_chain,sp,solved,2,4,4,
support_chain,sac,solved,2,3,2,
two_switches,none,solved,2,4,4,
two_switches,ec,solved,2,3,2,
two_switches,sp,solved,2,4,3,
two_switches,sac,solved,2,3,2,
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_rows_pinned(tmp_path, workers):
    corpus = bench_corpus(tmp_path)
    (corpus / "broken.sas").write_text("not a document\n")
    (corpus / "dead.sas").write_text(unsolvable_text())
    costly = build_task(domains=[2], actions=[("o", [(0, 0)], [(0, 1)], 2)], initial=[0],
                        goal=[(0, 1)], uses_metric=True)
    (corpus / "costly.sas").write_text(emit_sas(costly))
    csv_out = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--search", "bfs", "--strategies", "none,ec,sp,sac",
                 "--csv-out", str(csv_out), "--workers", workers]) == 0
    rows = list(csv.reader(io.StringIO(csv_out.read_text())))
    assert rows[0][6] == "time_ms"
    assert "".join(",".join(r[:6] + r[7:]) + "\n" for r in rows) == BENCH_CSV


def test_bench_parses_each_file_once(tmp_path, monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "parse_sas", lambda text: parsed.append(text) or parse_sas(text))
    corpus = bench_corpus(tmp_path)
    assert main(["bench", str(corpus), "--search", "bfs", "--strategies", "none,ec,sp,sac"]) == 0
    assert len(parsed) == 3


def test_bench_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 0
    assert main(["bench", str(tmp_path / "missing")]) == 3


def test_bench_rejects_unknown_strategy(capsys):
    assert main(["bench", str(FIXTURES), "--strategies", "none,bogus"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown strategy 'bogus'\n"


@pytest.mark.parametrize("strategies", [",", " "])
def test_bench_rejects_an_empty_strategy_list(capsys, strategies):
    assert main(["bench", str(FIXTURES), "--strategies", strategies]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: no strategy in {strategies!r}\n"


@pytest.mark.parametrize("workers", ["2", "8", "1000000"])
def test_bench_pool_has_at_most_one_worker_per_file(monkeypatch, workers):
    # a stand-in pool records its size and maps in this process, so no
    # worker starts
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    assert main(["bench", str(FIXTURES), "--search", "bfs", "--strategies", "none",
                 "--workers", workers]) == 0
    assert sizes == [min(int(workers), 3)]


def test_bench_parallel_matches_serial(tmp_path):
    corpus = bench_corpus(tmp_path)
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(["bench", str(corpus), "--search", "bfs", "--json-out", str(one)]) == 0
    assert main(["bench", str(corpus), "--search", "bfs", "--json-out", str(two),
                 "--workers", "2"]) == 0
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "time_ms"} for r in json.loads(rows)
    ]
    assert strip(one.read_text()) == strip(two.read_text())


# edges are node index pairs: x1 is node 0, a is node 0
_ENABLE_CHAIN_GRAPHS = {
    "cg": ("causal_graph", ["x1", "x2", "x3"], [(1, 0), (2, 1)]),
    "asg@0,0,2": ("action_support_graph", ["a", "b"], [(1, 0)]),
    "pdg@initial": ("potential_dependency_graph", ["x1", "x2", "x3"], [(0, 1), (1, 0), (2, 1)]),
}


@pytest.mark.parametrize("target", sorted(_ENABLE_CHAIN_GRAPHS))
def test_inspect_graph_output_is_pinned(target, capsys):
    name, nodes, edges = _ENABLE_CHAIN_GRAPHS[target]
    src = str(FIXTURES / "enable_chain.sas")
    assert main(["inspect", src, target]) == 0
    lines = [f'  {i} [label="{n}"];' for i, n in enumerate(nodes)]
    lines += [f"  {u} -> {w};" for u, w in edges]
    dot = f"digraph {name} {{\n" + "\n".join(lines) + "\n}\n"
    assert capsys.readouterr().out == dot + "\n"

    assert main(["inspect", src, target, "--json"]) == 0
    payload = {"nodes": nodes, "edges": [list(e) for e in edges]}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_inspect_keeps_apart_nodes_of_one_name(tmp_path, capsys):
    # two variables named x, x's action writing both: DOT names nodes by
    # index, and JSON lists every variable and action in id order
    task = build_task(
        domains=[2, 2],
        actions=[("a", [(0, 0)], [(0, 1), (1, 1)]), ("a", [(1, 1)], [(0, 0)])],
        initial=[0, 0],
        goal=[(0, 1)],
        names=["x", "x"],
    )
    f = tmp_path / "two_x.sas"
    f.write_text(emit_sas(task))
    for target, label in [("cg", "x"), ("pdg@initial", "x"), ("asg@0,1", "a")]:
        assert main(["inspect", str(f), target]) == 0
        lines = capsys.readouterr().out.splitlines()[1:-2]  # inside digraph {...}
        assert lines[:2] == [f'  0 [label="{label}"];', f'  1 [label="{label}"];'], target
    assert main(["inspect", str(f), "cg", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"nodes": ["x", "x"], "edges": [[0, 1], [1, 0]]}
    assert main(["inspect", str(f), "strata", "--json"]) == 0
    strata = json.loads(capsys.readouterr().out)
    assert strata == {
        "variable_level": [{"name": "x", "level": 1}, {"name": "x", "level": 1}],
        "action_level": [{"name": "a", "level": 1}, {"name": "a", "level": 1}],
    }


def test_inspect_dtg_output_is_pinned(capsys):
    assert main(["inspect", str(FIXTURES / "two_switches.sas"), "dtg:0"]) == 0
    assert capsys.readouterr().out == (
        "digraph dtg_0 {\n"
        '  "v0" [shape=diamond];\n'
        '  0 [label="x1=0"];\n'
        '  1 [label="x1=1"];\n'
        '  0 -> 1 [label="a"];\n'
        "}\n\n"
    )


def test_inspect_dtg_json_output_is_pinned(capsys):
    assert main(["inspect", str(FIXTURES / "enable_chain.sas"), "dtg:1", "--json"]) == 0
    edges = [{"from": None, "to": "x2=1", "actions": ["a"]}]
    payload = {"variable": 1, "nodes": ["x2=0", "x2=1"], "edges": edges}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


_DOT_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_inspect_dot_escapes_names(tmp_path, capsys):
    # quotes and backslashes in variable, value and action names, which
    # emit_sas accepts, must stay inside DOT's quoted strings
    task = build_task(
        domains=[2, 2],
        actions=[("a\\", [(0, 0)], [(0, 1)]), ('b"', [(0, 1)], [(1, 1)])],
        initial=[0, 0],
        goal=[(1, 1)],
        names=['x"1', "x2"],
    )
    x1 = Variable(0, 'x"1', 2, ('x1="zero"', "x1=1"))
    task = dataclasses.replace(task, variables=(x1, task.variables[1]))
    f = tmp_path / "quoted.sas"
    f.write_text(emit_sas(task))
    expected = {
        "cg": {'x"1', "x2"},
        "dtg:0": {"v0", 'x1="zero"', "x1=1", "a\\"},
        "asg@initial": {"a\\", 'b"'},
        "pdg@initial": {'x"1', "x2"},
    }
    for target, names in expected.items():
        assert main(["inspect", str(f), target]) == 0
        lines = capsys.readouterr().out.splitlines()[1:-2]  # inside digraph {...}
        assert all('"' not in _DOT_QUOTED.sub("", line) for line in lines), lines
        tokens = {
            re.sub(r"\\(.)", r"\1", token[1:-1])
            for line in lines
            for token in _DOT_QUOTED.findall(line)
        }
        assert tokens == names, target


# argv fuzz for every subcommand (bench's --workers is left out because it
# starts processes). verify's suites check to fixed depths, so a run costs
# a fixed amount per seed, and every fuzzed verify passes --seeds.
# Every file name is relative to the test's working directory, so no
# output, the default sas_plan included, can land outside it.
_FUZZ_FILES = ["two_switches.sas", "enable_chain.sas", "support_chain.sas", "mutated.sas",
               "missing.sas", ".", ""]
_FUZZ_TARGETS = ["dtg:0", "dtg:7", "dtg:x", "cg", "strata", "bogus", "asg@initial",
                 "asg@0,0", "asg@0,0,2", "asg@1,-1", "pdg@initial", "pdg@x",
                 "expansion@initial", "expansion@1,1", "expansion@"]
_FUZZ_DIRS = [".", "missing", "two_switches.sas"]  # bench's directory argument
_FUZZ_OUTPUTS = ["out.txt", ".", "nodir/out.txt"]
_FUZZ_SEARCH = {
    "--search": ["astar", "gbfs", "bfs"],
    "--heuristic": ["blind", "goalcount", "hmax", "hadd"],
    "--max-time": ["0", "0.5", "inf"],
    "--max-nodes": ["0", "1", "3"],
    "--max-open": ["0", "1", "3"],
}
_FUZZ_OPTIONS = {
    "plan": {
        **_FUZZ_SEARCH,
        "--por": ["none", "ec", "sp", "sac"],
        "--plan-out": _FUZZ_OUTPUTS,
        "--stats-json": _FUZZ_OUTPUTS,
    },
    "inspect": {"--out": _FUZZ_OUTPUTS},
    "bench": {
        **_FUZZ_SEARCH,
        "--strategies": ["none", "sp", "ec,sac", "none,ec,sp,sac", ",", "bogus"],
        "--csv-out": _FUZZ_OUTPUTS,
        "--json-out": _FUZZ_OUTPUTS,
    },
    "verify": {
        "--seeds": ["0", "1", "3"],
        "--seed-start": ["0", "200", "-5"],
        "--suites": ["all", *cli._SUITES],
        "--inject-fault": ["none", "sac-drop"],
        "--json-out": _FUZZ_OUTPUTS,
    },
}
_FUZZ_BAD = ["-1", "-0.5", "nan", "x", "", "--json", "--bogus", "-h"]
_FUZZ_STDERR = re.compile(r"(usage: |\s|error: |porplan( \w+)?: error: )")


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command]
    if command != "verify":  # verify takes no positional argument
        files = _FUZZ_DIRS if command == "bench" else _FUZZ_FILES
        argv.append(draw(st.sampled_from(files)))
    if command == "inspect":
        argv += draw(st.lists(st.sampled_from(_FUZZ_TARGETS), max_size=3))
    options = _FUZZ_OPTIONS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    if command == "verify" and "--seeds" not in chosen:
        chosen.insert(0, "--seeds")  # not the default 200 seeds, which take seconds
    for option in chosen:
        value = draw(st.sampled_from(options[option]) | st.sampled_from(_FUZZ_BAD))
        argv += [option, value]
    return argv + draw(st.lists(st.sampled_from(_FUZZ_BAD), max_size=1))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    argv=_fuzz_argv(),
    mutation=st.tuples(
        st.sampled_from(["two_switches.sas", "enable_chain.sas", "support_chain.sas"]),
        st.integers(0, 60),
        st.sampled_from(["", "-1", "7", "x", "0 0", "begin_state", "end_operator"]),
    ),
)
def test_cli_is_total_on_fuzzed_argv(tmp_path, monkeypatch, capsys, argv, mutation):
    monkeypatch.chdir(tmp_path)
    for path in FIXTURES.glob("*.sas"):
        shutil.copy(path, path.name)
    source, line, token = mutation
    lines = (FIXTURES / source).read_text().splitlines()
    lines[line % len(lines)] = token
    (tmp_path / "mutated.sas").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    assert code in range(5)
    err = capsys.readouterr().err
    assert all(_FUZZ_STDERR.match(line) for line in err.splitlines() if line), err
