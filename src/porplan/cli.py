"""Command-line front end.

Subcommands: plan (solve one file, write plan and stats), inspect (emit
the derived graphs and per-state expansion sets), verify (seeded
verification suites at fixed depths, JSON report), bench (run a
directory of instances under several strategies, CSV and JSON output).

Exit codes: 0 solved or clean, 1 proven unsolvable, 2 resource limit,
3 input error (a bad or unreadable file, state, inspect target or
command line, or an output path that cannot be written),
4 verification violations.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import oracle
from .graphs import (
    V0,
    build_asg,
    build_causal_graph,
    build_dtg,
    build_pdg,
    dtg_to_dot,
    graph_to_dot,
    pdg_edges,
    potential_masks,
    stratify,
)
from .heuristics import HEURISTICS
from .model import State, Task, validate_plan
from .sas_io import SasError, parse_sas
from .search import SEARCHES, SOLVED, UNSOLVABLE, Limits, SearchResult, SearchSpec, solve
from .strategies import KINDS, ExpansionContext, make_bare_strategy

EXIT_SOLVED = 0
EXIT_UNSOLVABLE = 1
EXIT_LIMIT = 2
EXIT_INPUT = 3
EXIT_VIOLATIONS = 4


class _InputError(Exception):
    """Bad input; main prints it as one error line and exits 3."""


def _load_task(path: str) -> Task:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_sas(text)
    except SasError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _search_spec(args, por: str) -> SearchSpec:
    return SearchSpec(
        search=args.search,
        heuristic=args.heuristic,
        por=por,
        limits=Limits(args.max_nodes, args.max_time, args.max_open),
    )


def _result_fields(result: SearchResult) -> dict:
    """The record of one search run that plan's stats and bench's rows share."""
    return {
        "outcome": result.outcome,
        "cost": result.plan.cost if result.plan else None,
        "expanded": result.expanded,
        "generated": result.generated,
        "time_ms": result.wall_time * 1000.0,
    }


def _stats_json(args, result: SearchResult) -> dict:
    return {
        **_result_fields(result),
        "limit_kind": result.limit_kind,
        "peak_open": result.peak_open_size,
        "plan_length": len(result.plan.steps) if result.plan else None,
        "search": args.search,
        "heuristic": args.heuristic if args.search != "bfs" else None,
        "por": args.por,
    }


def _plan_text(task: Task, plan) -> str:
    lines = [f"({task.actions[a].name})" for a in plan.steps]
    unit = "unit cost" if not task.uses_metric else "general cost"
    lines.append(f"; cost = {plan.cost} ({unit})")
    return "\n".join(lines) + "\n"


def cmd_plan(args) -> int:
    task = _load_task(args.file)
    try:
        result = solve(task, _search_spec(args, args.por))
    except ValueError as exc:  # e.g. bfs on metric costs
        raise _InputError(str(exc)) from exc
    stats = _stats_json(args, result)
    if args.stats_json:
        Path(args.stats_json).write_text(json.dumps(stats, indent=2) + "\n")
    print(json.dumps(stats, indent=2))
    if result.outcome == SOLVED:
        assert result.plan is not None
        validate_plan(task, result.plan.steps)  # refuse to report a bogus plan
        Path(args.plan_out).write_text(_plan_text(task, result.plan))
        return EXIT_SOLVED
    if result.outcome == UNSOLVABLE:
        return EXIT_UNSOLVABLE
    return EXIT_LIMIT


def _int(text: str) -> int:
    """int(text) for ASCII digits; int() alone also reads "0_1" and non-ASCII digits."""
    if text.isascii() and text.strip().lstrip("+-").isdigit():
        return int(text)
    raise ValueError(text)


def _parse_state(task: Task, text: str) -> State:
    if text == "initial":
        return task.initial
    try:
        values = tuple(_int(v) for v in text.split(","))
    except ValueError:
        raise _InputError(f"bad state {text!r}; use 'initial' or comma-separated values")
    if len(values) != task.num_variables:
        raise _InputError(f"state needs {task.num_variables} values")
    for var, value in zip(task.variables, values):
        if not 0 <= value < var.domain_size:
            raise _InputError(f"value {value} is outside the domain of {var.name!r}")
    return values


def _plain_graph(name: str, nodes: list[str], edges, as_json: bool) -> str:
    """An edge set over node indices as DOT, or as JSON: the node names in
    index order and the edges as index pairs, as names may repeat."""
    if as_json:
        pairs = [[u, w] for u, w in sorted(edges)]
        return json.dumps({"nodes": nodes, "edges": pairs}, indent=2)
    return graph_to_dot(name, nodes, edges)


def _inspect_one(task: Task, token: str, as_json: bool) -> str:
    var_names = [v.name for v in task.variables]
    if token.startswith("dtg:"):
        try:
            var = _int(token.split(":", 1)[1])
        except ValueError:
            raise _InputError(f"bad variable index in {token!r}") from None
        if not 0 <= var < task.num_variables:
            raise _InputError(f"no variable {var}")
        dtg = build_dtg(task, var)
        if as_json:
            names = task.variables[var].value_names
            return json.dumps(
                {
                    "variable": var,
                    "nodes": list(names),
                    "edges": [
                        {
                            # null is the V0 source, which no value name can equal
                            "from": None if e.source == V0 else names[e.source],
                            "to": names[e.target],
                            "actions": [task.actions[a].name for a in sorted(e.actions)],
                        }
                        for e in dtg.edges
                    ],
                },
                indent=2,
            )
        return dtg_to_dot(task, dtg)
    if token == "cg":
        return _plain_graph("causal_graph", var_names, build_causal_graph(task), as_json)
    if token.startswith("asg@"):
        edges = build_asg(task, task.index.fact_set(_parse_state(task, token[4:])))
        names = [a.name for a in task.actions]
        return _plain_graph("action_support_graph", names, edges, as_json)
    if token.startswith("pdg@"):
        facts = task.index.fact_set(_parse_state(task, token[4:]))
        edges = pdg_edges(facts, build_pdg(facts, potential_masks(task)))
        return _plain_graph("potential_dependency_graph", var_names, edges, as_json)
    if token == "strata":
        strat = stratify(task)  # levels in id order, as names may repeat
        levels = {
            "variable_level": zip(var_names, strat.variable_level),
            "action_level": zip((a.name for a in task.actions), strat.action_level),
        }
        return json.dumps(
            {key: [{"name": n, "level": lv} for n, lv in pairs] for key, pairs in levels.items()},
            indent=2,
        )
    if token.startswith("expansion@"):
        state = _parse_state(task, token[10:])
        if task.goal.holds_in(state):
            raise _InputError("the state satisfies the goal; no expansion set is defined")
        ctx = ExpansionContext(task.index.fact_set(state), None)
        sets = {}
        for kind in KINDS:
            strategy = make_bare_strategy(task, kind)
            sets[kind] = [task.actions[a].name for a in strategy.expansion(ctx)]
        return json.dumps(sets, indent=2)
    raise _InputError(f"unknown inspect target {token!r}")


def cmd_inspect(args) -> int:
    task = _load_task(args.file)
    chunks = [_inspect_one(task, token, args.json) for token in args.show]
    text = "\n".join(chunks)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_SOLVED


# verify's suites in report order; each runner takes (tasks, strategy factory)
# and checks to the depth its oracle suite fixes
_SUITES = {
    "comm": lambda tasks, factory: oracle.suite_commutativity(tasks),
    "stubborn": oracle.suite_stubborn,
    "optimality": oracle.suite_optimality,
    "sp": lambda tasks, factory: oracle.suite_sp(tasks),
    "lemma": lambda tasks, factory: oracle.suite_lemma(tasks),
    "ap": oracle.suite_action_preserving,
}


def cmd_verify(args) -> int:
    factory = oracle.drop_one_sac if args.inject_fault == "sac-drop" else make_bare_strategy
    chosen = set(args.suites or ["all"])
    try:
        tasks = oracle.default_task_stream(args.seeds, start=args.seed_start)
        reports = [
            run(tasks, factory)
            for name, run in _SUITES.items()
            if "all" in chosen or name in chosen
        ]
    except oracle.TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT

    payload = {
        "seeds": args.seeds,
        "ok": all(r.ok for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    text = json.dumps(payload, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    print(text)
    return EXIT_SOLVED if payload["ok"] else EXIT_VIOLATIONS


# bench's row keys, in CSV column order
_BENCH_FIELDS = (
    "instance", "strategy", "outcome", "cost", "expanded", "generated", "time_ms", "error"
)


def _bench_file(job: tuple[str, list[SearchSpec]]) -> list[dict]:
    """One row per search spec for one file, which is read and parsed once."""
    path, specs = job
    rows = [dict.fromkeys(_BENCH_FIELDS) for _ in specs]
    for row, spec in zip(rows, specs):
        row.update(instance=Path(path).stem, strategy=spec.por)
    try:
        task = parse_sas(Path(path).read_text())
    except (OSError, SasError, ValueError) as exc:
        return [{**row, "outcome": "error", "error": str(exc)} for row in rows]
    for row, spec in zip(rows, specs):
        try:
            row.update(_result_fields(solve(task, spec)))
        except (OSError, SasError, ValueError) as exc:  # e.g. bfs on metric costs
            row.update(outcome="error", error=str(exc))
    return rows


def cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _InputError(f"{directory} is not a directory")
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise _InputError(f"no strategy in {args.strategies!r}")
    for s in strategies:
        if s not in KINDS:
            raise _InputError(f"unknown strategy {s!r}")
    specs = [_search_spec(args, strategy) for strategy in strategies]
    jobs = [(str(path), specs) for path in sorted(directory.glob("*.sas"))]
    if args.workers > 1 and jobs:
        # the pool starts all of max_workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
            rows = [row for file_rows in pool.map(_bench_file, jobs) for row in file_rows]
    else:
        rows = [row for job in jobs for row in _bench_file(job)]
    order = {s: i for i, s in enumerate(strategies)}
    rows.sort(key=lambda r: (r["instance"], order[r["strategy"]]))

    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(rows, indent=2) + "\n")
    for row in rows:
        print(
            f"{row['instance']:<24} {row['strategy']:<5} {str(row['outcome']):<14} "
            f"cost={row['cost']} expanded={row['expanded']} generated={row['generated']}"
        )
    return EXIT_SOLVED


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with the input-error exit code; exit code 2
    means a resource limit."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _at_least(convert, low):
    """argparse type: convert the text, then require a value >= low."""

    def parse(text: str):
        value = convert(text)
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--search", choices=SEARCHES, default="astar")
    parser.add_argument("--heuristic", choices=HEURISTICS, default="hmax")
    parser.add_argument("--max-time", type=_at_least(float, 0), default=None, help="seconds")
    parser.add_argument(
        "--max-nodes", type=_at_least(int, 0), default=None, help="expansion limit"
    )
    parser.add_argument("--max-open", type=_at_least(int, 0), default=None, help="open-list limit")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="porplan",
        description="SAS+ planner with partial-order-reduction expansion strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve one .sas file")
    p.add_argument("file")
    _add_search_options(p)
    p.add_argument("--por", choices=KINDS, default="none")
    p.add_argument("--plan-out", default="sas_plan")
    p.add_argument("--stats-json", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("inspect", help="emit derived graphs and expansion sets")
    p.add_argument("file")
    p.add_argument(
        "show",
        nargs="+",
        help="dtg:IDX | cg | asg@STATE | pdg@STATE | strata | expansion@STATE "
        "(STATE: 'initial' or comma-separated values)",
    )
    p.add_argument("--json", action="store_true", help="JSON instead of DOT")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("--seeds", type=_at_least(int, 0), default=200)
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument(
        "--suites",
        nargs="*",
        choices=("all", *_SUITES),
        default=["all"],
    )
    p.add_argument("--json-out", default=None)
    p.add_argument(
        "--inject-fault",
        choices=("none", "sac-drop"),
        default="none",
        help="deliberately break SAC (test hook)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a directory of .sas instances")
    p.add_argument("directory")
    p.add_argument("--strategies", default="none,ec,sac")
    _add_search_options(p)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--json-out", default=None)
    p.add_argument("--workers", type=_at_least(int, 1), default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
