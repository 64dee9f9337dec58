"""Planning benchmark: time to solve per expansion strategy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed (corpus.py), then drives
the library through its public entry points, parse_sas -> make_strategy
-> make_heuristic -> bfs/astar -> validate_plan, under the strategies
none, ec, sp and sac. One process, one thread, one solve at a time: a
closed loop with a single caller.

A pass parses every instance, then sets up and solves every instance
under each strategy in turn. A strategy whose batch takes under
MIN_BATCH_S repeats it within the pass, so every strategy's time per
batch is a sum long enough to time steadily. Passes repeat until the run
has measured for --seconds; each metric is the median over passes. Times
are rescaled to a fixed speed of reference_search, timed between the
measurements (see Speed and README.md).

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time
on untraced passes and half on traced ones and prints the per-layer
metrics, taken from spans recorded around the calls into each layer
(spans.py). Each traced pass is reduced to its per-layer totals as soon
as it ends; the spans of the last one are written to
.bench_trace/<workload>.jsonl.gz. README.md in this directory says which
end-to-end metric each layer metric should move, on which workload.

Every solve is checked: its plan must pass validate_plan and cost what
the engine reported; none, ec and sac must reach the optimal cost the
generator computed (sp is only required to solve the instance, as it
does not preserve optimality); and expanded/generated/peak-open counts
must repeat exactly in every pass. The last stdout line is one JSON object
with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "porplan").is_dir():
    sys.exit(f"porplan sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from porplan import (  # noqa: E402
    GoalNotReached,
    Limits,
    NotApplicableAt,
    astar,
    bfs,
    make_heuristic,
    make_strategy,
    parse_sas,
    validate_plan,
)

import corpus  # noqa: E402
from spans import NullTracer, TracedStrategy, Tracer, patched, timed  # noqa: E402

KINDS = ("none", "ec", "sp", "sac")
MIN_BATCH_S = 0.1
MAX_REPS = 1000
MIN_PASSES = 3
REFERENCE_S = 0.002
MIN_INTERVAL_S = 0.02


def reference_search() -> int:
    """A fixed breadth-first search over the 4**5 tuples of five base-4
    digits, in plain Python and independent of porplan.

    It does the planner's kind of work (building and hashing tuples, dict
    and list traffic), so its duration tracks the host's current speed
    for that work.
    """
    start = (0,) * 5
    parent = {start: None}
    queue = [start]
    for state in queue:
        for i in range(5):
            if state[i] < 3:
                succ = state[:i] + (state[i] + 1,) + state[i + 1:]
                if succ not in parent:
                    parent[succ] = state
                    queue.append(succ)
    return len(parent)


class Speed:
    """Rescales measured seconds to a host on which reference_search
    takes REFERENCE_S.

    The shared host this benchmark was built on changes speed by 30-45%
    between 20-second windows. Measurements are grouped into intervals of
    at least MIN_INTERVAL_S, and reference_search is timed at every
    interval boundary; a measurement is scaled by REFERENCE_S over the
    mean of the two reference times around its interval.
    """

    def __init__(self) -> None:
        self.references = [self._sample()]
        self.opened = perf_counter()
        self.pending = False

    @staticmethod
    def _sample() -> float:
        """Median of three timings, which drops a single interrupted one."""
        times = []
        for _ in range(3):
            start = perf_counter()
            reference_search()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def interval(self) -> int:
        """The interval a measurement that just ended belongs to."""
        index = len(self.references) - 1
        self.pending = True
        if perf_counter() - self.opened >= MIN_INTERVAL_S:
            self.close()
        return index

    def close(self) -> None:
        if self.pending:
            self.references.append(self._sample())
            self.opened = perf_counter()
            self.pending = False

    def factor(self, index: int) -> float:
        return 2 * REFERENCE_S / (self.references[index] + self.references[index + 1])


@dataclass(frozen=True)
class Workload:
    engine: str  # "bfs" or "astar"
    heuristic: str | None
    # node limit per solve, well above what every instance needs
    max_expanded: int


WORKLOADS = {
    "counters-bfs": Workload("bfs", None, 25_000),
    "random-astar-blind": Workload("astar", "blind", 2_000),
    "logistics-astar-hmax": Workload("astar", "hmax", 20_000),
}


def check_plan(task, result, expected_cost: int | None) -> str | None:
    """Why a search result is not an acceptable solution, or None.
    expected_cost None accepts any valid plan."""
    if not result.solved:
        return f"outcome {result.outcome}"
    try:
        plan = validate_plan(task, result.plan.steps)
    except (NotApplicableAt, GoalNotReached, IndexError) as exc:
        return f"invalid plan: {exc}"
    if plan.cost != result.plan.cost:
        return f"engine reported cost {result.plan.cost}, plan costs {plan.cost}"
    if expected_cost is not None and plan.cost != expected_cost:
        return f"cost {plan.cost}, optimum is {expected_cost}"
    return None


@dataclass
class Pass:
    # times are rescaled by Speed; the raw_ ones are wall seconds
    setup_s: float = 0.0
    solve_s: dict = field(default_factory=dict)  # kind -> seconds per batch
    raw_setup_s: float = 0.0
    raw_solve_s: dict = field(default_factory=dict)
    factor: float = 1.0  # median Speed factor over the pass
    counts: dict = field(default_factory=dict)  # (instance, kind) -> counts of passed solves
    chosen: dict = field(default_factory=dict)  # kind -> sum |expansion set|
    applicable: dict = field(default_factory=dict)  # kind -> sum |applicable set|
    attempted: int = 0
    failed: int = 0


class Harness:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self.instances = corpus.instances(workload, seed)
        self.reps = dict.fromkeys(KINDS, 1)
        self.first_counts: dict = {}  # exact counts of the first pass
        self.problems: list[str] = []

    def fail(self, p: Pass, message: str) -> None:
        p.failed += 1
        self.problems.append(message)
        if len(self.problems) <= 10:
            print(f"FAILED {message}", file=sys.stderr)

    def solve(self, p: Pass, index: int, task, kind: str, tracer) -> tuple[float, float]:
        """Set up and solve one instance; returns (setup, solve) seconds."""
        w = self.workload
        instance = self.instances[index]
        traced = isinstance(tracer, Tracer)
        p.attempted += 1
        try:
            t0 = perf_counter()
            tracer.begin("strategies.make_strategy")
            strategy = make_strategy(task, kind)
            tracer.end()
            heuristic = None
            if w.heuristic:
                tracer.begin("heuristics.make_heuristic")
                heuristic = make_heuristic(task, w.heuristic)
                tracer.end()
            t1 = perf_counter()
            if traced:
                strategy = TracedStrategy(strategy, tracer)
                if heuristic:
                    heuristic = timed(heuristic, "heuristics.eval", tracer)
            limits = Limits(max_expanded=w.max_expanded)
            tracer.solve += 1
            tracer.begin("solve")
            tracer.begin("search." + w.engine)
            if w.engine == "bfs":
                result = bfs(task, strategy, limits)
            else:
                result = astar(task, heuristic, strategy, limits)
            tracer.end()
            tracer.begin("model.validate_plan")
            problem = check_plan(task, result, None if kind == "sp" else instance.expected_cost)
            tracer.end()
            tracer.end()
            t2 = perf_counter()
        except Exception:  # a raising solve is a failed solve; keep measuring
            tracer.close_open()
            self.fail(p, f"{instance.name} {kind}: {traceback.format_exc()}")
            return 0.0, 0.0
        if traced:
            p.chosen[kind] = p.chosen.get(kind, 0) + strategy.chosen
            p.applicable[kind] = p.applicable.get(kind, 0) + strategy.applicable
        counts = (
            result.outcome,
            result.expanded,
            result.generated,
            result.peak_open_size,
            result.plan.cost if result.plan else None,
        )
        known = self.first_counts.setdefault((index, kind), counts)
        if problem is None and known != counts:
            problem = f"counts {counts} differ from the first pass {known}"
        if problem is not None:
            self.fail(p, f"{instance.name} {kind}: {problem}")
        else:
            p.counts[index, kind] = counts
        return t1 - t0, t2 - t1

    def run_pass(self, tracer=None) -> Pass:
        tracer = tracer or NullTracer()
        p = Pass()
        speed = Speed()
        tasks = []
        parses = []  # (seconds, interval)
        tracer.kind = ""
        for instance in self.instances:
            start = perf_counter()
            tracer.begin("sas_io.parse_sas")
            tasks.append(parse_sas(instance.text))
            tracer.end()
            parses.append((perf_counter() - start, speed.interval()))
        solves = []  # (kind, rep, setup seconds, solve seconds, interval)
        for kind in KINDS:
            tracer.kind = kind
            for rep in range(self.reps[kind]):
                for index, task in enumerate(tasks):
                    setup, solve = self.solve(p, index, task, kind, tracer)
                    solves.append((kind, rep, setup, solve, speed.interval()))
        speed.close()

        p.raw_setup_s = sum(s for s, _ in parses)
        p.setup_s = sum(s * speed.factor(i) for s, i in parses)
        for kind in KINDS:
            reps = [[0.0] * 4 for _ in range(self.reps[kind])]
            for k, rep, setup, solve, i in solves:
                if k == kind:
                    f = speed.factor(i)
                    row = reps[rep]
                    row[0] += setup * f
                    row[1] += solve * f
                    row[2] += setup
                    row[3] += solve
            setup, solve, raw_setup, raw_solve = (statistics.median(col) for col in zip(*reps))
            p.setup_s += setup
            p.solve_s[kind] = solve
            p.raw_setup_s += raw_setup
            p.raw_solve_s[kind] = raw_solve
        p.factor = statistics.median(speed.factor(i) for i in range(len(speed.references) - 1))
        return p

    def calibrate(self, warm: Pass) -> None:
        """Repeat each strategy's batch until it lasts MIN_BATCH_S."""
        for kind in KINDS:
            needed = math.ceil(MIN_BATCH_S / max(warm.solve_s[kind], 1e-6))
            self.reps[kind] = min(MAX_REPS, max(1, needed))

    def passes(self, seconds: float) -> list[Pass]:
        """Untraced passes until `seconds` have gone by, at least MIN_PASSES."""
        done = []
        start = perf_counter()
        while len(done) < MIN_PASSES or perf_counter() - start < seconds:
            done.append(self.run_pass())
        return done

    def traced_passes(self, seconds: float) -> tuple[list, Tracer]:
        """Traced passes until `seconds` have gone by, at least one, as
        (pass, per-layer row) pairs, and the tracer of the last pass. Only
        that tracer's spans outlive their pass."""
        done = []
        start = perf_counter()
        while not done or perf_counter() - start < seconds:
            last = None  # let the previous pass's spans go before this pass
            tracer = Tracer()
            with patched(tracer):
                p = self.run_pass(tracer)
            done.append((p, layer_row(self, p, tracer)))
            last = tracer
        return done, last

    def count(self, kind: str, column: int) -> int:
        return sum(self.first_counts[i, kind][column] for i in range(len(self.instances)))


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few for a tail percentile"
    p = math.floor(100 * (n - 10) / n)
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p}={value:.6g}, n={n}"


def end_to_end(h: Harness, passes: list[Pass]) -> dict:
    samples = {f"solve_s.{kind}": [p.solve_s[kind] for p in passes] for kind in KINDS}
    samples["setup_s"] = [p.setup_s for p in passes]
    raw = {f"solve_s.{kind}": [p.raw_solve_s[kind] for p in passes] for kind in KINDS}
    raw["setup_s"] = [p.raw_setup_s for p in passes]
    expanded = h.count("none", 1)
    samples["expansions_per_s.none"] = [expanded / p.solve_s["none"] for p in passes]
    raw["expansions_per_s.none"] = [expanded / p.raw_solve_s["none"] for p in passes]
    units = {name: "s" for name in samples}
    units["expansions_per_s.none"] = "1/s"
    metrics = {}
    for name, values in samples.items():
        value = statistics.median(values)
        print(
            f"{name}: median {value:.6g} {units[name]} ({tail_percentile(values)});"
            f" unscaled wall median {statistics.median(raw[name]):.6g}"
        )
        metrics[name] = {"value": value, "unit": units[name]}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb: {rss_mb:.6g} MB")
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return metrics


def layer_row(h: Harness, p: Pass, tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass.

    On a workload without a heuristic the heuristics.* entries are 0:
    nothing was evaluated, which is what a change confined to the
    heuristics layer must leave unchanged there.
    """
    engine_span = "search." + h.workload.engine
    duration, self_time, count = tracer.totals()
    # span times are rescaled by the pass's median Speed factor
    for totals in (duration, self_time):
        for key in totals:
            totals[key] *= p.factor
    row = {"sas_io.parse_s": duration["", "sas_io.parse_sas"]}
    heuristic_setup = build_pdg = fixpoint = validate = 0.0
    eval_s_total = evals_total = 0
    for kind in KINDS:
        reps = h.reps[kind]
        row[f"strategies.setup_s.{kind}"] = duration[kind, "strategies.make_strategy"] / reps
        expansion_s = duration[kind, "strategies.expansion"] / reps
        calls = count[kind, "strategies.expansion"] / reps
        row[f"strategies.expansion_s.{kind}"] = expansion_s
        row[f"strategies.expansion_calls.{kind}"] = calls
        row[f"strategies.us_per_state.{kind}"] = 1e6 * expansion_s / calls if calls else 0.0
        row[f"strategies.pruning_ratio.{kind}"] = p.chosen[kind] / p.applicable[kind]
        eval_s = duration[kind, "heuristics.eval"] / reps
        evals = count[kind, "heuristics.eval"] / reps
        row[f"heuristics.eval_s.{kind}"] = eval_s
        row[f"heuristics.evals.{kind}"] = evals
        eval_s_total += eval_s
        evals_total += evals
        row[f"search.expanded.{kind}"] = h.count(kind, 1)
        row[f"search.generated.{kind}"] = h.count(kind, 2)
        row[f"search.peak_open.{kind}"] = h.count(kind, 3)
        row[f"search.self_s.{kind}"] = self_time[kind, engine_span] / reps
        heuristic_setup += duration[kind, "heuristics.make_heuristic"] / reps
        build_pdg += duration[kind, "graphs.build_pdg"] / reps
        fixpoint += duration[kind, "strategies.sac_fixpoint"] / reps
        validate += duration[kind, "model.validate_plan"] / reps
    row["graphs.build_pdg_s"] = build_pdg
    row["strategies.sac_fixpoint_s"] = fixpoint
    row["heuristics.setup_s"] = heuristic_setup
    row["heuristics.us_per_eval"] = 1e6 * eval_s_total / evals_total if evals_total else 0.0
    row["model.validate_s"] = validate
    return row


def per_layer(untraced: list[Pass], traced: list) -> dict:
    """Medians of the traced passes' rows, and the tracing overhead."""
    rows = [row for _, row in traced]
    untraced_s = statistics.median(sum(p.solve_s.values()) for p in untraced)
    traced_s = statistics.median(sum(p.solve_s.values()) for p, _ in traced)
    metrics = {}
    for name in rows[0]:
        value = statistics.median(row[name] for row in rows)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics


def layer_unit(name: str) -> str:
    quantity = name.split(".")[1]
    if quantity.endswith("_s"):
        return "s"
    if quantity.startswith("us_per_"):
        return "us"
    if quantity == "pruning_ratio":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    h = Harness(args.workload, args.seed)
    warm = h.run_pass()
    h.calibrate(warm)
    all_passes = [warm]
    if args.trace:
        untraced = h.passes(args.seconds / 2)
        traced, last_tracer = h.traced_passes(args.seconds / 2)
        all_passes += untraced + [p for p, _ in traced]
        metrics = per_layer(untraced, traced)
        last_tracer.write(ROOT / ".bench_trace" / f"{args.workload}.jsonl.gz")
    else:
        untraced = h.passes(args.seconds)
        all_passes += untraced
        metrics = end_to_end(h, untraced)
    print(f"reps per pass: {h.reps}")
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    result = {
        "correct": not h.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
