"""Spans recorded from outside the library, around calls into each layer.

A span is [name, parent index, solve id, kind, start, end]; the parent
is the span open when it began, all spans of one solve share the solve
id, and kind is the expansion strategy the harness was running ("" for
parsing, which all strategies share). Spans stay in memory until the
caller writes them out. Nothing here
changes the library: the traced objects wrap the strategy and heuristic
handed to the engine, and `patched` swaps the two module functions the
strategies call per state for timed versions while a traced pass runs.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from porplan import strategies
from porplan.strategies import full_expansion


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    kind = ""
    solve = 0

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def close_open(self) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.solve = 0
        self.kind = ""

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, parent, self.solve, self.kind, perf_counter(), 0.0])

    def end(self) -> None:
        self.spans[self._open.pop()][5] = perf_counter()

    def close_open(self) -> None:
        """End every open span; used after a solve raised."""
        while self._open:
            self.end()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per (kind, span name): summed duration, summed self time, count.

        Self time is a span's duration minus the time its children cover.
        """
        duration: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        count: dict = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, parent, _, kind, start, end = self.spans[i]
            d = end - start
            duration[kind, name] += d
            self_time[kind, name] += d - child_time[i]
            count[kind, name] += 1
            if parent >= 0:
                child_time[parent] += d
        return duration, self_time, count

    def write(self, path: Path) -> None:
        """One JSON line per span, ids being positions in the file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, solve, kind, start, end) in enumerate(self.spans):
                record = {"id": i, "parent": parent, "solve": solve, "kind": kind,
                          "name": name, "start": start, "end": end}
                fh.write(json.dumps(record) + "\n")


class TracedStrategy:
    """Times each expansion-set call, then probes the full applicable set
    in a span of its own so the pruning ratio costs the strategy nothing."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.node_key = inner.node_key
        self.chosen = 0
        self.applicable = 0

    def expansion(self, ctx):
        tracer = self.tracer
        tracer.begin("strategies.expansion")
        chosen = self.inner.expansion(ctx)
        tracer.end()
        tracer.begin("trace.probe")
        applicable = full_expansion(self.inner.task, ctx.state)
        tracer.end()
        self.chosen += len(chosen)
        self.applicable += len(applicable)
        return chosen


def timed(fn, name: str, tracer: Tracer):
    """fn inside a span. A raising call leaves the span open; the harness
    closes it with Tracer.close_open."""

    def call(*args, **kwargs):
        tracer.begin(name)
        result = fn(*args, **kwargs)
        tracer.end()
        return result

    return call


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Time graphs.build_pdg and strategies.sac_fixpoint where the
    strategies module calls them."""
    saved = strategies.build_pdg, strategies.sac_fixpoint
    strategies.build_pdg = timed(saved[0], "graphs.build_pdg", tracer)
    strategies.sac_fixpoint = timed(saved[1], "strategies.sac_fixpoint", tracer)
    try:
        yield
    finally:
        strategies.build_pdg, strategies.sac_fixpoint = saved
