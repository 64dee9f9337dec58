from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from porplan import Action, PartialAssignment, State, Task, Variable

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent
BENCH_WORKLOADS = ("counters-bfs", "random-astar-blind", "logistics-astar-hmax")


def perfbench_corpus():
    """perfbench/corpus.py, the benchmark's instance generator, loaded from
    its file without putting perfbench on sys.path."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def build_task(domains, actions, initial, goal, uses_metric=False, names=None):
    """Compact task factory: actions are (name, pre pairs, eff pairs[, cost])."""
    variables = tuple(
        Variable(i, (names or [f"x{i + 1}" for i in range(len(domains))])[i], d)
        for i, d in enumerate(domains)
    )
    built = []
    for i, spec in enumerate(actions):
        name, pre, eff = spec[0], spec[1], spec[2]
        cost = spec[3] if len(spec) > 3 else 1
        built.append(
            Action(i, name, PartialAssignment.of(pre), PartialAssignment.of(eff), cost)
        )
    return Task(
        variables=variables,
        actions=tuple(built),
        initial=State(tuple(initial)),
        goal=PartialAssignment.of(goal),
        uses_metric=uses_metric,
    )


@pytest.fixture
def build():
    return build_task


@pytest.fixture
def two_switches() -> Task:
    """Two independent binary toggles; both must end up on."""
    return build_task(
        domains=[2, 2],
        actions=[
            ("a", [(0, 0)], [(0, 1)]),
            ("b", [(1, 0)], [(1, 1)]),
        ],
        initial=[0, 0],
        goal=[(0, 1), (1, 1)],
    )


@pytest.fixture
def enable_chain() -> Task:
    """a enables b: a sets x2=1, b needs x2=1 and x3=2 to set x3=3."""
    return build_task(
        domains=[2, 2, 4],
        actions=[
            ("a", [(0, 0)], [(1, 1)]),
            ("b", [(1, 1), (2, 2)], [(2, 3)]),
        ],
        initial=[0, 0, 2],
        goal=[(2, 3)],
    )


@pytest.fixture
def support_chain() -> Task:
    """Goal mover a needs support from b; c is applicable but irrelevant;
    e sits on a non-landmark transition of the goal variable."""
    return build_task(
        domains=[2, 2, 2],
        actions=[
            ("a", [(0, 0), (1, 1)], [(0, 1)]),
            ("b", [(1, 0), (2, 0)], [(1, 1)]),
            ("c", [(2, 0)], [(2, 1)]),
            ("e", [(0, 1)], [(0, 1)]),
        ],
        initial=[0, 0, 0],
        goal=[(0, 1)],
    )
