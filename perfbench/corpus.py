"""Deterministic generator of the benchmark corpus, written as .sas text.

The files are emitted here rather than through porplan.sas_io.emit_sas,
so the program's reader parses text it did not produce itself. Each
family function draws one Instance from a random.Random; `instances`
gives a workload's whole corpus for a seed, and the same seed always
gives the same text.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

# Shape of the random tasks, after the ROADMAP baseline.
RANDOM_VARS = 24
RANDOM_DOMAIN = 4
RANDOM_ACTIONS = 200
RANDOM_GOAL_SIZE = 4
# Shape of the logistics tasks. Small enough that each unreduced A*
# solve stays short, and that a plain Dijkstra search over all
# 4**2 * 6**3 states finds each optimum when the corpus is made.
LOGISTICS_TRUCKS = 2
LOGISTICS_LOCATIONS = 4
LOGISTICS_PACKAGES = 3


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    # optimal plan cost, which every strategy but sp must reach
    expected_cost: int


def sas_text(
    variables: list[tuple[str, list[str]]],
    initial: list[int],
    goal: list[tuple[int, int]],
    operators: list[tuple[str, list[tuple[int, int]], list[tuple[int, int, int]], int]],
    metric: bool,
) -> str:
    """Format version 3 text. operators are (name, prevail, [(var, pre, post)], cost)."""
    out = ["begin_version", "3", "end_version", "begin_metric", str(int(metric)), "end_metric"]
    out.append(str(len(variables)))
    for name, values in variables:
        out += ["begin_variable", name, "-1", str(len(values)), *values, "end_variable"]
    out += ["0", "begin_state", *map(str, initial), "end_state"]
    out += ["begin_goal", str(len(goal)), *(f"{v} {val}" for v, val in goal), "end_goal"]
    out.append(str(len(operators)))
    for name, prevail, effects, cost in operators:
        out += ["begin_operator", name, str(len(prevail))]
        out += [f"{v} {val}" for v, val in prevail]
        out.append(str(len(effects)))
        out += [f"0 {v} {pre} {post}" for v, pre, post in effects]
        out += [str(cost), "end_operator"]
    out.append("0")
    return "\n".join(out) + "\n"


def counters(rng: random.Random, n: int, d: int) -> Instance:
    """n independent counters with d values each, counted up from 0 to d-1.

    The seed shuffles variable and operator order, which leaves the state
    space and every search count unchanged: the unreduced BFS expands all
    d**n states and the optimal plan costs n*(d-1).
    """
    order = list(range(n))
    rng.shuffle(order)
    variables = [(f"c{i}", [f"c{i}={v}" for v in range(d)]) for i in order]
    position = {c: p for p, c in enumerate(order)}
    operators = [
        (f"inc-c{c}-{v}", [], [(position[c], v, v + 1)], 1)
        for c in range(n)
        for v in range(d - 1)
    ]
    rng.shuffle(operators)
    goal = [(p, d - 1) for p in range(n)]
    return Instance(f"counters-{n}x{d}", sas_text(variables, [0] * n, goal, operators, False), n * (d - 1))


def random_task(rng: random.Random, index: int) -> Instance:
    """A random task in the shape of the ROADMAP baseline, solved in two steps.

    Operators have 1-2 effect and 0-2 precondition facts, in equal shares.
    In the initial state exactly the share of them that a uniformly drawn
    state would enable on average is applicable (all without a
    precondition, a quarter with one fact, a sixteenth with two), and
    each of those changes the state. The goal is RANDOM_GOAL_SIZE facts of the
    state a two-step walk reaches (the facts the walk changed first), and
    no single step reaches it. Operators that lead from the initial state
    to a state one step short of the goal are listed last: A* breaks
    f-ties by insertion order, so it examines every other state one step
    from the start before it finds the goal. These choices keep the work
    per instance nearly the same on every seed.
    """
    while True:
        initial = [rng.randrange(RANDOM_DOMAIN) for _ in range(RANDOM_VARS)]
        rows = [_random_operator(rng, k, initial) for k in range(RANDOM_ACTIONS)]
        rng.shuffle(rows)
        goal = _two_step_goal(rng, rows, initial)
        if goal is not None:
            break

    def reaches(values):
        return all(values[v] == val for v, val in goal)

    last = {
        k
        for k, middle in _successors(rows, initial)
        if any(reaches(values) for _, values in _successors(rows, middle))
    }
    order = [k for k in range(RANDOM_ACTIONS) if k not in last] + sorted(last)
    operators = []
    for i, k in enumerate(order):
        pre, eff = rows[k]
        prevail = sorted((v, val) for v, val in pre.items() if v not in eff)
        effects = sorted((v, pre.get(v, -1), val) for v, val in eff.items())
        operators.append((f"op{i}", prevail, effects, 1))
    variables = [(f"v{i}", [f"v{i}={x}" for x in range(RANDOM_DOMAIN)]) for i in range(RANDOM_VARS)]
    return Instance(f"random-{index}", sas_text(variables, initial, goal, operators, False), 2)


def _random_operator(rng, k, initial):
    """Operator k as (precondition, effect) dicts; see random_task."""
    pre_count = k % 3
    eff_count = 1 + (k // 3) % 2
    class_size = len(range(pre_count, RANDOM_ACTIONS, 3))
    enabled = k // 3 < round(class_size / RANDOM_DOMAIN**pre_count)
    pre_vars = rng.sample(range(RANDOM_VARS), pre_count)
    while True:
        pre = {v: rng.randrange(RANDOM_DOMAIN) for v in pre_vars}
        if enabled == all(initial[v] == val for v, val in pre.items()):
            break
    eff_vars = rng.sample(range(RANDOM_VARS), eff_count)
    while True:
        eff = {v: rng.randrange(RANDOM_DOMAIN) for v in eff_vars}
        if not enabled or any(initial[v] != val for v, val in eff.items()):
            return pre, eff


def _successors(rows, values):
    """(operator index, successor values) for every operator applicable in values."""
    for k, (pre, eff) in enumerate(rows):
        if all(values[v] == val for v, val in pre.items()):
            succ = list(values)
            for v, val in eff.items():
                succ[v] = val
            yield k, succ


def _two_step_goal(rng, rows, initial):
    """Goal facts two steps from the initial state that one step cannot reach, or None."""
    first = [succ for _, succ in _successors(rows, initial)]
    middle = rng.choice(first)
    values = rng.choice([succ for _, succ in _successors(rows, middle)])
    changed = [v for v in range(len(initial)) if values[v] != initial[v]]
    rest = [v for v in range(len(initial)) if values[v] == initial[v]]
    rng.shuffle(rest)
    goal = sorted((v, values[v]) for v in (changed + rest)[:RANDOM_GOAL_SIZE])
    if any(all(s[v] == val for v, val in goal) for s in [initial, *first]):
        return None
    return goal


def logistics(rng: random.Random, index: int) -> Instance:
    """Trucks drive a connected road map with metric costs and carry packages.

    Variables: one per truck (its location) and one per package (a
    location, or inside a truck). The roads are a ring plus one chord,
    each with a drive cost of 1-4; load and unload cost 1.

    The map, costs and start/goal positions of instance `index` are fixed;
    the seed draws a random relabelling of locations, trucks and packages
    and a random variable and operator order. Every seed thus poses the
    same problem up to isomorphism, so its optimal cost and the states
    below the optimal f-layer are the same, while the text the reader
    parses and A*'s tie order change. The optimum is computed on the
    unrelabelled problem by _logistics_optimum.
    """
    trucks, locations, packages = LOGISTICS_TRUCKS, LOGISTICS_LOCATIONS, LOGISTICS_PACKAGES
    base = random.Random(f"logistics-{index}")
    edges = {(i, (i + 1) % locations) for i in range(locations)}
    a, b = base.sample(range(locations), 2)
    edges.add((min(a, b), max(a, b)))
    roads = {(min(e), max(e)): base.randint(1, 4) for e in sorted(edges)}
    truck_at = [base.randrange(locations) for _ in range(trucks)]
    routes = [tuple(base.sample(range(locations), 2)) for _ in range(packages)]

    loc = list(range(locations))
    rng.shuffle(loc)
    truck_ids = list(range(trucks))
    rng.shuffle(truck_ids)
    pkg_ids = list(range(packages))
    rng.shuffle(pkg_ids)
    # variable position of truck t is var_of[t], of package p var_of[trucks + p]
    var_of = list(range(trucks + packages))
    rng.shuffle(var_of)

    variables: list = [None] * (trucks + packages)
    for t in range(trucks):
        name = f"truck{truck_ids[t]}"
        variables[var_of[t]] = (name, [f"{name}@l{loc[x]}" for x in range(locations)])
    for p in range(packages):
        name = f"pkg{pkg_ids[p]}"
        values = [f"{name}@l{loc[x]}" for x in range(locations)]
        values += [f"{name}@truck{truck_ids[t]}" for t in range(trucks)]
        variables[var_of[trucks + p]] = (name, values)

    operators = []
    for t in range(trucks):
        tv, tn = var_of[t], truck_ids[t]
        for (x, y), cost in roads.items():
            operators.append((f"drive-truck{tn}-l{loc[x]}-l{loc[y]}", [], [(tv, x, y)], cost))
            operators.append((f"drive-truck{tn}-l{loc[y]}-l{loc[x]}", [], [(tv, y, x)], cost))
    for p in range(packages):
        pv, pn = var_of[trucks + p], pkg_ids[p]
        for t in range(trucks):
            tv, tn = var_of[t], truck_ids[t]
            for x in range(locations):
                where = f"truck{tn}-l{loc[x]}"
                operators.append((f"load-pkg{pn}-{where}", [(tv, x)], [(pv, x, locations + t)], 1))
                operators.append((f"unload-pkg{pn}-{where}", [(tv, x)], [(pv, locations + t, x)], 1))
    rng.shuffle(operators)

    initial = [0] * (trucks + packages)
    for t in range(trucks):
        initial[var_of[t]] = truck_at[t]
    for p, (origin, _) in enumerate(routes):
        initial[var_of[trucks + p]] = origin
    goal = sorted((var_of[trucks + p], dest) for p, (_, dest) in enumerate(routes))
    optimum = _logistics_optimum(roads, truck_at, routes)
    return Instance(f"logistics-{index}", sas_text(variables, initial, goal, operators, True), optimum)


def _logistics_optimum(roads: dict, truck_at: list[int], routes: list[tuple[int, int]]) -> int:
    """Optimal plan cost of a logistics task, by a plain Dijkstra search that
    shares no code with porplan.

    A state is (truck locations, package positions); a package position
    is a location, or LOGISTICS_LOCATIONS + t while the package is in
    truck t.
    """
    locations = LOGISTICS_LOCATIONS
    neighbours: dict = {x: [] for x in range(locations)}
    for (x, y), cost in roads.items():
        neighbours[x].append((y, cost))
        neighbours[y].append((x, cost))
    goal = tuple(dest for _, dest in routes)
    start = (tuple(truck_at), tuple(origin for origin, _ in routes))
    best = {start: 0}
    frontier = [(0, start)]
    while frontier:
        cost, state = heapq.heappop(frontier)
        if cost > best[state]:
            continue
        at, packages = state
        if packages == goal:
            return cost
        successors = []
        for t, x in enumerate(at):
            for y, drive in neighbours[x]:
                successors.append((cost + drive, (at[:t] + (y,) + at[t + 1:], packages)))
        for p, where in enumerate(packages):
            if where < locations:  # load into any truck standing there
                targets = [locations + t for t, x in enumerate(at) if x == where]
            else:  # unload where the truck stands
                targets = [at[where - locations]]
            for target in targets:
                successors.append((cost + 1, (at, packages[:p] + (target,) + packages[p + 1:])))
        for succ_cost, succ in successors:
            if succ_cost < best.get(succ, succ_cost + 1):
                best[succ] = succ_cost
                heapq.heappush(frontier, (succ_cost, succ))
    raise ValueError("logistics task has no plan")


# Counter sizes (n, d): each unreduced solve stays short, so that the
# speed reference timed next to it describes the host during the solve.
COUNTER_SIZES = ((7, 3), (5, 4), (4, 6), (6, 3))
# Random instances vary slightly between draws; several of them per run
# keep the per-seed totals close to each other.
RANDOM_TASKS = 10
LOGISTICS_TASKS = 8


def instances(workload: str, seed: int) -> list[Instance]:
    """The corpus of one workload for one seed."""
    rng = random.Random(seed)
    if workload == "counters-bfs":
        return [counters(rng, n, d) for n, d in COUNTER_SIZES]
    if workload == "random-astar-blind":
        return [random_task(rng, i) for i in range(RANDOM_TASKS)]
    if workload == "logistics-astar-hmax":
        return [logistics(rng, i) for i in range(LOGISTICS_TASKS)]
    raise ValueError(f"unknown workload {workload!r}")
