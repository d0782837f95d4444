"""Output checks computed apart from the simulator.

Every check reads the program's outputs (schedules, link reservations,
campaign outcomes, sweep rows) and recomputes what they must satisfy with
its own arithmetic: shortest paths come from ``networkx`` over the live
links, route latencies are summed hop by hop, and end-of-run holdings are
compared reservation by reservation.  A check returns a list of violations;
an empty list means the output passed.

    (a) fixed-spff routes have shortest-path latency over the live links
    (b) every route runs global -> local and back over live links
    (c) 0 <= used <= capacity on every link direction
    (d) a finished run leaves exactly the background reservations
    (e) campaign accounting: completion = admission + sum of rounds
    (f) a round lasts at least its longest broadcast + upload latency
    (g) the JSONL sink holds exactly the returned rows, in run-key order
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import networkx as nx

#: Relative slack for comparing sums of float latencies or loads.
REL_TOL = 1e-9

Holdings = Dict[Tuple[str, str], Dict[str, float]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _hop_latency(network, path: Sequence[str]) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += network.link(a, b).latency_ms
    return total


def _tree_path(tree, node: str) -> List[str]:
    """``node`` up to the tree's root, walked from the parent map."""
    path = [node]
    while path[-1] != tree.root:
        parent = tree.parent.get(path[-1])
        if parent is None or parent in path:
            return path + ["<broken tree>"]
        path.append(parent)
    return path


def routes(schedule) -> List[Tuple[str, List[str], List[str]]]:
    """``(local, broadcast path, upload path)`` for every local model."""
    task = schedule.task
    out = []
    for local in task.local_nodes:
        if schedule.broadcast_tree is not None:
            down = list(reversed(_tree_path(schedule.broadcast_tree, local)))
            up = _tree_path(schedule.upload_tree, local)
        else:
            down = list(schedule.broadcast_routes.get(local, ()))
            up = list(schedule.upload_routes.get(local, ()))
        out.append((local, down, up))
    return out


class LiveDistances:
    """Shortest-path latencies over the live links, memoised per failure set."""

    def __init__(self, network) -> None:
        self.network = network
        self._memo: Dict[Any, Tuple[nx.Graph, Dict[str, Dict[str, float]]]] = {}

    def from_node(self, source: str) -> Dict[str, float]:
        links = list(self.network.links())
        failed = frozenset((link.u, link.v) for link in links if link.failed)
        if failed not in self._memo:
            graph = nx.Graph()
            graph.add_nodes_from(self.network.node_names())
            graph.add_weighted_edges_from(
                ((link.u, link.v, link.latency_ms) for link in links if not link.failed),
                weight="latency",
            )
            self._memo[failed] = (graph, {})
        graph, per_source = self._memo[failed]
        if source not in per_source:
            per_source[source] = nx.single_source_dijkstra_path_length(
                graph, source, weight="latency"
            )
        return per_source[source]


def check_shortest_routes(schedule, distances: LiveDistances) -> List[str]:
    """(a) Each fixed route's latency equals the live shortest-path latency."""
    if schedule.broadcast_tree is not None:
        return []
    task = schedule.task
    best = distances.from_node(task.global_node)
    problems = []
    network = distances.network
    for local, down, up in routes(schedule):
        for kind, path in (("broadcast", down), ("upload", up)):
            got = _hop_latency(network, path)
            want = best.get(local)
            if want is None or not _close(got, want):
                problems.append(
                    f"(a) {task.task_id} {kind} route to {local}: "
                    f"{got:.6f} ms, shortest is {want}"
                )
    return problems


def check_route_shape(schedule, network) -> List[str]:
    """(b) Routes join global and each local over existing live links."""
    task = schedule.task
    problems = []
    for local, down, up in routes(schedule):
        for kind, path, start, end in (
            ("broadcast", down, task.global_node, local),
            ("upload", up, local, task.global_node),
        ):
            if not path or path[0] != start or path[-1] != end:
                problems.append(
                    f"(b) {task.task_id} {kind} route {path} does not run "
                    f"{start} -> {end}"
                )
                continue
            if len(set(path)) != len(path):
                problems.append(f"(b) {task.task_id} {kind} route {path} loops")
            for a, b in zip(path, path[1:]):
                if not network.has_link(a, b) or network.link(a, b).failed:
                    problems.append(
                        f"(b) {task.task_id} {kind} route uses dead hop {a}-{b}"
                    )
    return problems


def check_capacity(network) -> List[str]:
    """(c) Every link direction carries between 0 and its capacity."""
    problems = []
    for link in network.links():
        cap = link.capacity_gbps
        for src, dst in ((link.u, link.v), (link.v, link.u)):
            used = link.used_gbps(src, dst)
            if not 0.0 <= used <= cap + REL_TOL * max(1.0, cap):
                problems.append(
                    f"(c) {src}->{dst}: {used:.6f} Gbps used of {cap} Gbps"
                )
    return problems


def holdings(network) -> Holdings:
    """Every direction's reservations as ``{(src, dst): {owner: gbps}}``."""
    out: Holdings = {}
    for link in network.links():
        for src, dst in ((link.u, link.v), (link.v, link.u)):
            held = {res.owner: res.gbps for res in link.reservations(src, dst)}
            if held:
                out[(src, dst)] = held
    return out


def check_released(before: Holdings, network) -> List[str]:
    """(d) The network holds exactly what it held after background load."""
    after = holdings(network)
    problems = []
    for edge in sorted(set(before) | set(after)):
        if before.get(edge, {}) != after.get(edge, {}):
            problems.append(
                f"(d) {edge[0]}->{edge[1]}: held {before.get(edge, {})} after "
                f"injection, {after.get(edge, {})} at the end"
            )
    return problems


def check_campaign(result, tasks: Iterable[Any]) -> List[str]:
    """(e) Finished tasks: completion = admission + rounds; makespan = last."""
    rounds_of = {task.task_id: task.rounds for task in tasks}
    problems = []
    finished = []
    for task_id, outcome in result.outcomes.items():
        if outcome.completed_ms is None:
            continue
        finished.append(outcome.completed_ms)
        if outcome.admitted_ms is None:
            problems.append(f"(e) {task_id} finished without admission")
            continue
        clock = outcome.admitted_ms
        for duration in outcome.round_durations_ms:
            clock += duration
        if not _close(clock, outcome.completed_ms):
            problems.append(
                f"(e) {task_id} completed at {outcome.completed_ms}, "
                f"admission + rounds gives {clock}"
            )
        if (
            outcome.rounds_run != rounds_of.get(task_id)
            or len(outcome.round_durations_ms) != outcome.rounds_run
        ):
            problems.append(
                f"(e) {task_id} ran {outcome.rounds_run} rounds "
                f"({len(outcome.round_durations_ms)} timed) of "
                f"{rounds_of.get(task_id)}"
            )
    if finished and result.makespan_ms != max(finished):
        problems.append(
            f"(e) makespan {result.makespan_ms} is not the last completion "
            f"{max(finished)}"
        )
    return problems


def check_round_bound(duration_ms: float, schedule, network) -> List[str]:
    """(f) A round is no shorter than its propagation critical path."""
    legs = routes(schedule)
    bound = max(_hop_latency(network, down) for _, down, _ in legs) + max(
        _hop_latency(network, up) for _, _, up in legs
    )
    if duration_ms < bound - REL_TOL * max(1.0, bound):
        return [
            f"(f) {schedule.task.task_id}: round of {duration_ms:.6f} ms is "
            f"shorter than its propagation bound {bound:.6f} ms"
        ]
    return []


def expected_row_keys(
    scenarios: Sequence[str],
    grid: Mapping[str, Sequence[Any]],
    seeds: Sequence[int],
    schedulers: Sequence[str],
) -> List[Tuple[Any, ...]]:
    """Run-key order of a sweep: scenario, sorted grid product, seed, scheduler."""
    names = sorted(grid)
    order = []
    for scenario in scenarios:
        for combo in itertools.product(*(grid[name] for name in names)):
            for seed in seeds:
                for scheduler in schedulers:
                    order.append((scenario, combo, seed, scheduler))
    return order


def check_sweep_file(
    path: str,
    rows: Sequence[Mapping[str, Any]],
    order: Sequence[Tuple[Any, ...]],
    grid_names: Sequence[str],
    n_tasks: int,
) -> List[str]:
    """(g) The JSONL file equals the returned rows, in run-key order."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    problems = []
    returned = [json.loads(json.dumps(row, sort_keys=True, default=str)) for row in rows]
    if lines != returned:
        problems.append(
            f"(g) sink holds {len(lines)} rows, the sweep returned "
            f"{len(returned)}, and they differ"
        )
    names = sorted(grid_names)
    got = [
        (
            row.get("scenario"),
            tuple(row.get(name) for name in names),
            row.get("seed"),
            row.get("scheduler"),
        )
        for row in lines
    ]
    if got != [tuple(key) for key in order]:
        problems.append("(g) sink rows are not in run-key order")
    for row in lines:
        if row.get("served", 0) + row.get("blocked", 0) != n_tasks:
            problems.append(
                f"(g) row {row.get('scenario')}/{row.get('seed')}/"
                f"{row.get('scheduler')}: served + blocked != {n_tasks}"
            )
    return problems


class Auditor:
    """Checks (a)-(c) after every schedule call of a wrapped scheduler.

    ``checked(cls)`` returns a subclass of a scheduler whose ``schedule``
    defers to the original and then audits the network it just changed;
    a rejected call is audited for capacity too.  Violations collect in
    ``problems``.
    """

    def __init__(self, network) -> None:
        self.distances = LiveDistances(network)
        self.problems: List[str] = []

    def checked(self, scheduler_cls):
        auditor = self

        class Checked(scheduler_cls):
            def schedule(self, task, network):
                try:
                    schedule = super().schedule(task, network)
                finally:
                    auditor.problems += check_capacity(network)
                auditor.problems += check_route_shape(schedule, network)
                auditor.problems += check_shortest_routes(
                    schedule, auditor.distances
                )
                return schedule

        Checked.__name__ = f"Checked{scheduler_cls.__name__}"
        return Checked
