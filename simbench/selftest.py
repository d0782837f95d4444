"""Self-test of the oracle checks: each must pass clean input and fire on a corruption.

    python3 simbench/selftest.py

Small real outputs are produced with the simulator, each check is run on
them as they are (it must report nothing) and on one corrupted copy (it
must report a violation): a detour route, a dead hop, an over-capacity
link, a leaked reservation, a shifted completion time, a round shorter
than its propagation, and a dropped sink row.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from typing import Callable, Dict, List, Tuple

import networkx as nx

import oracle


def _hub_case():
    """A granted fixed-spff schedule on a small hub fabric, still held."""
    from repro.core.fixed import FixedScheduler
    from repro.orchestrator.campaign import orchestrator_for
    from repro.orchestrator.database import TaskStatus
    from repro.scenarios import get_scenario

    instance = get_scenario("scale-free-hubs").instantiate(
        {"n_routers": 16, "n_tasks": 3}, seed=3
    )
    orchestrator = orchestrator_for(instance, FixedScheduler())
    baseline = oracle.holdings(instance.network)
    for task in instance.workload:
        record = orchestrator.admit(task)
        if record.status is TaskStatus.RUNNING:
            report = orchestrator.evaluate(task.task_id)
            return instance.network, orchestrator, record, report, baseline
    raise RuntimeError("self-test fabric admitted no task")


def _detour(network, schedule):
    """The schedule with one broadcast route replaced by a longer path."""
    graph = nx.Graph()
    for link in network.links():
        graph.add_edge(link.u, link.v, latency=link.latency_ms)
    for local, path in schedule.broadcast_routes.items():
        for a, b in zip(path, path[1:]):
            trial = graph.copy()
            trial.remove_edge(a, b)
            try:
                longer = nx.dijkstra_path(trial, path[0], path[-1], weight="latency")
            except nx.NetworkXNoPath:
                continue
            routes = dict(schedule.broadcast_routes, **{local: tuple(longer)})
            return dataclasses.replace(schedule, broadcast_routes=routes)
    raise RuntimeError("self-test schedule has no detour")


def _cases(workdir: str) -> Dict[str, Tuple[Callable[[], List[str]], Callable[[], List[str]]]]:
    network, orchestrator, record, report, baseline = _hub_case()
    schedule = record.schedule
    duration = report.round_latency.total_ms
    distances = oracle.LiveDistances(network)
    local = schedule.task.local_nodes[0]
    hop = schedule.upload_routes[local][:2]
    held = next(
        link for link in network.links() if link.holds(schedule.owner)
    )

    def dead_hop() -> List[str]:
        network.fail_link(*hop)
        try:
            return oracle.check_route_shape(schedule, network)
        finally:
            network.restore_link(*hop)

    def over_capacity() -> List[str]:
        nominal = held.capacity_gbps
        used = max(
            held.used_gbps(held.u, held.v), held.used_gbps(held.v, held.u)
        )
        held.capacity_gbps = used / 2.0
        try:
            return oracle.check_capacity(network)
        finally:
            held.capacity_gbps = nominal

    def leaked() -> List[str]:
        orchestrator.complete(schedule.owner)
        clean = oracle.check_released(baseline, network)
        if clean:
            return []  # the clean case already failed; report no firing
        network.reserve_edge(held.u, held.v, 0.5, "leaked-owner")
        return oracle.check_released(baseline, network)

    campaign, tasks = _campaign_case()
    finished = next(
        task_id for task_id, o in campaign.outcomes.items() if o.completed_ms is not None
    )
    shifted = dict(campaign.outcomes)
    shifted[finished] = dataclasses.replace(
        shifted[finished], completed_ms=shifted[finished].completed_ms + 1.0
    )

    path, rows, order, grid = _sweep_case(workdir)

    def dropped_row() -> List[str]:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
        return oracle.check_sweep_file(path, rows, order, list(grid), 1)

    return {
        "(a) shortest routes": (
            lambda: oracle.check_shortest_routes(schedule, distances),
            lambda: oracle.check_shortest_routes(_detour(network, schedule), distances),
        ),
        "(b) route shape": (
            lambda: oracle.check_route_shape(schedule, network),
            dead_hop,
        ),
        "(c) capacity": (lambda: oracle.check_capacity(network), over_capacity),
        "(f) round bound": (
            lambda: oracle.check_round_bound(duration, schedule, network),
            lambda: oracle.check_round_bound(0.0, schedule, network),
        ),
        # (d) runs after the others: it completes the held task.
        "(d) released": (lambda: [], leaked),
        "(e) campaign accounting": (
            lambda: oracle.check_campaign(campaign, tasks),
            lambda: oracle.check_campaign(
                dataclasses.replace(campaign, outcomes=shifted), tasks
            ),
        ),
        "(g) sweep sink": (
            lambda: oracle.check_sweep_file(path, rows, order, list(grid), 1),
            dropped_row,
        ),
    }


def _campaign_case():
    from repro.core.fixed import FixedScheduler
    from repro.orchestrator.campaign import campaign_runner_for
    from repro.scenarios import get_scenario

    instance = get_scenario("multi-metro-wan-flaky").instantiate(
        {"n_tasks": 4}, seed=2
    )
    result = campaign_runner_for(instance, FixedScheduler()).run()
    return result, instance.workload


def _sweep_case(workdir: str):
    from repro.scenarios import SerialBackend, SweepConfig, run_sweep

    grid = {"demand_gbps": [5.0, 10.0]}
    seeds = (0, 1)
    path = os.path.join(workdir, "selftest.jsonl")
    config = SweepConfig(scenarios=("toy-triangle",), grid=grid, seeds=seeds)
    result = run_sweep(config, backend=SerialBackend(), jsonl_path=path)
    order = oracle.expected_row_keys(
        ("toy-triangle",), grid, seeds, ("fixed-spff", "flexible-mst")
    )
    return path, result.rows, order, grid


def run_all(workdir: str) -> Dict[str, bool]:
    """Each check's name -> whether it passed clean input and fired on its corruption."""
    return {
        name: not clean() and bool(corrupted())
        for name, (clean, corrupted) in _cases(workdir).items()
    }


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    out = os.path.join(here, "out")
    os.makedirs(out, exist_ok=True)
    verdicts = run_all(out)
    for name, ok in verdicts.items():
        print(f"{name:<26} {'fires on its corruption' if ok else 'FAILED'}")
    sys.exit(0 if all(verdicts.values()) else 1)
