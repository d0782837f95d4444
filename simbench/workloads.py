"""The benchmark's three workloads.

Each workload draws a fixed list of runs from the seed.  A *run* is one
scenario instance served under one scheduler; one *pass* executes every
run of the list once.  ``timed_pass`` calls the program's public entry
points only and returns per-run CPU times and modelled outputs;
``audited_pass`` replays the same runs with the oracle checks after every
schedule call, so its outputs must equal the timed ones exactly.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from time import process_time as clock
from typing import Any, List, Sequence, Tuple

from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.orchestrator.campaign import (
    CampaignRunner,
    campaign_runner_for,
    orchestrator_for,
)
from repro.orchestrator.database import TaskStatus
from repro.resilience.injector import FaultInjector
from repro.scenarios import ResultSink, SerialBackend, SweepConfig
from repro.scenarios import get_scenario, run_sweep

import oracle

# Every time the benchmark measures is CPU time of this process, read by
# ``clock``.  The benchmark is serial, so on an idle host it equals the
# wall time; on a shared host it leaves out the time the host gives the
# CPU to others (steal, timesharing).  ``calibrate.py`` then scales the
# end-to-end times for the host's changing speed.

SCHEDULERS = {"fixed-spff": FixedScheduler, "flexible-mst": FlexibleScheduler}


@dataclass(frozen=True)
class Run:
    """One operation: a scenario instance served under one scheduler."""

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    scheduler: str

    def instantiate(self):
        return get_scenario(self.scenario).instantiate(
            dict(self.params), seed=self.seed
        )

    def label(self) -> str:
        return f"{self.scenario}/{self.seed}/{self.scheduler}"


@dataclass
class RunResult:
    """What one timed or audited run produced.

    ``outputs`` holds the modelled outputs that every pass must reproduce
    exactly; ``round_sum``/``round_count`` the simulated rounds behind
    ``sim_round_ms``.
    """

    run: Run
    cpu_s: float = 0.0
    tasks: int = 0
    round_sum: float = 0.0
    round_count: int = 0
    fault_events: int = 0
    outputs: Any = None
    problems: List[str] = field(default_factory=list)


@dataclass
class PassResult:
    runs: List[RunResult]
    cpu_s: float


def _draw(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _fail(run: Run, exc: BaseException) -> RunResult:
    return RunResult(run=run, problems=[f"raised {type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# Serving one task at a time: hub-admission and the sweep's audited replay
# ---------------------------------------------------------------------------

def serve_tasks(run: Run, audit: bool = False) -> RunResult:
    """Admit, evaluate and complete the run's tasks one at a time."""
    start = clock()
    instance = run.instantiate()
    network = instance.network
    scheduler_cls = SCHEDULERS[run.scheduler]
    auditor = oracle.Auditor(network) if audit else None
    if auditor is not None:
        scheduler_cls = auditor.checked(scheduler_cls)
    orchestrator = orchestrator_for(instance, scheduler_cls())
    baseline = oracle.holdings(network) if auditor is not None else None
    outputs = []
    rounds: List[float] = []
    for task in instance.workload:
        record = orchestrator.admit(task)
        if record.status is not TaskStatus.RUNNING:
            outputs.append((task.task_id, None, None))
            continue
        report = orchestrator.evaluate(task.task_id)
        duration = report.round_latency.total_ms
        if auditor is not None:
            auditor.problems += oracle.check_round_bound(
                duration, record.schedule, network
            )
        rounds.append(duration)
        outputs.append((task.task_id, duration, report.consumed_bandwidth_gbps))
        orchestrator.complete(task.task_id)
    spent = clock() - start
    result = RunResult(
        run=run,
        cpu_s=spent,
        tasks=len(outputs),
        round_sum=sum(rounds),
        round_count=len(rounds),
        outputs=tuple(outputs),
    )
    if auditor is not None:
        auditor.problems += oracle.check_released(baseline, network)
        result.problems = auditor.problems
    return result


def warm_up(runs: Sequence[Run], serve) -> None:
    """Serve one run per scheduler untimed, so lazy imports are done."""
    for scheduler in SCHEDULERS:
        serve(next(run for run in runs if run.scheduler == scheduler))


class _PerRun:
    """A workload whose runs are served one by one by ``serve``."""

    def warm_up(self) -> None:
        warm_up(self.runs, type(self).serve)

    def timed_pass(self, tracer=None, between_runs=None) -> PassResult:
        start = clock()
        results = []
        for run in self.runs:
            results.append(self._attempt(run, False))
            if between_runs is not None:
                between_runs()
        return PassResult(results, clock() - start)

    def audited_pass(self) -> List[RunResult]:
        return [self._attempt(run, True) for run in self.runs]

    def _attempt(self, run: Run, audit: bool) -> RunResult:
        try:
            return type(self).serve(run, audit)
        except Exception as exc:  # a raising run is a failed operation
            return _fail(run, exc)

    @staticmethod
    def same_outputs(timed: Any, audited: Any) -> bool:
        return timed == audited


class HubAdmission(_PerRun):
    """Many tasks per instance on a ~200-router scale-free hub fabric."""

    name = "hub-admission"
    serve = staticmethod(serve_tasks)
    INSTANCES = 4
    PARAMS = {"n_routers": 200, "n_tasks": 125}

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.runs: List[Run] = []
        for index in range(self.INSTANCES):
            params = dict(self.PARAMS, topology_seed=index + 1)
            instance_seed = _draw(rng)
            for scheduler in SCHEDULERS:
                self.runs.append(
                    Run(
                        "scale-free-hubs",
                        tuple(sorted(params.items())),
                        instance_seed,
                        scheduler,
                    )
                )


# ---------------------------------------------------------------------------
# Fault campaigns
# ---------------------------------------------------------------------------

def _campaign_outputs(result) -> Tuple[Any, ...]:
    outcomes = tuple(
        (
            task_id,
            o.admitted_ms,
            o.completed_ms,
            o.rounds_run,
            tuple(o.round_durations_ms),
            o.reschedules,
        )
        for task_id, o in result.outcomes.items()
    )
    availability = tuple(sorted((result.availability or {}).items()))
    return (
        outcomes,
        result.makespan_ms,
        result.blocked,
        availability,
        result.deadline_tasks,
        result.deadline_misses,
    )


def play_campaign(run: Run, audit: bool = False) -> RunResult:
    """Play the run's arrival and fault timeline on the event engine."""
    start = clock()
    instance = run.instantiate()
    scheduler_cls = SCHEDULERS[run.scheduler]
    if not audit:
        outcome = campaign_runner_for(instance, scheduler_cls()).run()
        spent = clock() - start
        problems: List[str] = []
    else:
        network = instance.network
        auditor = oracle.Auditor(network)
        orchestrator = orchestrator_for(instance, auditor.checked(scheduler_cls)())
        baseline = oracle.holdings(network)
        evaluate = orchestrator.evaluate

        def audited_evaluate(task_id: str):
            report = evaluate(task_id)
            schedule = orchestrator.database.record(task_id).schedule
            auditor.problems += oracle.check_round_bound(
                report.round_latency.total_ms, schedule, network
            )
            return report

        orchestrator.evaluate = audited_evaluate
        injector = (
            FaultInjector(instance.fault_timeline)
            if instance.fault_timeline is not None
            else None
        )
        outcome = CampaignRunner(
            orchestrator, instance.workload, injector=injector
        ).run()
        spent = clock() - start
        problems = auditor.problems
        problems += oracle.check_campaign(outcome, instance.workload)
        problems += oracle.check_released(baseline, network)
    durations = [
        d for o in outcome.outcomes.values() for d in o.round_durations_ms
    ]
    return RunResult(
        run=run,
        cpu_s=spent,
        tasks=len(outcome.outcomes),
        round_sum=sum(durations),
        round_count=len(durations),
        fault_events=int((outcome.availability or {}).get("fault_events", 0)),
        outputs=_campaign_outputs(outcome),
        problems=problems,
    )


class WanFaultCampaign(_PerRun):
    """Flaky multi-metro WAN campaigns over many seeds."""

    name = "wan-fault-campaign"
    serve = staticmethod(play_campaign)
    INSTANCES = 56
    FABRICS = 4

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.runs = []
        for index in range(self.INSTANCES):
            params = {"topology_seed": index % self.FABRICS + 1}
            instance_seed = _draw(rng)
            for scheduler in SCHEDULERS:
                self.runs.append(
                    Run(
                        "multi-metro-wan-flaky",
                        tuple(sorted(params.items())),
                        instance_seed,
                        scheduler,
                    )
                )


# ---------------------------------------------------------------------------
# Large-fabric sweep
# ---------------------------------------------------------------------------

class _StampSink(ResultSink):
    """Notes when each run key's rows reach the sinks.

    Each stamp is (rows reached the sinks, rows, sweep resumed): the gap
    between the two times is spent in ``between_runs``, outside the runs.
    """

    name = "stamps"

    def __init__(self, between_runs=None) -> None:
        self.stamps: List[Tuple[float, int, float]] = []
        self.between_runs = between_runs

    def write_run(self, key, rows) -> None:
        stamp = clock()
        if self.between_runs is not None:
            self.between_runs()
        self.stamps.append((stamp, len(rows), clock()))


class FabricSweep:
    """A serial sweep with a JSONL sink over ~1000-router fabrics."""

    name = "fabric-sweep"
    SCENARIOS = ("scale-free-hubs", "scale-free-pareto")
    N_TASKS = 10
    #: Replication seeds, pinned: they draw the task mix, whose model
    #: choice alone sets the simulated round time; ``--seed`` draws the
    #: fabric instead.
    REPLICATIONS = (1, 2, 3)

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.grid = {
            "n_routers": [1000],
            "n_tasks": [self.N_TASKS],
            "topology_seed": [_draw(rng)],
        }
        self.config = SweepConfig(
            scenarios=self.SCENARIOS, grid=self.grid, seeds=self.REPLICATIONS
        )
        self.order = oracle.expected_row_keys(
            self.SCENARIOS, self.grid, self.config.seeds, tuple(SCHEDULERS)
        )
        names = sorted(self.grid)
        self.runs = [
            Run(
                scenario,
                tuple(zip(names, combo)),
                seed,
                scheduler,
            )
            for scenario, combo, seed, scheduler in self.order
        ]
        self.path = os.path.join(workdir, f"{self.name}.jsonl")

    def warm_up(self) -> None:
        warm_up(self.runs, serve_tasks)

    def timed_pass(self, tracer=None, between_runs=None) -> PassResult:
        stamps = _StampSink(between_runs)
        start = clock()
        call = run_sweep
        if tracer is not None:
            call = functools.partial(tracer.call, "sweep.engine_self", run_sweep)
        try:
            result = call(
                self.config,
                backend=SerialBackend(),
                jsonl_path=self.path,
                sink=stamps,
                name=self.name,
            )
        except Exception as exc:
            spent = clock() - start
            return PassResult([_fail(run, exc) for run in self.runs], spent)
        spent = clock() - start
        rows = result.rows
        problems = oracle.check_sweep_file(
            self.path, rows, self.order, list(self.grid), self.N_TASKS
        )
        times: List[float] = []
        previous = start
        for stamp, count, resumed in stamps.stamps:
            times += [(stamp - previous) / count] * count
            previous = resumed
        results = []
        for index, run in enumerate(self.runs):
            row = rows[index] if index < len(rows) else {}
            served = row.get("served", 0)
            results.append(
                RunResult(
                    run=run,
                    cpu_s=times[index] if index < len(times) else 0.0,
                    tasks=self.N_TASKS,
                    round_sum=row.get("round_ms", 0.0) * served,
                    round_count=served,
                    outputs=tuple(sorted(row.items())),
                    problems=list(problems),
                )
            )
        return PassResult(results, spent)

    def audited_pass(self) -> List[RunResult]:
        """Replay every sweep run one task at a time under the checks.

        The replay's rows are rebuilt the way a sweep row reports a run
        (served, blocked, mean round and bandwidth) and compared with the
        sweep's rows by the caller.
        """
        results = []
        for run in self.runs:
            try:
                served = serve_tasks(run, audit=True)
            except Exception as exc:
                results.append(_fail(run, exc))
                continue
            granted = [o for o in served.outputs if o[1] is not None]
            row = {
                "scheduler": run.scheduler,
                "served": len(granted),
                "blocked": len(served.outputs) - len(granted),
                "round_ms": _mean([o[1] for o in granted]),
                "bandwidth_gbps": _mean([o[2] for o in granted]),
            }
            served.outputs = row
            results.append(served)
        return results

    @staticmethod
    def same_outputs(timed: Any, audited: Any) -> bool:
        row = dict(timed)
        return all(row.get(name) == value for name, value in audited.items())


WORKLOADS = {cls.name: cls for cls in (HubAdmission, WanFaultCampaign, FabricSweep)}
