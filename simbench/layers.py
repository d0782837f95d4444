"""Per-layer accounting for the traced run.

The tracer wraps the public entry points of each simulator layer for the
duration of one traced pass and restores them afterwards.  Every wrapped
call is a span; a span's *self time* is its duration minus the time of
the wrapped calls nested inside it, so the layers' self times plus the
time no span covers (``unattributed_ms``) add up to the traced CPU time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.evaluation import ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.network.csr.snapshot import CsrSnapshot
from repro.network.routing import PathCache
from repro.orchestrator.campaign import CampaignRunner
from repro.orchestrator.database import TaskStatus
from repro.orchestrator.orchestrator import Orchestrator
from repro.scenarios.spec import FamilyTopology, ScenarioSpec
from repro.scenarios.sweep.sinks import JsonlSink
from repro.sim.engine import Simulator
from repro.traffic.generator import TrafficGenerator

from workloads import clock

#: Fault handlers of the orchestrator, timed as one layer.
FAULT_HANDLERS = (
    "handle_link_failure",
    "handle_link_restore",
    "handle_node_failure",
    "handle_node_restore",
    "handle_link_drain",
    "handle_link_capacity",
)

#: (owner, attribute, layer) for every wrapped entry point.
TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (ScenarioSpec, "instantiate", "scenarios.instantiate"),
    (FamilyTopology, "__call__", "network.topology_build"),
    (TrafficGenerator, "inject_static", "traffic.inject"),
    (CsrSnapshot, "__init__", "network.csr_rebuild"),
    (PathCache, "__init__", "network.pathcache_init"),
    (Orchestrator, "__init__", "orchestrator.init"),
    (Orchestrator, "admit", "orchestrator.admit_self"),
    (Orchestrator, "evaluate", "orchestrator.evaluate_self"),
    (Orchestrator, "complete", "orchestrator.complete"),
    (FixedScheduler, "schedule", "core.schedule"),
    (FlexibleScheduler, "schedule", "core.schedule"),
    (ScheduleEvaluator, "report", "core.evaluate"),
    (CampaignRunner, "run", "orchestrator.campaign_self"),
    (Simulator, "run", "sim.dispatch_self"),
    (JsonlSink, "open", "sweep.sink"),
    (JsonlSink, "write_run", "sweep.sink"),
    (JsonlSink, "close", "sweep.sink"),
) + tuple((Orchestrator, name, "orchestrator.fault") for name in FAULT_HANDLERS)

#: Every layer of the table; ``sweep.engine_self`` is the span the
#: benchmark opens around ``run_sweep`` itself.
LAYERS = tuple(sorted({layer for _, _, layer in TARGETS} | {"sweep.engine_self"}))


class LayerTracer:
    """Self time and calls per layer, plus the counters read at span exits."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: (scheduler name, ``PathCache.stats``) per cache created.
        self.cache_stats: List[Tuple[str, Any]] = []
        self._stack: List[float] = []
        self._fault_depth = 0
        self._scheduler = ""

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one span of ``layer``."""
        stack = self._stack
        stack.append(0.0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            nested = stack.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if stack:
                stack[-1] += elapsed

    def _wrap(self, fn: Callable[..., Any], layer: str, attr: str) -> Callable[..., Any]:
        tracer = self
        call = self.call
        if attr == "admit":
            @functools.wraps(fn)
            def admit(orchestrator, task):
                record = call(layer, fn, orchestrator, task)
                if record.status is not TaskStatus.RUNNING:
                    tracer.count("orchestrator.turned_away")
                return record

            return admit
        if layer == "orchestrator.fault":
            @functools.wraps(fn)
            def fault(*args, **kwargs):
                tracer._fault_depth += 1
                try:
                    return call(layer, fn, *args, **kwargs)
                finally:
                    tracer._fault_depth -= 1

            return fault
        if layer == "core.schedule":
            @functools.wraps(fn)
            def schedule(scheduler, *args, **kwargs):
                if tracer._fault_depth:
                    tracer.count("orchestrator.reschedules")
                tracer._scheduler = scheduler.name
                return call(layer, fn, scheduler, *args, **kwargs)

            return schedule
        if layer == "sim.dispatch_self":
            @functools.wraps(fn)
            def run(sim, *args, **kwargs):
                try:
                    return call(layer, fn, sim, *args, **kwargs)
                finally:
                    tracer.count("sim.events", sim.executed_events)

            return run
        if layer == "network.pathcache_init":
            @functools.wraps(fn)
            def init(cache, *args, **kwargs):
                call(layer, fn, cache, *args, **kwargs)
                tracer.cache_stats.append((tracer._scheduler, cache.stats))

            return init

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for owner, attr, layer in TARGETS:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, attr))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def cache_totals(self, scheduler: str = "") -> Dict[str, int]:
        """Path-cache counters summed over caches (of one scheduler's runs)."""
        totals = {"hits": 0, "misses": 0, "repairs": 0}
        for owner, stats in self.cache_stats:
            if scheduler in ("", owner):
                totals["hits"] += stats.hits
                totals["misses"] += stats.misses
                totals["repairs"] += stats.repairs
        return totals


def layer_table(
    tracers: List[LayerTracer],
    traced_s: List[float],
    untraced_s: List[float],
    fault_events: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-pass means of every per-layer metric, and calls per layer.

    ``<layer>_ms`` is the layer's self time; with ``unattributed_ms`` they
    sum to ``trace.traced_cpu_ms``.
    """
    n = len(tracers)

    def per_pass(values) -> float:
        return sum(values) / n

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = per_pass(
            t.self_s.get(layer, 0.0) * 1000.0 for t in tracers
        )
    calls = {
        layer: per_pass(t.calls.get(layer, 0) for t in tracers) for layer in LAYERS
    }
    metrics["core.schedule_calls"] = calls["core.schedule"]
    metrics["core.evaluate_calls"] = calls["core.evaluate"]
    metrics["network.csr_rebuilds"] = calls["network.csr_rebuild"]
    totals = [t.cache_totals() for t in tracers]
    for name in ("hits", "misses", "repairs"):
        metrics[f"network.pathcache_{name}"] = per_pass(c[name] for c in totals)
    for suffix, scheduler in (("", ""), ("_fixed", "fixed-spff"), ("_flexible", "flexible-mst")):
        hits = sum(t.cache_totals(scheduler)["hits"] for t in tracers)
        misses = sum(t.cache_totals(scheduler)["misses"] for t in tracers)
        metrics[f"network.pathcache_hit_ratio{suffix}"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    for name in ("orchestrator.reschedules", "orchestrator.turned_away", "sim.events"):
        metrics[name] = per_pass(t.counts.get(name, 0) for t in tracers)
    metrics["resilience.fault_events"] = fault_events
    traced_ms = sum(traced_s) / len(traced_s) * 1000.0
    untraced_ms = sum(untraced_s) / len(untraced_s) * 1000.0
    metrics["unattributed_ms"] = traced_ms - sum(
        metrics[f"{layer}_ms"] for layer in LAYERS
    )
    metrics["trace.traced_cpu_ms"] = traced_ms
    metrics["trace.untraced_cpu_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    return metrics, calls
