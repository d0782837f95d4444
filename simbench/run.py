"""Run one workload of the simulator benchmark and print its metrics.

    python3 simbench/run.py --workload hub-admission --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the workload's passes run untraced for ``--seconds``
and the end-to-end metrics are printed, in CPU time scaled to a
reference host speed (``calibrate.py``); with ``--trace 1`` untraced and
traced passes alternate and the per-layer table is printed instead.
Either way every run is then replayed under the oracle checks
(``oracle.py``), the checks' self-test runs, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run it from the repository root; the
simulator is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "out")

#: Fresh interpreters timed for ``setup_s`` (after one warm-up import).
SETUP_REPEATS = 5
SETUP_CODE = (
    "import time; t = time.process_time(); import repro.scenarios; "
    "print(time.process_time() - t)"
)

UNITS = {
    "tasks_per_s": "1/s",
    "run_ms_p50": "ms",
    "admit_ms_p50": "ms",
    "admit_ms_p90": "ms",
    "sim_round_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the simulator."""
    sys.path.insert(0, SRC)
    try:
        import repro.scenarios  # noqa: F401
    except ImportError as exc:
        sys.exit(f"simbench: cannot import the simulator from {SRC}: {exc}")
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"simbench: repro was imported from outside {SRC}")


class AdmitProbe:
    """Times ``Orchestrator.admit`` (CPU time) while installed, one list per pass.

    A pass repeats the same admissions in the same order, so position
    ``i`` of every list is the same operation.  Each entry notes whether
    the admission was granted and whether it was its orchestrator's
    first, which builds the run's routing snapshot and path cache.
    """

    def __init__(self) -> None:
        self.passes: List[List[Tuple[float, bool, bool]]] = []
        self._seen: "weakref.WeakSet" = weakref.WeakSet()

    def new_pass(self) -> None:
        self.passes.append([])

    @contextmanager
    def installed(self) -> Iterator["AdmitProbe"]:
        from repro.orchestrator.database import TaskStatus
        from repro.orchestrator.orchestrator import Orchestrator
        from workloads import clock

        original = Orchestrator.__dict__["admit"]
        probe = self

        def admit(orchestrator, task):
            first = orchestrator not in probe._seen
            probe._seen.add(orchestrator)
            start = clock()
            record = original(orchestrator, task)
            elapsed = clock() - start
            probe.passes[-1].append(
                (elapsed, record.status is TaskStatus.RUNNING, first)
            )
            return record

        Orchestrator.admit = admit
        try:
            yield self
        finally:
            Orchestrator.admit = original

    def granted_s(self, scales: List[float]) -> Tuple[List[float], int, int]:
        """Median scaled times over the passes; turned away; first admissions.

        The times are those of every granted admission that was not its
        run's first.  Pass ``p``'s times are multiplied by ``scales[p]``.
        Passes of a deterministic program admit the same tasks; should one
        differ (a failed run), only the admissions every pass made count.
        """
        made = self.passes[0][: min(len(done) for done in self.passes)]
        granted = [
            statistics.median(
                done[i][0] * factor for done, factor in zip(self.passes, scales)
            )
            for i, (_, ok, first) in enumerate(made)
            if ok and not first
        ]
        turned_away = sum(1 for _, ok, _ in made if not ok)
        firsts = sum(1 for _, ok, first in made if ok and first)
        return granted, turned_away, firsts


def measure_setup(calibrator) -> float:
    """Median scaled CPU seconds fresh interpreters take to import the catalogue.

    The kernel is timed before each interpreter starts, and the median
    import time is scaled by those samples.
    """
    from calibrate import scale

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    times, samples = [], []
    calibrator.restart()
    for attempt in range(SETUP_REPEATS + 1):
        samples.append(calibrator.sample())
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if attempt:  # the first import may compile byte code
            times.append(float(done.stdout.strip()))
    return statistics.median(times) * scale(samples)


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``; 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when every run failed before timing."""
    return numerator / denominator if denominator else 0.0


def _verify(workload, passes, audited) -> Tuple[List[bool], List[str]]:
    """Which runs failed: raised, broke a check, or disagreed with a replay."""
    failed = []
    notes: List[str] = []
    for index, replay in enumerate(audited):
        problems = list(replay.problems)
        reference = passes[0].runs[index]
        for done in passes:
            timed = done.runs[index]
            problems += timed.problems
            if timed.outputs != reference.outputs:
                problems.append("outputs differ between timed passes")
        if not problems and not workload.same_outputs(
            reference.outputs, replay.outputs
        ):
            problems.append("timed outputs differ from the audited replay")
        failed.append(bool(problems))
        for problem in sorted(set(problems))[:5]:
            notes.append(f"{replay.run.label()}: {problem}")
    return failed, notes


def _run_passes(workload, seconds: float, traced: bool, before_pass=None,
                between_runs=None):
    """Alternate untraced (and, when tracing, traced) passes for ``seconds``.

    Whole passes only: another one starts while it is expected to end
    within ``seconds``; the first always runs.
    """
    from layers import LayerTracer

    untraced, traced_passes, tracers = [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        if before_pass is not None:
            before_pass()
        untraced.append(workload.timed_pass(between_runs=between_runs))
        if traced:
            tracer = LayerTracer()
            gc.collect()
            with tracer.installed():
                traced_passes.append(workload.timed_pass(tracer))
            tracers.append(tracer)
        elapsed = perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced_passes, tracers


def end_to_end(
    workload, seconds: float, calibrator
) -> Tuple[Dict[str, float], List, Dict[str, Any]]:
    """End-to-end metrics from each operation's median time over the passes.

    Each pass's CPU times are first scaled to the reference host speed by
    the calibration samples taken between its runs (``calibrate.py``).
    Every pass repeats the same runs and admissions in the same order, so
    each run's and each admission's time is then taken as its median
    over the passes, and summarised across operations.  The per-operation
    median filters the host's short slowdowns before the percentiles are
    taken, and unlike the best repeat it does not drift with the number
    of passes a run fits.
    """
    from calibrate import scale

    def before_pass():
        probe.new_pass()
        calibrator.new_pass()

    probe = AdmitProbe()
    with probe.installed():
        passes, _, _ = _run_passes(
            workload, seconds, traced=False, before_pass=before_pass,
            between_runs=calibrator.between_runs,
        )
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        - calibrator.rss_mb
    )
    # A sweep that raises before its first run key reaches the sinks
    # leaves its pass without samples; its runs are failed and timed 0.
    scales = [scale(samples) if samples else 1.0 for samples in calibrator.passes]
    first = passes[0].runs
    run_s = [
        statistics.median(
            done.runs[i].cpu_s * factor for done, factor in zip(passes, scales)
        )
        for i in range(len(first))
    ]
    granted_s, turned_away, firsts = probe.granted_s(scales)
    granted_ms = [s * 1000.0 for s in granted_s]
    metrics = {
        "tasks_per_s": _ratio(sum(r.tasks for r in first), sum(run_s)),
        "run_ms_p50": statistics.median(run_s) * 1000.0,
        "admit_ms_p50": _quantile(granted_ms, 50),
        "admit_ms_p90": _quantile(granted_ms, 90),
        "sim_round_ms": _ratio(
            sum(r.round_sum for r in first), sum(r.round_count for r in first)
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "passes": len(passes),
        "runs per pass": len(first),
        "tasks per pass": sum(r.tasks for r in first),
        "granted admissions per pass": len(granted_ms) + firsts,
        "first of a run (not in admit_ms)": firsts,
        "turned away per pass": turned_away,
        "pass CPU s": " ".join(
            f"{p.cpu_s - sum(samples):.2f}"
            for p, samples in zip(passes, calibrator.passes)
        ),
        "calibration samples per pass": " ".join(
            str(len(samples)) for samples in calibrator.passes
        ),
        "scale per pass": " ".join(f"{factor:.3f}" for factor in scales),
        "unscaled tasks_per_s": _ratio(
            sum(r.tasks for r in first),
            sum(
                statistics.median(done.runs[i].cpu_s for done in passes)
                for i in range(len(first))
            ),
        ),
    }
    return metrics, passes, info


def traced(workload, seconds: float):
    """Per-layer metrics, calls per layer, all passes, mismatching runs."""
    from layers import layer_table

    untraced, traced_passes, tracers = _run_passes(workload, seconds, traced=True)
    mismatched = sorted({
        index
        for u, t in zip(untraced, traced_passes)
        for index, (a, b) in enumerate(zip(u.runs, t.runs))
        if (a.outputs, a.round_sum, a.round_count) != (b.outputs, b.round_sum, b.round_count)
    })
    metrics, calls = layer_table(
        tracers,
        [p.cpu_s for p in traced_passes],
        [p.cpu_s for p in untraced],
        sum(r.fault_events for r in untraced[0].runs),
    )
    return metrics, calls, untraced + traced_passes, mismatched


def _print_layers(name: str, metrics: Dict[str, float], calls: Dict[str, float]) -> None:
    from layers import LAYERS

    total = metrics["trace.traced_cpu_ms"]
    _print_table(
        f"{name}: CPU self time per pass by layer (traced {total:.1f} ms, "
        f"untraced {metrics['trace.untraced_cpu_ms']:.1f} ms, tracing overhead "
        f"{metrics['trace.overhead_ms']:.1f} ms)",
        [(layer, metrics[f"{layer}_ms"], f"ms {calls[layer]:>9.1f} calls")
         for layer in LAYERS]
        + [("unattributed", metrics["unattributed_ms"], "ms")],
    )
    _print_table(
        "counts per pass",
        [(k, v, "") for k, v in metrics.items() if not k.endswith("_ms")],
    )
    accounted = sum(metrics[f"{layer}_ms"] for layer in LAYERS)
    accounted += metrics["unattributed_ms"]
    print(f"layers + unattributed = {accounted:.1f} ms of {total:.1f} ms "
          f"traced CPU time; unattributed share {metrics['unattributed_ms'] / total:.2%}")


def _print_table(title: str, rows: List[Tuple[str, Any, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        if isinstance(value, float):
            value = f"{value:.4f}"
        print(f"  {name:<34} {value:>14} {unit}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    workload.warm_up()
    correct = True

    if args.trace:
        metrics, calls, passes, mismatched = traced(workload, args.seconds)
        if mismatched:
            correct = False
            print(f"traced outputs differ from untraced on runs {mismatched}",
                  file=sys.stderr)
        _print_layers(workload.name, metrics, calls)
        units = {
            name: "ms" if name.endswith("_ms")
            else "ratio" if "_ratio" in name else "count"
            for name in metrics
        }
    else:
        from calibrate import Calibrator

        calibrator = Calibrator()
        metrics, passes, info = end_to_end(workload, args.seconds, calibrator)
        units = dict(UNITS)

    audited = workload.audited_pass()
    failed_runs, notes = _verify(workload, passes, audited)
    for note in notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)
    broken = [name for name, ok in selftest.run_all(WORKDIR).items() if not ok]
    for name in broken:
        print(f"self-test: check {name} flagged clean input or missed its "
              "corrupted one", file=sys.stderr)
    correct = correct and not broken

    if not args.trace:
        metrics["setup_s"] = measure_setup(calibrator)
        rows = [(name, metrics[name], units[name]) for name in UNITS]
        _print_table(f"{workload.name}: end-to-end metrics (seed {args.seed})", rows)
        _print_table("counts", [(k, v, "") for k, v in info.items()])
    attempted = len(failed_runs) * len(passes)
    failed = sum(failed_runs) * len(passes)
    print(f"runs attempted {attempted}, failed {failed}; "
          f"self-test {'passed' if not broken else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
