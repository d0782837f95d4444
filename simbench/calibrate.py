"""Host-speed calibration: a fixed reference kernel timed between runs.

The host this benchmark runs on is shared, and its speed changes in
phases of seconds to minutes: the same pass of identical work took
10–40% more CPU time from one phase to the next, in one process and
between processes.  The end-to-end timings are therefore scaled to a
host of fixed speed.  Between the runs of every timed pass a fixed
reference kernel, which shares no code with the simulator, is timed;
each pass's program times are multiplied by ``NOMINAL_S`` over that
pass's mean kernel time.  The mean, not the median: the host's speed
swings by up to 2x from one second to the next, the program's time
over a pass sums those swings, and the median of the samples would
pick one side of them.  The kernel does the same kind of work as the
simulator's routing layer: a bounded Dijkstra with ``heapq`` over a
50 000-node object graph of some 42 MB, so it misses the caches the way
the simulator does (a graph that fits the caches tracked the program's
pass times with a log-log slope of only 0.67, a 200 000-node one with
0.93).

A change to the program moves the program's times and not the kernel's,
so it moves the scaled metrics by the same share.  The kernel's graph is
built from a constant seed, never from ``--seed``, and is held in tuples
of atoms, which the garbage collector stops tracking after full
collections: it adds nothing to the program's collections.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
from typing import List

from workloads import clock

NODES = 50_000
#: Directed edges out of each node, to heads drawn uniformly.
DEGREE = 6
#: Nodes one kernel sample settles before it stops.
SETTLED = 3_000
#: CPU seconds one sample takes on a host of the reference speed; the
#: scaled timings read as if every sample had taken exactly this long.
NOMINAL_S = 0.025
#: Share of a pass's CPU time spent timing the kernel.
SHARE = 0.10


def _rss_mb() -> float:
    """Resident set size of this process now, in MB (0 where unknown)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _graph() -> tuple:
    """Adjacency tuples built in place, so no freed memory stays resident."""
    rng = random.Random("simbench-calibration")
    return tuple(
        tuple((rng.randrange(NODES), rng.random()) for _ in range(DEGREE))
        for _ in range(NODES)
    )


def _kernel(graph: tuple, source: int) -> int:
    """Dijkstra from ``source`` until ``SETTLED`` nodes are settled."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    settled = set()
    while heap and len(settled) < SETTLED:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for other, weight in graph[node]:
            candidate = d + weight
            if candidate < dist.get(other, math.inf):
                dist[other] = candidate
                heapq.heappush(heap, (candidate, other))
    return len(settled)


class Calibrator:
    """Times the reference kernel between runs, one list of samples per pass."""

    def __init__(self) -> None:
        before = _rss_mb()
        self.graph = _graph()
        for _ in range(3):  # one full collection untracks one level of tuples
            gc.collect()
        #: Resident memory the kernel's graph holds, left out of ``peak_rss_mb``.
        self.rss_mb = max(_rss_mb() - before, 0.0)
        self.passes: List[List[float]] = []
        self._source = 0
        self._program_s = 0.0
        self._kernel_s = 0.0
        self._since = 0.0

    def restart(self) -> None:
        """Start the sources over, so every set of samples does the same work."""
        self._source = 0

    def sample(self) -> float:
        """Time one kernel run from the next source; return its CPU seconds."""
        self._source = (self._source * 7919 + 1) % NODES
        # The kernel frees every object it makes before it returns, so with
        # the collector off it leaves the program's collection schedule as
        # it found it: a run collects at the same points in every pass.
        gc.disable()
        try:
            start = clock()
            _kernel(self.graph, self._source)
            return clock() - start
        finally:
            gc.enable()

    def new_pass(self) -> None:
        self.restart()
        self.passes.append([])
        self._program_s = self._kernel_s = 0.0
        self._since = clock()

    def between_runs(self) -> None:
        """Sample until the kernel has had ``SHARE`` of the pass's CPU time."""
        now = clock()
        self._program_s += now - self._since
        while not self.passes[-1] or self._kernel_s < SHARE * (
            self._program_s + self._kernel_s
        ):
            spent = self.sample()
            self.passes[-1].append(spent)
            self._kernel_s += spent
        self._since = clock()


def scale(samples: List[float]) -> float:
    """Factor that scales CPU times taken among ``samples`` to the reference speed."""
    return NOMINAL_S / statistics.fmean(samples)
