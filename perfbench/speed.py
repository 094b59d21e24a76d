"""Rescale measured CPU time to a fixed host speed.

The measuring box shares its host, and its speed steps up and down by up
to about twofold for seconds to minutes at a time, in CPU time as much as
in wall-clock time. A run's median over its iterations cannot average such
steps out, so two runs of the same code can differ by half.

:class:`SpeedSampler` therefore measures the host's speed while the
workload runs. Every ``PROBE_INTERVAL_S`` of wall-clock time, a timer
signal runs a small fixed probe in the workload's own thread: once
untimed, to warm the caches the workload has evicted, then once timed.
:meth:`SpeedSampler.rescale` takes a phase's CPU seconds, removes the
probes' own share, and multiplies by ``NOMINAL_PROBE_S`` over the median
timed probe in that phase. The result is the phase's CPU seconds at the
speed the probe has when it takes ``NOMINAL_PROBE_S``, about the fast
state of a 2-vCPU Xeon box with Python 3.11.

The rescaling is as good as the match between the probe's slowdown and
the workload's, and that match differs by workload. On the 2-vCPU box,
while the probe's time ranged over 1.7 times, ``sonata_store``'s raw CPU
time followed it with an elasticity of about 1.1 and ``mobject_ior``'s
with about 0.7. Rescaling cut the spread of single iterations from about
35% to about 8-10%; the rest of the host's steps still shows.

The probe (:class:`Probe`) exercises the interpreter the way the
simulator's hot path does: function calls, attribute updates, dictionary
lookups and binary-heap reorders. It allocates nothing, so the state of
the workload's heap does not move it, and it depends on nothing in
``src/repro``, so a change to the program cannot move it either.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from contextlib import contextmanager

__all__ = ["NOMINAL_PROBE_S", "PROBE_INTERVAL_S", "Probe", "SpeedSampler"]

#: Wall-clock seconds between probes.
PROBE_INTERVAL_S = 0.05
#: Event-loop rounds of one probe's untimed warm-up and of its timed part
#: (together about 1.2 ms, 2.5% of an interval).
WARMUP_ROUNDS = 300
PROBE_ROUNDS = 1200
#: The probe's CPU seconds at the speed every reported time is rescaled to.
NOMINAL_PROBE_S = 0.00055
#: A phase with fewer probes inside it borrows the nearest ones.
MIN_PROBES = 5


class _Node:
    __slots__ = ("a", "b", "next")


def _step(node: _Node, table: dict, key: int) -> _Node:
    node.a = (node.a + table[key]) & 0x7F
    node.b = node.a ^ key
    return node.next


class Probe:
    """A fixed loop of function calls, attribute updates, dictionary
    lookups and heap reorders over objects made once, in advance.

    It allocates nothing while it runs (every integer stays in CPython's
    small-integer cache), so the workload's heap cannot change its speed;
    only the host can.
    """

    def __init__(self, size: int = 512):
        self.nodes = [_Node() for _ in range(size)]
        for i, node in enumerate(self.nodes):
            node.a = i & 0x7F
            node.b = 0
            node.next = self.nodes[(i * 97 + 1) % size]
        self.table = {k: (k * 31) & 0x7F for k in range(128)}
        self.entries = [((k * 37) & 0x7F, k) for k in range(128)]
        self.heap = sorted(self.entries)
        self.keys = [(i * 53) & 0x7F for i in range(PROBE_ROUNDS)]

    def __call__(self, rounds: int = PROBE_ROUNDS) -> int:
        node = self.nodes[0]
        table = self.table
        heap = self.heap
        entries = self.entries
        replace = heapq.heapreplace
        keys = self.keys if rounds >= len(self.keys) else self.keys[:rounds]
        for key in keys:
            node = _step(node, table, key)
            replace(heap, entries[node.b])
        return node.a


class SpeedSampler:
    """Probe the host's speed on a timer while a workload runs."""

    def __init__(self):
        #: (``perf_counter`` when the timed part started, its CPU seconds,
        #: the CPU seconds of the whole probe with its warm-up)
        self.samples: list[tuple[float, float, float]] = []
        self._probe = Probe()
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a slow probe overran the interval
            return
        self._busy = True
        # The probe allocates; a garbage collection it triggered would
        # scan the workload's heap and be charged to the probe.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = time.process_time()
            self._probe(WARMUP_ROUNDS)
            t = time.perf_counter()
            c1 = time.process_time()
            self._probe()
            c2 = time.process_time()
            self.samples.append((t, c2 - c1, c2 - c0))
        finally:
            if gc_was_enabled:
                gc.enable()
            self._busy = False

    @contextmanager
    def running(self):
        """Probe once on entry, on the timer inside, and once on exit."""
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick(None, None)

    def rescale(self, cpu_s: float, start: float, end: float) -> tuple[float, float]:
        """``(rescaled seconds, probe CPU seconds)`` of a phase.

        ``cpu_s`` is the phase's CPU seconds, probes included; ``start``
        and ``end`` are its ``perf_counter`` marks.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        used = inside
        if len(used) < MIN_PROBES:
            def distance(sample):
                t = sample[0]
                return max(start - t, t - end, 0.0)

            used = sorted(self.samples, key=distance)[:MIN_PROBES]
        overhead = sum(s[2] for s in inside)
        speed = statistics.median(s[1] for s in used)
        return (cpu_s - overhead) * NOMINAL_PROBE_S / speed, overhead
