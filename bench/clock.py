"""Timing scaled to a reference host speed.

On a shared machine the speed of the host drifts by up to 2x, for seconds
to minutes at a time, and wall time drifts with it.  A :class:`Clock`
probes the host's current speed with a fixed pure-Python reference loop:
every ``INTERVAL_S`` seconds during a timed call (from a ``SIGALRM``
handler, between bytecodes) and once after it.  Each stretch of work
between two probes is scaled by ``(REFERENCE_LOOP_S / p) ** ALPHA``, where
``p`` is the mean duration of the probes on either side, giving
"reference seconds": the time the work would take on a host where the loop
runs in ``REFERENCE_LOOP_S``.  Time spent in probes is excluded.

``ALPHA`` is measured, not assumed: on a 2-vCPU shared host, fanocalc's
passes slow down by the 0.8th power of the loop's slowdown (a regression of
log pass time on log probe time over hundreds of passes of each workload),
so full scaling (``ALPHA = 1``) would overcorrect.  The loop never touches
fanocalc, so a change to the program moves scaled time exactly as it moves
wall time.
"""

from __future__ import annotations

import signal
import time

REFERENCE_LOOP_S = 0.0075
REFERENCE_LOOP_N = 30000
ALPHA = 0.8
INTERVAL_S = 0.1


def _reference_step(i: int) -> int:
    return (i * 7) & 1023


def reference_loop_s() -> float:
    """Wall time of the fixed reference loop, a probe of the current host speed.

    The loop allocates no container objects, so it never triggers the
    garbage collector, whose cost depends on the heap of the process.
    """
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_LOOP_N):
        key = (i % 97) * 89 + i % 89
        table[key] = table.get(key, 0) + _reference_step(i)
    return time.perf_counter() - start


def _factor(before: float, after: float) -> float:
    return (REFERENCE_LOOP_S / ((before + after) / 2)) ** ALPHA


class Clock:
    """Scaled timing of in-process calls and of intervals measured elsewhere."""

    def __init__(self):
        self.probe_s = 0.0  # wall time spent in reference loops
        self._last = self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        duration = reference_loop_s()
        self.probe_s += time.perf_counter() - start
        return duration

    def refresh(self) -> None:
        """Probe now, so the next interval is scaled by an adjacent probe."""
        self._last = self._probe()

    def add(self, elapsed: float) -> float:
        """Scale an interval that just ended, timed by the caller."""
        after = self._probe()
        scaled = elapsed * _factor(self._last, after)
        self._last = after
        return scaled

    def sample(self, fn) -> tuple:
        """Call ``fn()`` under periodic probes: (result, raw_s, scaled_s).

        ``raw_s`` is the wall time of the call minus the probes run inside
        it.  Must be called from the main thread.
        """
        marks = []  # (probe start, probe end, loop duration)

        def on_alarm(signum, frame):
            start = time.perf_counter()
            duration = reference_loop_s()
            marks.append((start, time.perf_counter(), duration))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            end = time.perf_counter()
        raw = scaled = 0.0
        segment_start, before = start, self._last
        for probe_start, probe_end, duration in marks:
            self.probe_s += probe_end - probe_start
            work = probe_start - segment_start
            raw += work
            scaled += work * _factor(before, duration)
            segment_start, before = probe_end, duration
        work = end - segment_start
        after = self._probe()
        raw += work
        scaled += work * _factor(before, after)
        self._last = after
        return result, raw, scaled
