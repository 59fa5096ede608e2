"""Reference-speed clock: takes the host's speed changes out of the time metrics.

The sandbox this benchmark runs in is a shared microVM whose speed drifts by
tens of percent for seconds to minutes at a time, with no load of its own
(``load1`` stays near the client count): forty back-to-back repetitions of
one deterministic ``engine_cold`` trace ran at 126–232 q/s within four
minutes, and a fixed interpreter-bound kernel timed five times a second took
0.25, 0.32 or 0.51 ms in spells of up to ten seconds.  Grouped into ten runs,
those raw rates spread 21 % (IQR / median) — no bound the contract allows
survives that, and a longer run does not average out a spell that lasts
minutes.  So the noise source is measured and divided out: every *time* the
benchmark reports is converted to **reference seconds**,

    reference seconds = measured seconds x REFERENCE_KERNEL_S / kernel seconds

where "kernel seconds" is how long :func:`reference_kernel` took around the
moment of the measurement.  ``REFERENCE_KERNEL_S`` only fixes the scale (the
kernel's duration on the box the bounds were measured on, in its fast state,
so that a reference second is a second on a quiet machine); it cancels out of
every comparison between two commits.

The kernel is stdlib-only backtracking over a constant graph — deliberately
*not* repo code, so a faster engine cannot speed the reference up.  The client
loop times it *between* operations, never inside one, at most every
``SAMPLE_EVERY_S``; the time that takes is logged (``spent_s``) and left out
of a closed loop's wall time.  The raw (unconverted) values of every
repetition are printed beside the converted ones, with the mean conversion
factor as ``machine_speed``.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Duration of :func:`reference_kernel` on the box the bounds were measured
#: on, in its fast state (Python 3.11).  Sets the scale only.
REFERENCE_KERNEL_S = 0.000236

#: At most one sample per this many seconds of client time.
SAMPLE_EVERY_S = 0.03

#: Samples within this distance of a measurement describe its moment.
WINDOW_S = 0.25

#: A fixed 14-ring with chords; the kernel counts its simple 6-paths.
_ADJACENCY = {
    vertex: frozenset({(vertex - 1) % 14, (vertex + 1) % 14, (vertex * 5 + 3) % 14} - {vertex})
    for vertex in range(14)
}


def _extend(vertex: int, used: set, depth: int) -> int:
    if depth == 0:
        return 1
    total = 0
    for neighbour in _ADJACENCY[vertex]:
        if neighbour not in used:
            used.add(neighbour)
            total += _extend(neighbour, used, depth - 1)
            used.discard(neighbour)
    return total


def reference_kernel() -> int:
    """A quarter millisecond of dict/set/call-heavy interpreter work."""
    return sum(_extend(start, {start}, 6) for start in _ADJACENCY)


class SpeedLog:
    """Kernel timings taken alongside one repetition's measurements.

    Client threads call :meth:`sample_if_due` between operations; one lock
    makes "is a sample due, then take it" a single step, and a thread that
    finds another one sampling moves on.  :meth:`factor` is read after the
    threads have been joined.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._times: list[float] = []
        self._durations: list[float] = []
        self._next_due = 0.0
        #: Seconds spent timing the kernel since the last :meth:`take_spent`.
        self._spent_s = 0.0

    def _sample(self) -> None:
        # three back to back, keep the fastest: the first one after an
        # operation (or after an open-loop sender's sleep) mostly measures
        # cold caches and wake-up, the later ones the machine's speed
        marks = [time.perf_counter()]
        for _ in range(3):
            reference_kernel()
            marks.append(time.perf_counter())
        self._times.append(marks[0])
        self._durations.append(min(after - before for before, after in zip(marks, marks[1:])))
        self._spent_s += marks[-1] - marks[0]
        self._next_due = marks[-1] + SAMPLE_EVERY_S

    def sample_if_due(self) -> None:
        if time.perf_counter() < self._next_due or not self._lock.acquire(blocking=False):
            return
        try:
            self._sample()
        finally:
            self._lock.release()

    def burst(self, count: int = 15) -> None:
        """Several samples back to back (around a one-off like set-up)."""
        with self._lock:
            for _ in range(count):
                self._sample()

    def take_spent(self) -> float:
        """Seconds spent sampling since the last call (then reset)."""
        with self._lock:
            spent, self._spent_s = self._spent_s, 0.0
        return spent

    def factor(self, begin: float, end: float | None = None) -> float:
        """Multiply seconds measured in ``[begin, end]`` by this.

        The reference duration over the median kernel duration of the samples
        inside the interval widened by ``WINDOW_S`` (the six nearest samples
        when fewer than five fall inside).  Samples are appended in time
        order, so the log is already sorted.
        """
        if not self._times:
            raise ValueError("no reference-kernel samples were taken")
        end = begin if end is None else end
        low = bisect.bisect_left(self._times, begin - WINDOW_S)
        high = bisect.bisect_right(self._times, end + WINDOW_S)
        if high - low < 5:
            centre = bisect.bisect_left(self._times, (begin + end) / 2)
            low, high = max(0, centre - 3), min(len(self._times), centre + 3)
        return REFERENCE_KERNEL_S / statistics.median(self._durations[low:high])
