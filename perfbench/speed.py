"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of pure-Python code drifts by ±20 % over
minutes, and CPU time drifts with it, so neither wall nor CPU time of a pass
repeats from one run to the next.  A fixed loop of the benchmark's own
slows down with it, if it is timed close enough in time to the work it
corrects: five times before the pass, once between graphs at most every
``PERIOD_S``, and five times after it.  Each graph's time is scaled by
``REFERENCE_S`` / the loop's mean time at the two points around it, which
turns it into reference seconds: the time the graph would take on a
machine on which the loop takes ``REFERENCE_S``.  The loop's own time is
left out of the pass.  The loop is not homhom code, so no change to the
program moves it.

Scaling a whole 10 s pass by the loop's median before and after it
tracked the pass worse than no correction at all; scaling each graph by
the points around it cut the run-to-run spread of ``sweep-n7c-hh``
(interquartile range over median, five to ten seeds) from 0.13-0.17 to
0.03-0.06.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

# The loop's typical time on the 2-core box the benchmark was defined on,
# so that reference seconds read close to seconds there.
REFERENCE_S = 0.02
ROUNDS = 12
PERIOD_S = 0.2


def loop_s() -> float:
    """Seconds for one run of a fixed loop of homhom's character: bit
    operations on small ints, dict look-ups, tuples and list building."""
    t0 = time.perf_counter_ns()
    acc = 0
    for _ in range(ROUNDS):
        seen: dict[tuple[int, int], int] = {}
        masks = [(1 << (i % 17)) | (1 << ((i * 7) % 23)) for i in range(2000)]
        for i, m in enumerate(masks):
            x = m ^ (m >> 3) & 0x5555
            key = (x & 0xFF, i % 97)
            seen[key] = seen.get(key, 0) + bin(x).count("1")
        acc += len(seen) + sum(sorted(seen.values())[:10])
    if acc <= 0:  # keeps the work from looking dead
        raise AssertionError(acc)
    return (time.perf_counter_ns() - t0) / 1e9


def factor(loop_times: Sequence[float]) -> float:
    """Scale from measured to reference seconds, from the loop's median."""
    return REFERENCE_S / statistics.median(loop_times)


class Sampler:
    """Times the loop around one pass and between its graphs.

    ``points`` holds the loop's times in order: the median of five before
    the pass, one between graphs at most every ``PERIOD_S``, and the median
    of five after it.  ``epochs[i]`` is the index of the last point taken
    before graph ``i``, so graph ``i`` ran between points ``epochs[i]`` and
    ``epochs[i] + 1``.
    """

    def __init__(self) -> None:
        self.points: list[float] = []
        self.epochs: list[int] = []
        self._next_ns = 0

    def block(self, k: int = 5) -> None:
        """Adds one point: the median of ``k`` runs of the loop."""
        self.points.append(statistics.median(loop_s() for _ in range(k)))
        self._next_ns = time.perf_counter_ns() + int(PERIOD_S * 1e9)

    def __call__(self) -> int:
        """Called before each graph; returns the nanoseconds it spent, to be
        left out of the pass."""
        t0 = time.perf_counter_ns()
        spent = 0
        if t0 >= self._next_ns:
            self.block(1)
            spent = time.perf_counter_ns() - t0
        self.epochs.append(len(self.points) - 1)
        return spent

    def graph_scales(self) -> list[float]:
        """Per graph, the scale to reference seconds from the loop's mean
        time at the two points around it.  Call after the closing block."""
        return [2 * REFERENCE_S / (self.points[e] + self.points[e + 1]) for e in self.epochs]
