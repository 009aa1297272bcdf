"""Summary statistics of the benchmark: percentiles and failure accounting.

Pure functions on plain numbers, so ``test_bench.py`` can check them on
synthetic samples.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a + m2 - 1) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1)),
        ):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1 - x, b, a) / b


def percentile(samples: Sequence[float], p: int) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile of a non-empty sample.

    A Beta-weighted average of all order statistics, centred on rank
    p(n+1)/100.  Unlike the nearest-rank value it does not jump from one
    cluster of similar graphs to the next when two of them swap places.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile in 50..99 whose nearest rank has at
    least ``MIN_BEYOND`` of ``n`` samples beyond it, or None when even the
    median has fewer (n < 20)."""
    for p in range(99, 49, -1):
        if n - -(-p * n // 100) >= MIN_BEYOND:
            return p
    return None


def graph_time_summary(samples_ns: Sequence[int]) -> dict[str, float]:
    """Median and tail of per-graph times, in milliseconds.

    Without a percentile above the median that has ten samples beyond it,
    the tail falls back to the median and ``tail_p`` reads 50.
    """
    ms = [t / 1e6 for t in samples_ns]
    p = tail_percentile(len(ms)) or 50
    return {
        "n": len(ms),
        "p50": percentile(ms, 50),
        "tail_p": p,
        "tail": percentile(ms, p),
    }


def count_failed(
    requested: Iterable[tuple[str, str]],
    outcomes: Mapping[tuple[str, str], bool | None],
) -> int:
    """Requested (graph, class) decisions that came back undecided (None)
    or never came back (missing: the call raised or exited early)."""
    return sum(1 for key in requested if outcomes.get(key) is None)


def failed_fraction(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no decisions were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted
