"""Order statistics used to summarise timings.

Percentiles use the nearest-rank definition, so a reported percentile is
always one of the measured values.  The quartile spread uses
``statistics.quantiles(values, n=4)`` (its default "exclusive" method),
the same rule that judges the benchmark's run-to-run steadiness.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile: the smallest value with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # exact decimal arithmetic: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    return math.ceil(Fraction(str(p)) * n / 100)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int, min_beyond: int = 10):
    """Highest percentile in TAIL_PERCENTILES with at least ``min_beyond``
    samples above it, or None when even the 75th has fewer."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def summarize(values, min_beyond: int = 10) -> dict:
    """Fastest, mean, median, the highest well-supported tail percentile,
    and the count."""
    n = len(values)
    out = {"n": n, "min": min(values) if n else None,
           "mean": statistics.fmean(values) if n else None,
           "p50": statistics.median(values) if n else None,
           "tail_p": None, "tail": None}
    p = tail_percentile(n, min_beyond)
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        raise ValueError("quartile spread is undefined for a zero median")
    return (q3 - q1) / abs(med)
