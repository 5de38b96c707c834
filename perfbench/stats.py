"""Order statistics used by the benchmark and its compare mode."""
from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values, beyond=TAIL_BEYOND):
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition, so the value is a sample.  Returns
    (percentile, value), or None when there are too few samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0)
        if rank >= 1 and n - rank >= beyond:
            best = (p, ordered[rank - 1])
    return best


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def describe(values):
    """Median, quartiles, count and (with enough samples) the tail."""
    q1, med, q3 = quartiles(values)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    tl = tail(values)
    if tl is not None:
        out["tail"] = {"percentile": tl[0], "value": tl[1]}
    return out
