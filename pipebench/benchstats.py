"""Statistics helpers for the pipeline benchmark.

Pure functions over plain lists so they can be tested without the
library: quartiles, the tail order statistic that keeps ten samples
beyond it, and the self time of a span given its children.
"""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """Highest order statistic with at least ``min_beyond`` samples above it.

    Returns (value, percentile, sample count).  With n samples the
    value is the (min_beyond + 1)-th largest, which sits at percentile
    100 * (n - min_beyond) / n: the 90th for 100 samples, the median
    for 20.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(
            f"a tail with {min_beyond} samples beyond it needs more than "
            f"{min_beyond} samples, got {n}"
        )
    return ordered[n - 1 - min_beyond], 100.0 * (n - min_beyond) / n, n


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is a list of (start, end, parent) with parent the index of
    the enclosing span or -1.  Child intervals are clipped to the
    parent's interval before their union is taken.
    """
    children = [[] for _ in spans]
    for k, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(k)
    out = []
    for k, (start, end, _) in enumerate(spans):
        inside = [
            (max(spans[c][0], start), min(spans[c][1], end))
            for c in children[k]
            if spans[c][1] > start and spans[c][0] < end
        ]
        out.append((end - start) - covered_length(inside))
    return out
