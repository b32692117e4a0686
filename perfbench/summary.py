"""Summaries of timing samples: the median and the tail rule.

A timing is reported as its median plus the highest percentile that still
has at least ``MIN_BEYOND`` samples beyond it, together with the number of
samples, so a tail figure never rests on a handful of points.
"""

from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(list(values)))


def tail_percentile(samples):
    """(percentile, value, sample count) for the highest ladder percentile
    with at least ``MIN_BEYOND`` samples above it, or None when even the
    median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILE_LADDER:
        rank = math.ceil(n * p / 100.0)  # nearest rank: p % of the samples at or below it
        if n - rank < MIN_BEYOND:
            break
        best = (p, ordered[rank - 1], n)
    return best


def describe(samples) -> str:
    """One-line median / tail summary of timing samples in seconds."""
    n = len(samples)
    if n == 0:
        return "no samples"
    text = f"median {median(samples):.4g} s"
    tail = tail_percentile(samples)
    if tail is None:
        return f"{text} (n={n}; no percentile has {MIN_BEYOND} samples beyond it)"
    p, value, _ = tail
    return f"{text}, p{p:g} {value:.4g} s (n={n})"

