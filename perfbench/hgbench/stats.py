"""Percentiles that never claim more than the sample supports.

A percentile is reported as the requested one only when at least
``MIN_BEYOND`` samples lie beyond it; otherwise it is lowered to the
highest percentile that has that many, and the report says which one it
used.  Failed operations count as infinitely slow, so a failure always
misses a latency limit.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

MIN_BEYOND = 10


def supported_quantile(q: float, count: int, min_beyond: int = MIN_BEYOND) -> float:
    """The highest quantile <= ``q`` with ``min_beyond`` samples above it."""
    if count <= 0:
        raise ValueError("no samples")
    if q <= 0.5:
        return q
    return max(0.5, min(q, 1.0 - min_beyond / count))


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``samples`` (need not be sorted)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile_report(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> dict:
    """``{"value", "quantile", "samples"}`` with the quantile lowered if needed."""
    used = supported_quantile(q, len(samples), min_beyond)
    return {"value": quantile(samples, used), "quantile": used, "samples": len(samples)}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))





def limit_crossing(points: Sequence[tuple[float, float]]) -> float:
    """The rate at which the load reaches 1, from ``(rate, load)`` rungs.

    Load grows with the offered rate, so the noisy rungs are first made
    monotone: adjacent rungs whose loads fall are pooled at their mean
    load (isotonic regression by pooling adjacent violators).  The answer
    is interpolated linearly between the last fitted rung at or under 1
    (the origin when there is none) and the next one.  When every fitted
    rung is at or under 1, the highest rate is the answer.
    """
    blocks: list[list] = []  # [load total, rung count, rates]
    for rate, load in sorted(points):
        blocks.append([load, 1, [rate]])
        while len(blocks) > 1 and (
            blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]
        ):
            total, count, rates = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
            blocks[-1][2] += rates
    fitted = [(0.0, 0.0)] + [
        (rate, total / count) for total, count, rates in blocks for rate in rates
    ]
    above = next((i for i, (_, load) in enumerate(fitted) if load > 1.0), None)
    if above is None:
        return fitted[-1][0]
    (low, low_load), (high, high_load) = fitted[above - 1], fitted[above]
    return low + (high - low) * (1.0 - low_load) / (high_load - low_load)
