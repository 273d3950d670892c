"""Seeded open-loop arrival schedules.

Poisson arrivals are a Poisson process conditioned on its count: exactly
``round(rate * duration)`` arrival times drawn uniformly over the window
and sorted.  Fixing the count keeps the offered load identical across
seeds while the gaps stay exponential, so the share of short gaps a
connection sees is the same as under an unconditioned Poisson stream.
Spaced arrivals add a dead time to every gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due offset (s), operation, and its payload."""

    due: float
    op: str
    method: str
    path: str
    body: Any = None


def poisson_times(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Sorted arrival offsets in ``[0, duration)`` with exactly rate*duration points."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def spaced_poisson_times(
    rate: float, min_gap: float, duration: float, rng: random.Random
) -> list[float]:
    """Poisson arrivals with every gap at least ``min_gap`` (a dead time).

    Exactly ``round(rate * duration)`` arrivals: the random part of the
    schedule is a count-conditioned Poisson process over the time left
    after the dead times, and arrival ``i`` is shifted by ``i * min_gap``.
    """
    count = max(1, round(rate * duration))
    slack = duration - count * min_gap
    if rate <= 0 or slack <= 0:
        raise ValueError("rate * min_gap must be below 1")
    free = sorted(rng.uniform(0.0, slack) for _ in range(count))
    return [t + i * min_gap for i, t in enumerate(free)]


def draw_ops(mix: dict[str, float], count: int, rng: random.Random) -> list[str]:
    """``count`` operation names in the ``mix`` proportions, seeded order.

    The counts are exact (largest remainder), so every seed offers the same
    share of each operation and only the order varies.
    """
    total = sum(mix.values())
    shares = {name: count * weight / total for name, weight in sorted(mix.items())}
    counts = {name: int(share) for name, share in shares.items()}
    by_remainder = sorted(shares, key=lambda name: counts[name] - shares[name])
    for name in by_remainder[: count - sum(counts.values())]:
        counts[name] += 1
    ops = [name for name in sorted(counts) for _ in range(counts[name])]
    rng.shuffle(ops)
    return ops


def build_schedule(
    times: Sequence[float],
    ops: Sequence[str],
    request_for: Callable[[str, random.Random], tuple[str, str, Any]],
    rng: random.Random,
    offset: float = 0.0,
) -> list[Arrival]:
    """Pair arrival times with operations and their seeded request payloads."""
    schedule = []
    for due, op in zip(times, ops):
        method, path, body = request_for(op, rng)
        schedule.append(Arrival(offset + due, op, method, path, body))
    return schedule
