"""Order statistics used by the benchmark report."""

from __future__ import annotations

from math import exp, log
from typing import Hashable, Iterable, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]; same as numpy's default."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def typical(samples: Iterable[tuple[Hashable, float]]) -> float:
    """Geometric mean over distinct keys of each key's median value.

    Every input counts once, however often it ran in the window, and a
    burst of slow calls moves only the medians it falls into.
    """
    groups: dict[Hashable, list[float]] = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    if not groups:
        raise ValueError("no samples")
    return exp(sum(log(median(v)) for v in groups.values()) / len(groups))


def supported_percentile(n: int) -> int | None:
    """Highest of p50/p75/p90/p99 with at least ten of n samples beyond it."""
    best = None
    for p in (50, 75, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best
