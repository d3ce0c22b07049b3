"""Order statistics for benchmark samples.

A percentile is reported only when at least :data:`MIN_TAIL` samples lie
beyond it, so a p90 needs at least 100 samples and a median at least 20.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Raises :class:`ValueError` when fewer than :data:`MIN_TAIL` samples
    lie beyond the percentile, because such a figure says more about the
    sample count than about the system.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    n = len(values)
    beyond = math.floor(n * (100.0 - q) / 100.0)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need at least {MIN_TAIL}"
        )
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of a sample, interpolated like :func:`percentile`.

    Quartiles describe a run's own spread and are printed beside its
    median whatever the sample count, so they skip the tail rule.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    ordered: List[float] = sorted(values)
    n = len(ordered)

    def at(q: float) -> float:
        rank = (n - 1) * q
        low = math.floor(rank)
        high = min(low + 1, n - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    return at(0.25), at(0.5), at(0.75)
