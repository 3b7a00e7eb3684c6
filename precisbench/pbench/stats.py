"""Order statistics and the benchmark's own accounting rules."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: candidates for the reported tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """No candidate percentile has enough samples beyond it."""


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the *q*-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def tail(values: Sequence[float]) -> dict:
    """The highest percentile in :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, with its value and counts.

    Raises :class:`TooFewSamples` when even the median lacks them, so a
    run too short to have a tail reports that instead of a number.
    Infinite values (requests that failed or were shed) sort last and
    count as beyond every limit.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return {
                "percentile": q,
                "value": percentile(values, q),
                "samples": n,
                "beyond": beyond(n, q),
            }
    raise TooFewSamples(
        f"{n} samples: no percentile has {MIN_BEYOND} samples beyond it"
    )


class CostSeries:
    """Timed operations with the reference time measured next to each.

    ``seconds`` keeps every wall time; ``pairs`` keeps ``(time,
    reference)`` for operations whose reference readings were valid.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.pairs: list[tuple[float, float]] = []

    def add(self, seconds: float, reference: Optional[float]) -> None:
        self.seconds.append(seconds)
        if reference is not None:
            self.pairs.append((seconds, reference))

    def __len__(self) -> int:
        return len(self.seconds)

    def mean_ref(self) -> float:
        """Mean of ``time / reference`` over the operations."""
        return statistics.fmean(t / r for t, r in self.pairs)

    def p50_ms(self) -> float:
        return percentile(self.seconds, 50) * 1000.0
