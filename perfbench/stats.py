"""Order statistics shared by the workloads and the ledger."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(count: int, q: float) -> int:
    """Samples that lie strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def tail(values: list[float], q: float) -> float:
    """The ``q`` percentile, refusing one the sample cannot support.

    A tail percentile is only reported when at least ten samples lie
    beyond it; anything thinner is the maximum of a few outliers, not a
    percentile, and would not repeat from run to run.
    """
    if beyond(len(values), q) < 10:
        raise ValueError(
            f"p{q * 100:g} needs at least 10 samples beyond it; "
            f"{len(values)} samples give {beyond(len(values), q)}")
    return percentile(values, q)


def median(values: list[float]) -> float:
    return statistics.median(values)
