"""Latency summaries: a median and the highest percentile the sample
supports (at least ten samples beyond it), with the sample count.
Failed requests rank as the slowest."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10
#: Seconds a failed request counts as (at least) in a summary.
FAILED_S = 60.0


def summary(seconds: Sequence[float], failures: int = 0) -> dict:
    """``p50_ms``, ``tail_ms``, the tail's percentile and the count.

    ``failures`` requests that got no correct answer rank as slower than
    every answered one, at :data:`FAILED_S` or the slowest answer if that is
    slower: shedding, failing or degrading a slow request can never make
    the summary look better.  The tail is the sample with exactly
    :data:`TAIL_BEYOND` samples above it, so its percentile is
    ``100 * (1 - 10 / n)``; with fewer than 11 samples it is the maximum.
    """
    values = sorted(seconds)
    if failures:
        values += [max(FAILED_S, values[-1] if values else 0.0)] * failures
    n = len(values)
    if n == 0:
        return {"count": 0, "failures": 0, "p50_ms": None, "tail_ms": None,
                "tail_percentile": None}
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "count": n,
        "failures": failures,
        "p50_ms": 1000.0 * statistics.median(values),
        "tail_ms": 1000.0 * values[index],
        "tail_percentile": round(100.0 * (index + 1) / n, 2),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 on an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
