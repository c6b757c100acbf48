"""Percentiles that charge failures, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

INF = float("inf")

#: Percentiles the harness may report as "the highest supported".
_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(samples: Sequence[float], q: float, failed: int = 0) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples`` plus
    ``failed`` operations that never completed, each counted as +inf."""
    total = len(samples) + failed
    if total == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * total))
    if rank > len(samples):
        return INF
    return sorted(samples)[rank - 1]


def highest_supported(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond
    it (the median when even that has fewer)."""
    best = _LADDER[0]
    for q in _LADDER:
        if count * (100.0 - q) / 100.0 >= 10 - 1e-9:
            best = q
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def summarize(sets: List[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per metric: median and quartiles over the run sets."""
    summary = {}
    for name in sets[0]:
        q1, median, q3 = quartiles([one[name] for one in sets])
        summary[name] = {"q1": q1, "median": median, "q3": q3}
    return summary

