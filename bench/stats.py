"""Order statistics and the regression verdict the benchmark applies.

Quartiles use :func:`statistics.quantiles` with its default method, the
same call the acceptance check uses, so a spread printed here is the
spread that check sees.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(n: int) -> int:
    """The highest whole percentile with ten samples beyond it, at n samples.

    n=40 gives 75 and n=24 gives 58.  Below 20 samples no percentile
    above the median has ten samples beyond it, so the median (50) is
    the tail that can be resolved.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(50, math.floor(100 * (n - TAIL_SAMPLES_BEYOND) / n))


def percentile(values: Sequence[float], pct: int) -> float:
    """The nearest-rank ``pct``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, int]:
    """``(value, percentile)`` of the tail percentile rule.

    When the rule falls back to the median, the value is the median as
    :func:`statistics.median` gives it, so the tail never reads below it.
    """
    pct = tail_percentile(len(values))
    if pct == 50:
        return statistics.median(values), pct
    return percentile(values, pct), pct


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` reads than ``parent``, as a share of it."""
    if better == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one (metric, workload).

    The change is worse when its median is worse than the parent's by
    more than ``bound``.  When the run-to-run spread of either side is
    wider than the bound, no median comparison is trusted: the metric is
    unresolved unless every run of the change reads better than every run
    of the parent.
    """
    if max(relative_spread(parent), relative_spread(change)) > bound:
        if better == "lower":
            clearly_better = max(change) < min(parent)
        else:
            clearly_better = min(change) > max(parent)
        return "ok" if clearly_better else "unresolved"
    shift = worsening(statistics.median(parent), statistics.median(change), better)
    return "worse" if shift > bound else "ok"
