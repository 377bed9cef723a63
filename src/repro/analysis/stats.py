"""Summary statistics over per-operation cost series.

The experiments compare *worst-case* and *amortized* behaviour, so the
summaries report extremes and means side by side, plus percentiles for
the spike-profile plots (CONTROL 1's rebalances show up as a heavy tail
that CONTROL 2 lacks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of one cost series."""

    count: int
    total: float
    mean: float
    maximum: float
    p50: float
    p90: float
    p99: float

    def as_row(self, precision: int = 2) -> List[str]:
        """Format for :func:`repro.analysis.report.render_table`."""
        return [
            str(self.count),
            f"{self.mean:.{precision}f}",
            f"{self.p50:.{precision}f}",
            f"{self.p90:.{precision}f}",
            f"{self.p99:.{precision}f}",
            f"{self.maximum:.{precision}f}",
        ]


SUMMARY_HEADERS = ["n", "mean", "p50", "p90", "p99", "max"]


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return float(sorted_values[rank])


def summarize(values: Sequence[float]) -> Summary:
    """Build a :class:`Summary` of any numeric series."""
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(float(value) for value in values)
    total = sum(ordered)
    return Summary(
        count=len(ordered),
        total=total,
        mean=total / len(ordered),
        maximum=ordered[-1],
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
    )


def tail_profile(values: Sequence[float], bins: int = 10) -> List[int]:
    """Histogram of a series (equal-width bins up to the maximum).

    A quick textual view of the spike structure: amortized algorithms
    have mass in the last bins, deamortized ones do not.
    """
    if not values:
        return [0] * bins
    maximum = max(values)
    if maximum <= 0:
        return [len(values)] + [0] * (bins - 1)
    histogram = [0] * bins
    for value in values:
        index = min(bins - 1, int(bins * value / maximum))
        histogram[index] += 1
    return histogram


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Used to check scaling claims: a flat worst-case curve has exponent
    near 0, a linear one near 1.  Pairs with non-positive coordinates
    are skipped.
    """
    points = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(points) < 2:
        return 0.0
    n = len(points)
    sum_x = sum(p[0] for p in points)
    sum_y = sum(p[1] for p in points)
    sum_xx = sum(p[0] * p[0] for p in points)
    sum_xy = sum(p[0] * p[1] for p in points)
    denominator = n * sum_xx - sum_x * sum_x
    if denominator == 0:
        return 0.0
    return (n * sum_xy - sum_x * sum_y) / denominator
