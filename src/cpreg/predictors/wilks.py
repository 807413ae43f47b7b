"""Distribution-free order-statistic predictor for univariate responses.

Under the IID model with a continuous distribution function, the rank of the
next response among the first n is uniform on {1, ..., n}, so the open
interval between the r-th and (n-r)-th order statistics of the first n - 1
responses misses the next response with probability exactly 2r/n.  The
explanatory vectors are ignored entirely: the state is the sorted responses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from ..regions import Interval, PredictionRegion
from ..stream import Observation
from .base import OnlinePredictor


@dataclass
class WilksStepContext:
    n: int
    sorted_history: tuple[float, ...]


class WilksPredictor(OnlinePredictor):
    """On-line predictor emitting order-statistic intervals.

    A step snapshots the sorted past responses.  The smoothed p-value of a
    candidate y is 2(min(low, high) + tau)/n, where two bisections count the
    stored responses strictly below/above y; it is exactly uniform under
    continuity.  The level-eps region {y : p > eps} is the open interval
    between the r-th smallest and r-th largest of them, read by index, with
    depth r = floor(eps*n/2 - tau) + 1.
    """

    def __init__(self):
        self._sorted: list[float] = []

    def begin_step(self, x_new) -> WilksStepContext:
        return WilksStepContext(n=len(self._sorted) + 1, sorted_history=tuple(self._sorted))

    def _raw_regions(
        self, ctx: WilksStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        h = ctx.sorted_history
        regions = []
        for eps in levels:
            depth = math.floor(eps * ctx.n / 2.0 - tau) + 1
            if depth < 1:
                regions.append(PredictionRegion.real_line())
            elif ctx.n <= 2 * depth:
                regions.append(PredictionRegion.empty())
            else:
                lo, hi = h[depth - 1], h[len(h) - depth]
                if lo < hi:
                    regions.append(PredictionRegion([Interval(lo, hi, False, False)]))
                else:
                    regions.append(PredictionRegion.empty())  # tied order statistics
        return regions

    def _pvalue(self, ctx: WilksStepContext, y: float, tau: float) -> float:
        y = float(y)
        h = ctx.sorted_history
        low = bisect.bisect_left(h, y)
        high = len(h) - bisect.bisect_right(h, y)
        p = 2.0 * (min(low, high) + tau) / ctx.n
        return min(max(p, 0.0), 1.0)

    def observe(self, obs: Observation) -> None:
        bisect.insort(self._sorted, obs.y)
