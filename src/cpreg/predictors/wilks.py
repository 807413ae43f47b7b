"""Distribution-free order-statistic predictor for univariate responses.

Under the IID model with a continuous distribution function, the rank of the
next response among the first n is uniform on {1, ..., n}, so the open
interval between the r-th and (n-r)-th order statistics of the first n - 1
responses misses the next response with probability exactly 2r/n.  The
explanatory vectors are ignored entirely.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..regions import Interval, PredictionRegion
from ..stream import Observation
from .base import OnlinePredictor


def wilks_region(sorted_history, r: int) -> tuple[PredictionRegion, float]:
    """Two-sided order-statistic region and its exact significance level.

    ``sorted_history`` holds the first n - 1 responses in increasing order;
    the region is the open interval between the r-th and (n-r)-th of them and
    the returned level is 2r/n.  Requires n >= 2r + 1.
    """
    hist = np.asarray(sorted_history, dtype=float)
    if hist.ndim != 1:
        raise ValueError(f"history must be 1-D, got shape {hist.shape}")
    if r < 1:
        raise ValueError(f"depth r must be a positive count, got {r}")
    n = hist.size + 1
    if n <= 2 * r:
        raise ValueError(f"need n >= 2r + 1 = {2 * r + 1} counting the new step, got n = {n}")
    lo, hi = float(hist[r - 1]), float(hist[n - r - 1])
    if lo < hi:
        region = PredictionRegion([Interval(lo, hi, False, False)])
    else:
        region = PredictionRegion.empty()  # tied order statistics
    return region, 2.0 * r / n


@dataclass
class WilksStepContext:
    n: int
    sorted_history: np.ndarray


class WilksPredictor(OnlinePredictor):
    """On-line predictor emitting order-statistic intervals.

    The smoothed p-value of a candidate y is 2(min(low, high) + tau)/n,
    where ``low``/``high`` count stored responses strictly below/above y;
    it is exactly uniform under continuity, and the level-eps region
    {y : p > eps} is the order-statistic interval with depth
    floor(eps*n/2 - tau) + 1.
    """

    def __init__(self):
        self._sorted: list[float] = []

    def begin_step(self, x_new) -> WilksStepContext:
        return WilksStepContext(
            n=len(self._sorted) + 1, sorted_history=np.asarray(self._sorted, dtype=float)
        )

    def _raw_regions(
        self, ctx: WilksStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        regions = []
        for eps in levels:
            depth = math.floor(eps * ctx.n / 2.0 - tau) + 1
            if depth < 1:
                regions.append(PredictionRegion.real_line())
            elif ctx.n <= 2 * depth:
                regions.append(PredictionRegion.empty())
            else:
                regions.append(wilks_region(ctx.sorted_history, depth)[0])
        return regions

    def _pvalue(self, ctx: WilksStepContext, y: float, tau: float) -> float:
        y = float(y)
        low = int(np.searchsorted(ctx.sorted_history, y, side="left"))
        high = ctx.sorted_history.size - int(np.searchsorted(ctx.sorted_history, y, side="right"))
        p = 2.0 * (min(low, high) + tau) / ctx.n
        return min(max(p, 0.0), 1.0)

    def observe(self, obs: Observation) -> None:
        bisect.insort(self._sorted, obs.y)
