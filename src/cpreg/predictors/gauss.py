"""Predictor for the fixed-design Gaussian linear model.

The predictor reads the count m, the means and the centred co-moments of
(x, y) from its :class:`~cpreg.design.DesignState`.  They give the least
squares fit with an intercept without forming Z'Z: with dx = x_new - mean_x,

    slope = C_xx^{-1} C_xy,   yhat = mean_y + dx' slope,
    RSS = C_yy - C_xy' slope,  leverage = 1/m + dx' C_xx^{-1} dx,

and none of them cancels under a large offset of x or y.  With n = m + 1
and K features the classical studentized prediction residual

    T = (y - yhat) / (sigma_hat * sqrt(1 + leverage)),  sigma_hat^2 = RSS / (n - K - 2),

follows a t-distribution with n - K - 2 degrees of freedom, and the level-eps
region is the open interval yhat +- t_{n-K-2}^{eps/2} * sigma_hat * sqrt(1+lev).
Steps with n < K + 3 have no degrees of freedom left and predict the whole
real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..design import DesignState
from ..linalg import RANK_RTOL, NumericalError, cholesky_factor, cholesky_solve
from ..regions import Interval, PredictionRegion, point
from ..stream import Observation
from ..studentt import t_sf, t_upper_points
from .base import OnlinePredictor

# Residual sums below this (relative to the centred sum of squares of y)
# are treated as an exact fit.
EXACT_FIT_RTOL = 1e-12


@dataclass
class GaussStepContext:
    n: int
    informative: bool
    center: float = 0.0
    scale: float = 0.0  # sigma_hat * sqrt(1 + leverage); 0 means exact fit
    df: int = 0


def _solve_centred(cxx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``cxx @ out = rhs`` by Cholesky, refusing a numerically singular ``cxx``."""
    if cxx.size == 0:
        return rhs
    factor = cholesky_factor(cxx, "feature co-moment matrix")
    # cholesky_factor refuses a non-finite pivot, so the diagonal holds positive
    # floats, and Python's min and max read them with no NaN to skip.
    diag = factor.diagonal().tolist()
    if min(diag) < RANK_RTOL * max(diag):
        raise NumericalError("feature co-moments are numerically singular")
    return cholesky_solve(factor, rhs)


class GaussPredictor(OnlinePredictor):
    """On-line predictor emitting classical Gaussian prediction intervals."""

    def __init__(self):
        self.design = DesignState()

    def begin_step(self, x_new) -> GaussStepContext:
        x_new = self.design.check_x(x_new)
        k = x_new.size
        n = self.design.count + 1
        if n < self.first_informative_step(k):
            return GaussStepContext(n=n, informative=False)
        mean, com = self.design.mean, self.design.comoment
        dx = x_new - mean[:k]  # its own vector: a strided dx in dx @ w moves the last bits
        rhs = np.empty((k, 2), order="F")  # the layout dpotrs reads
        rhs[:, 0], rhs[:, 1] = com[:k, k], dx
        slope, w = _solve_centred(com[:k, :k], rhs).T
        lev = 1.0 / (n - 1) + float(dx @ w)
        rss = float(com[k, k] - com[:k, k] @ slope)
        if rss <= EXACT_FIT_RTOL * com[k, k]:
            rss = 0.0
        df = n - k - 2
        scale = math.sqrt(rss / df * (1.0 + lev))
        return GaussStepContext(
            n=n, informative=True, center=float(mean[k] + dx @ slope), scale=scale, df=df
        )

    def first_informative_step(self, k: int) -> int:
        return k + 3

    def _raw_regions(
        self, ctx: GaussStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        if not ctx.informative:
            return [PredictionRegion.real_line() for _ in levels]
        if ctx.scale == 0.0:
            return [PredictionRegion([point(ctx.center)]) for _ in levels]
        regions = []
        for t in t_upper_points([eps / 2.0 for eps in levels], ctx.df):
            half = t * ctx.scale
            lo, hi = ctx.center - half, ctx.center + half
            # Below the float spacing at the center the interval rounds to
            # the center alone, where p = 1.
            piece = Interval(lo, hi, False, False) if lo < hi else point(ctx.center)
            regions.append(PredictionRegion([piece]))
        return regions

    def _pvalue(self, ctx: GaussStepContext, y: float, tau: float) -> float:
        if not ctx.informative:
            # No studentized statistic exists yet; the smoothed p-value is
            # pure tie-breaking noise, matching the everywhere-real region.
            return tau
        if ctx.scale == 0.0:
            return 1.0 if y == ctx.center else 0.0
        t = (float(y) - ctx.center) / ctx.scale
        return 2.0 * t_sf(abs(t), ctx.df)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
