"""Predictor for the fixed-design Gaussian linear model.

The summary kept on-line is (Z'Z, Z'y, y'y) for the design with a dummy
intercept column, which is enough to reproduce the classical studentized
prediction interval: with m = n - 1 past observations and K features,

    T = (y - yhat) / (sigma_hat * sqrt(1 + leverage))

follows a t-distribution with n - K - 2 degrees of freedom, and the level-eps
region is the open interval yhat +- t_{n-K-2}^{eps/2} * sigma_hat * sqrt(1+lev).
Steps with n < K + 3 have no degrees of freedom left and predict the whole
real line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import NumericalError, spd_solve
from ..regions import Interval, PredictionRegion, point
from ..stream import Observation
from ..studentt import t_sf, t_upper_point
from .base import OnlinePredictor, check_epsilon, check_tau

# Residual sums below this (relative to y'y) are treated as an exact fit.
EXACT_FIT_RTOL = 1e-12


@dataclass
class GaussStepContext:
    n: int
    informative: bool
    center: float = 0.0
    scale: float = 0.0  # sigma_hat * sqrt(1 + leverage); 0 means exact fit
    df: int = 0


class GaussPredictor(OnlinePredictor):
    """On-line predictor emitting classical Gaussian prediction intervals."""

    def __init__(self):
        self._m = 0
        self._dim: int | None = None
        self._gram: np.ndarray | None = None  # Z'Z including the dummy column
        self._zty: np.ndarray | None = None
        self._sum_yy = 0.0

    @property
    def count(self) -> int:
        return self._m

    @property
    def dim(self) -> int | None:
        return self._dim

    def begin_step(self, x_new) -> GaussStepContext:
        x_new = np.asarray(x_new, dtype=float)
        if x_new.ndim != 1:
            raise ValueError(f"x_new must be 1-D, got shape {x_new.shape}")
        if self._dim is not None and x_new.size != self._dim:
            raise ValueError(f"x_new has {x_new.size} features, expected {self._dim}")
        k = x_new.size
        n = self._m + 1
        if n < self.first_informative_step(k):
            return GaussStepContext(n=n, informative=False)
        z = np.concatenate(([1.0], x_new))
        solved = spd_solve(self._gram, np.column_stack((self._zty, z)))
        beta, w = solved[:, 0], solved[:, 1]
        lev = float(z @ w)
        if lev < 0.0:
            raise NumericalError(f"negative leverage {lev}: summary is ill conditioned")
        rss = self._sum_yy - float(self._zty @ beta)
        if rss <= EXACT_FIT_RTOL * max(1.0, self._sum_yy):
            rss = 0.0
        df = n - k - 2
        scale = np.sqrt(rss / df * (1.0 + lev))
        return GaussStepContext(
            n=n, informative=True, center=float(z @ beta), scale=float(scale), df=df
        )

    def first_informative_step(self, k: int) -> int:
        return k + 3

    def raw_region(self, ctx: GaussStepContext, eps: float, tau: float) -> PredictionRegion:
        check_epsilon(eps)
        check_tau(tau)
        if not ctx.informative:
            return PredictionRegion.real_line()
        if ctx.scale == 0.0:
            return PredictionRegion([point(ctx.center)])
        half = t_upper_point(eps / 2.0, ctx.df) * ctx.scale
        return PredictionRegion([Interval(ctx.center - half, ctx.center + half, False, False)])

    def pvalue(self, ctx: GaussStepContext, y: float, tau: float) -> float:
        check_tau(tau)
        if not ctx.informative:
            # No studentized statistic exists yet; the smoothed p-value is
            # pure tie-breaking noise, matching the everywhere-real region.
            return tau
        if ctx.scale == 0.0:
            return 1.0 if y == ctx.center else 0.0
        t = (float(y) - ctx.center) / ctx.scale
        return 2.0 * t_sf(abs(t), ctx.df)

    def observe(self, obs: Observation) -> None:
        if self._dim is None:
            self._dim = obs.x.size
            self._gram = np.zeros((self._dim + 1, self._dim + 1))
            self._zty = np.zeros(self._dim + 1)
        elif obs.x.size != self._dim:
            raise ValueError(f"observation has {obs.x.size} features, expected {self._dim}")
        z = np.concatenate(([1.0], obs.x))
        self._gram += np.outer(z, z)
        self._zty += obs.y * z
        self._sum_yy += obs.y * obs.y
        self._m += 1


def gauss_tstat(state: GaussPredictor, x_new, y_new: float) -> float:
    """Studentized prediction residual of (x_new, y_new) against the state.

    Requires n >= K + 3 counting the new pair and a positive residual scale;
    the value is t-distributed with n - K - 2 degrees of freedom under the
    Gaussian linear model.
    """
    ctx = state.begin_step(x_new)
    if not ctx.informative:
        raise ValueError(
            f"need at least {np.asarray(x_new).size + 2} past observations, have {state.count}"
        )
    if ctx.scale == 0.0:
        raise NumericalError("residual scale is zero (exact fit): statistic undefined")
    return (float(y_new) - ctx.center) / ctx.scale
