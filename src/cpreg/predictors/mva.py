"""Predictor for the Gaussian linear model with Gaussian explanatory variables.

The predictor reads the raw moment matrix of (1, x, y), i.e. (n, sum x,
sum xx', sum xy, sum y, sum y^2), from its :class:`~cpreg.design.DesignState`.
Conditionally on those sums, the studentized comparison of the last ridge
residual against the mean and spread of the earlier ones,

    sqrt((n-1)/n) * (e_n(y) - mean_{i<n} e_i(y)) / sd_{i<n}(e_i(y)),

is t-distributed with n - 2 degrees of freedom.  Every ingredient is a
polynomial in the candidate y with coefficients computable from the sums
alone, so the level-eps region is the solution set of one quadratic
inequality A y^2 + B y + C < 0 (an open interval, two open rays, the whole
line, or nothing).  Its ridge system U'U + aI, read from the sums and the
new row, goes through ``ridge_factor`` as iid's does.  The ridge term also
penalises the dummy column, so the statistic is not equivariant under
shifts of y, by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..design import DesignState
from ..linalg import cholesky_solve
from ..regions import Interval, PredictionRegion
from ..residuals import FeatureSchedule, ridge_factor
from ..stream import Observation
from ..studentt import t_sf, t_upper_point
from .base import OnlinePredictor

# Relative cutoff for deciding a quadratic coefficient is exactly zero.
COEF_RTOL = 1e-14


def open_solution_set(a: float, b: float, c: float) -> PredictionRegion:
    """Solution set of ``a y^2 + b y + c < 0`` with open endpoints."""
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return PredictionRegion.empty()
    if abs(a) <= COEF_RTOL * scale:
        if abs(b) <= COEF_RTOL * scale:
            return PredictionRegion.real_line() if c < 0.0 else PredictionRegion.empty()
        root = -c / b
        if b > 0.0:
            return PredictionRegion([Interval(-np.inf, root, False, False)])
        return PredictionRegion([Interval(root, np.inf, False, False)])
    disc = b * b - 4.0 * a * c
    if a > 0.0 and disc <= 0.0:
        return PredictionRegion.empty()
    # Downward parabola: negative outside the roots (if any).
    if a < 0.0 and disc < 0.0:
        return PredictionRegion.real_line()
    if a < 0.0 and disc == 0.0:
        root = -b / (2.0 * a)
        return PredictionRegion(
            [Interval(-np.inf, root, False, False), Interval(root, np.inf, False, False)]
        )
    # Cancellation-free roots; q is nonzero because disc > 0.
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
    lo, hi = sorted((q / a, c / q))
    if a > 0.0:
        return PredictionRegion([Interval(lo, hi, False, False)])
    return PredictionRegion(
        [Interval(-np.inf, lo, False, False), Interval(hi, np.inf, False, False)]
    )


@dataclass
class MvaStepContext:
    n: int
    informative: bool
    # Affine forms in the candidate y: value = slope * y + intercept.
    last: tuple[float, float] = (0.0, 0.0)  # e_n
    mean: tuple[float, float] = (0.0, 0.0)  # mean of e_1..e_{n-1}
    # Quadratic y-coefficients (c2, c1, c0) of sum_{i<n} (e_i - mean)^2.
    spread: tuple[float, float, float] = (0.0, 0.0, 0.0)


class MvaPredictor(OnlinePredictor):
    """On-line predictor reading only cross-moment sums of the data."""

    def __init__(self, schedule: FeatureSchedule | None = None):
        self.schedule = schedule or FeatureSchedule()
        self.design = DesignState()

    def begin_step(self, x_new) -> MvaStepContext:
        x_new = self.design.check_x(x_new)
        m = self.design.count
        n = m + 1
        if n < self.first_informative_step(x_new.size):
            return MvaStepContext(n=n, informative=False)
        kd = self.schedule.features_used(n, x_new.size)
        a = self.schedule.ridge
        raw = self.design.raw_moments()
        u = np.concatenate(([1.0], x_new[:kd]))
        gram = raw[: kd + 1, : kd + 1] + np.outer(u, u)
        colsum = gram[0]  # U'1 over all n rows, dummy column first
        q0, syy = raw[: kd + 1, -1], raw[-1, -1]
        solved = cholesky_solve(ridge_factor(gram, a), np.column_stack((q0, u)))
        w0, wu = solved[:, 0], solved[:, 1]
        # e_n(y) and the total residual sum 1'e(y), both affine in y.
        last = (1.0 - float(u @ wu), -float(u @ w0))
        total = (1.0 - float(colsum @ wu), q0[0] - float(colsum @ w0))
        mean = ((total[0] - last[0]) / m, (total[1] - last[1]) / m)
        # sum of all n squared residuals, quadratic in y
        ss_all = (
            1.0 - float(u @ wu) - a * float(wu @ wu),
            -2.0 * (float(u @ w0) + a * float(w0 @ wu)),
            syy - float(q0 @ w0) - a * float(w0 @ w0),
        )
        spread = (
            ss_all[0] - last[0] ** 2 - m * mean[0] ** 2,
            ss_all[1] - 2.0 * last[0] * last[1] - 2.0 * m * mean[0] * mean[1],
            ss_all[2] - last[1] ** 2 - m * mean[1] ** 2,
        )
        return MvaStepContext(n=n, informative=True, last=last, mean=mean, spread=spread)

    def first_informative_step(self, k: int) -> int:
        return 3

    def _raw_regions(
        self, ctx: MvaStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        if not ctx.informative:
            return [PredictionRegion.real_line() for _ in levels]
        n = ctx.n
        gap = (ctx.last[0] - ctx.mean[0], ctx.last[1] - ctx.mean[1])
        cf = (n - 1.0) * (n - 2.0) / n
        regions = []
        for eps in levels:
            t2 = t_upper_point(eps / 2.0, n - 2) ** 2
            regions.append(
                open_solution_set(
                    cf * gap[0] ** 2 - t2 * ctx.spread[0],
                    cf * 2.0 * gap[0] * gap[1] - t2 * ctx.spread[1],
                    cf * gap[1] ** 2 - t2 * ctx.spread[2],
                )
            )
        return regions

    def _pvalue(self, ctx: MvaStepContext, y: float, tau: float) -> float:
        if not ctx.informative:
            return tau
        y = float(y)
        n = ctx.n
        gap = (ctx.last[0] - ctx.mean[0]) * y + (ctx.last[1] - ctx.mean[1])
        ss = max(ctx.spread[0] * y * y + ctx.spread[1] * y + ctx.spread[2], 0.0)
        if ss == 0.0:
            return 1.0 if gap == 0.0 else 0.0
        stat = np.sqrt((n - 1.0) * (n - 2.0) / n) * gap / np.sqrt(ss)
        return 2.0 * t_sf(abs(stat), n - 2)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
