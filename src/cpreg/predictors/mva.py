"""Predictor for the Gaussian linear model with Gaussian explanatory variables.

The predictor conditions on the cross-moment sums of (x, y), which its
:class:`~cpreg.design.DesignState` keeps as the means xbar, ybar and the
centred co-moments C_xx, C_xy, C_yy.  Conditionally on them, the
studentized comparison of the last ridge residual against the mean and
spread of the earlier ones,

    sqrt((n-1)/n) * (e_n(y) - mean_{i<n} e_i(y)) / sd_{i<n}(e_i(y)),

is t-distributed with n - 2 degrees of freedom.  Every ingredient is a
polynomial in t = y - ybar with coefficients computed from those moments
and the Gram U'U (``DesignState.gram``), free of raw response sums, so the
level-eps region is the solution set of one quadratic inequality
A t^2 + B t + C < 0 (an open interval, two open rays, the whole line, or
nothing), shifted back to y.  The ridge system U'U + aI goes through
``ridge_factor`` as iid's does.  Its term also penalises the dummy column,
so the statistic is not equivariant under shifts of y, by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..design import DesignState
from ..linalg import cholesky_solve
from ..regions import Interval, PredictionRegion, point
from ..residuals import DEFAULT_RIDGE, check_ridge, features_used, ridge_factor
from ..stream import Observation
from ..studentt import t_sf, t_upper_points
from .base import OnlinePredictor


def open_solution_set(a: float, b: float, c: float, center: float) -> PredictionRegion:
    """Solution set in y of ``a t^2 + b t + c < 0``, t = y - center, open endpoints.

    A zero ``a`` or ``b`` is taken as exact: the caller decides which
    coefficients vanish.  Two roots that round to one float leave that
    point if the quadratic is negative there, and nothing otherwise.
    """
    if a == 0.0:
        if b == 0.0:
            return PredictionRegion.real_line() if c < 0.0 else PredictionRegion.empty()
        root = center - c / b
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
        root = center - b / (2.0 * a)
        return PredictionRegion(
            [Interval(-np.inf, root, False, False), Interval(root, np.inf, False, False)]
        )
    # Cancellation-free roots; q is nonzero because disc > 0.
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
    lo, hi = sorted((center + q / a, center + c / q))
    if a > 0.0:
        if lo < hi:
            return PredictionRegion([Interval(lo, hi, False, False)])
        t = lo - center
        inside = a * t * t + b * t + c < 0.0
        return PredictionRegion([point(lo)]) if inside else PredictionRegion.empty()
    return PredictionRegion(
        [Interval(-np.inf, lo, False, False), Interval(hi, np.inf, False, False)]
    )


@dataclass
class MvaStepContext:
    n: int
    informative: bool
    center: float = 0.0  # ybar, the mean of the stored responses
    # Affine forms in t = y - center: value = slope * t + intercept.
    last: tuple[float, float] = (0.0, 0.0)  # e_n
    mean: tuple[float, float] = (0.0, 0.0)  # mean of e_1..e_{n-1}
    # Quadratic t-coefficients (c2, c1, c0) of sum_{i<n} (e_i - mean)^2.
    spread: tuple[float, float, float] = (0.0, 0.0, 0.0)


class MvaPredictor(OnlinePredictor):
    """On-line predictor reading only cross-moment sums of the data."""

    def __init__(self, ridge: float = DEFAULT_RIDGE):
        self.ridge = check_ridge(ridge)
        self.design = DesignState()

    def begin_step(self, x_new) -> MvaStepContext:
        state = self.design
        x_new = state.check_x(x_new)
        n = state.count + 1
        if n < self.first_informative_step(x_new.size):
            return MvaStepContext(n=n, informative=False)
        kd = features_used(n, x_new.size)
        center = float(state.mean[-1])
        # v = U'd = (0, C_xy) for the stored deviations d = y - ybar, the new
        # row u, and the stored rows' mean (1, xbar).
        rows = np.ones((3, kd + 1))
        rows[0, 0] = 0.0
        rows[:, 1:] = state.comoment[:kd, -1], x_new[:kd], state.mean[:kd]
        gram = state.gram(kd + 1)
        gram += rows[1, :, None] * rows[1]
        # Y = ybar + (d, t) and U e0 = 1, so e(t) = (d, t) - U (z + t w) with
        # (U'U + aI)(z, w) = (v - a ybar e0, u): ybar enters by the penalty.
        rhs = rows[:2].T.copy(order="F")  # the layout dpotrs reads
        rhs[0, 0] = -self.ridge * center
        coef = cholesky_solve(ridge_factor(gram, self.ridge), rhs)
        (vz, vw), (uz, uw), (bz, bw) = rows.dot(coef).tolist()  # dot: less overhead than @
        # e_i - mean = d_i - (x_i - xbar)'c for c the feature rows of z + t w,
        # so the spread is C_yy - 2 C_xy'c + c'C_xx c.
        feat = coef[1:]
        (qzz, qzw), (_, qww) = feat.T.dot(state.comoment[:kd, :kd].dot(feat)).tolist()
        last = (1.0 - uw, -uz)
        mean = (-bw, -bz)
        spread = (qww, 2.0 * (qzw - vw), float(state.comoment[-1, -1]) - 2.0 * vz + qzz)
        return MvaStepContext(n, True, center, last, mean, spread)

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
        gaps = (cf * gap[0] ** 2, cf * 2.0 * gap[0] * gap[1], cf * gap[1] ** 2)
        regions = []
        for t in t_upper_points([eps / 2.0 for eps in levels], n - 2):
            t2 = t**2
            coefs = []
            for g, s in zip(gaps, ctx.spread):
                # g - t2*s is zero where it is within the rounding of its two
                # terms: a scale-free test, as each pair multiplies one power of t
                coef = g - t2 * s
                coefs.append(0.0 if abs(coef) <= 8.0 * 2.0**-53 * (abs(g) + t2 * abs(s)) else coef)
            regions.append(open_solution_set(*coefs, ctx.center))
        return regions

    def _pvalue(self, ctx: MvaStepContext, y: float, tau: float) -> float:
        if not ctx.informative:
            return tau
        t = float(y) - ctx.center
        n = ctx.n
        gap = (ctx.last[0] - ctx.mean[0]) * t + (ctx.last[1] - ctx.mean[1])
        ss = max(ctx.spread[0] * t * t + ctx.spread[1] * t + ctx.spread[2], 0.0)
        if ss == 0.0:
            return 1.0 if gap == 0.0 else 0.0
        stat = np.sqrt((n - 1.0) * (n - 2.0) / n) * gap / np.sqrt(ss)
        return 2.0 * t_sf(abs(stat), n - 2)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
