"""Predictor for the Gaussian linear model with Gaussian explanatory variables.

The state is the set of cross-moment sums (n, sum x, sum xx', sum xy, sum y,
sum y^2).  Conditionally on those sums, the studentized comparison of the last
ridge residual against the mean and spread of the earlier ones,

    sqrt((n-1)/n) * (e_n(y) - mean_{i<n} e_i(y)) / sd_{i<n}(e_i(y)),

is t-distributed with n - 2 degrees of freedom.  Every ingredient is a
polynomial in the candidate y with coefficients computable from the sums
alone, so the level-eps region is the solution set of one quadratic
inequality A y^2 + B y + C < 0 (an open interval, two open rays, the whole
line, or nothing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..linalg import NumericalError
from ..regions import Interval, PredictionRegion
from ..residuals import AffineResiduals, FeatureSchedule, ridge_residual_affine
from ..stream import Observation
from ..studentt import t_sf, t_upper_point
from .base import OnlinePredictor, check_epsilon, check_tau

# Relative cutoff for deciding a quadratic coefficient is exactly zero.
COEF_RTOL = 1e-14


def mva_residual_affine(x_history, y_history, x_new, schedule: FeatureSchedule | None = None) -> AffineResiduals:
    """Ridge residuals of all n slots as affine functions of the last response.

    The decomposition is identical to the one the exchangeability predictor
    sweeps over; the sums-only state determines every quantity derived from
    it that the statistic actually consumes, so sharing the computation is
    legitimate.
    """
    x_history = np.asarray(x_history, dtype=float)
    return ridge_residual_affine(
        x_history,
        np.asarray(y_history, dtype=float),
        np.asarray(x_new, dtype=float),
        schedule or FeatureSchedule(),
    )


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
    if a > 0.0:
        if disc <= 0.0:
            return PredictionRegion.empty()
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
        lo, hi = sorted((q / a, c / q)) if q != 0.0 else sorted((0.0, -b / a))
        return PredictionRegion([Interval(lo, hi, False, False)])
    # Downward parabola: negative outside the roots (if any).
    if disc < 0.0:
        return PredictionRegion.real_line()
    if disc == 0.0:
        root = -b / (2.0 * a)
        return PredictionRegion(
            [Interval(-np.inf, root, False, False), Interval(root, np.inf, False, False)]
        )
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
    lo, hi = sorted((q / a, c / q)) if q != 0.0 else sorted((0.0, -b / a))
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
    """On-line predictor keeping only cross-moment sums of the data."""

    def __init__(self, schedule: FeatureSchedule | None = None):
        self.schedule = schedule or FeatureSchedule()
        self._m = 0
        self._dim: int | None = None
        self._sx: np.ndarray | None = None
        self._sxx: np.ndarray | None = None
        self._sxy: np.ndarray | None = None
        self._sy = 0.0
        self._syy = 0.0

    @property
    def count(self) -> int:
        return self._m

    @property
    def sums(self) -> dict:
        """Copies of the stored cross-moment sums (for tests and inspection)."""
        return {
            "n": self._m,
            "x": None if self._sx is None else self._sx.copy(),
            "xx": None if self._sxx is None else self._sxx.copy(),
            "xy": None if self._sxy is None else self._sxy.copy(),
            "y": self._sy,
            "yy": self._syy,
        }

    def begin_step(self, x_new) -> MvaStepContext:
        x_new = np.asarray(x_new, dtype=float)
        if x_new.ndim != 1:
            raise ValueError(f"x_new must be 1-D, got shape {x_new.shape}")
        if self._dim is not None and x_new.size != self._dim:
            raise ValueError(f"x_new has {x_new.size} features, expected {self._dim}")
        n = self._m + 1
        if n < self.first_informative_step(x_new.size):
            return MvaStepContext(n=n, informative=False)
        kd = self.schedule.features_used(n, x_new.size)
        a = self.schedule.ridge
        u = np.concatenate(([1.0], x_new[:kd]))
        gram = np.empty((kd + 1, kd + 1))
        gram[0, 0] = self._m
        gram[0, 1:] = gram[1:, 0] = self._sx[:kd]
        gram[1:, 1:] = self._sxx[:kd, :kd]
        gram += np.outer(u, u)
        colsum = gram[0].copy()  # U'1 over all n rows, dummy column first
        q0 = np.concatenate(([self._sy], self._sxy[:kd]))
        penalized = gram.copy()
        penalized[np.diag_indices_from(penalized)] += a
        try:
            factor = cho_factor(penalized, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"ridge system is not positive definite: {exc}") from exc
        solved = cho_solve(factor, np.column_stack((q0, u)), check_finite=False)
        w0, wu = solved[:, 0], solved[:, 1]
        # e_n(y) and the total residual sum 1'e(y), both affine in y.
        last = (1.0 - float(u @ wu), -float(u @ w0))
        total = (1.0 - float(colsum @ wu), self._sy - float(colsum @ w0))
        mean = ((total[0] - last[0]) / self._m, (total[1] - last[1]) / self._m)
        # sum of all n squared residuals, quadratic in y
        ss_all = (
            1.0 - float(u @ wu) - a * float(wu @ wu),
            -2.0 * (float(u @ w0) + a * float(w0 @ wu)),
            self._syy - float(q0 @ w0) - a * float(w0 @ w0),
        )
        spread = (
            ss_all[0] - last[0] ** 2 - self._m * mean[0] ** 2,
            ss_all[1] - 2.0 * last[0] * last[1] - 2.0 * self._m * mean[0] * mean[1],
            ss_all[2] - last[1] ** 2 - self._m * mean[1] ** 2,
        )
        return MvaStepContext(n=n, informative=True, last=last, mean=mean, spread=spread)

    def first_informative_step(self, k: int) -> int:
        return 3

    def raw_region(self, ctx: MvaStepContext, eps: float, tau: float) -> PredictionRegion:
        check_epsilon(eps)
        check_tau(tau)
        if not ctx.informative:
            return PredictionRegion.real_line()
        n = ctx.n
        gap = (ctx.last[0] - ctx.mean[0], ctx.last[1] - ctx.mean[1])
        cf = (n - 1.0) * (n - 2.0) / n
        t2 = t_upper_point(eps / 2.0, n - 2) ** 2
        return open_solution_set(
            cf * gap[0] ** 2 - t2 * ctx.spread[0],
            cf * 2.0 * gap[0] * gap[1] - t2 * ctx.spread[1],
            cf * gap[1] ** 2 - t2 * ctx.spread[2],
        )

    def pvalue(self, ctx: MvaStepContext, y: float, tau: float) -> float:
        check_tau(tau)
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
        if self._dim is None:
            self._dim = obs.x.size
            self._sx = np.zeros(self._dim)
            self._sxx = np.zeros((self._dim, self._dim))
            self._sxy = np.zeros(self._dim)
        elif obs.x.size != self._dim:
            raise ValueError(f"observation has {obs.x.size} features, expected {self._dim}")
        self._sx += obs.x
        self._sxx += np.outer(obs.x, obs.x)
        self._sxy += obs.y * obs.x
        self._sy += obs.y
        self._syy += obs.y * obs.y
        self._m += 1
