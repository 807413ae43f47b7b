"""Exchangeability-based predictor with ridge-residual nonconformity.

At step n every observation's ridge residual is an affine function of the
candidate response y, so the nonconformity comparison pattern can change
only where some |e_i(y)| crosses |e_n(y)|, i.e. where e_i(y) = +-e_n(y).
The region {y : p(y) > eps} is assembled by sweeping those critical
points: the p-value is constant on each open interval between them, so
one probe per interval (plus one per critical point) determines the
region exactly.  The probes partition the line in order, so each run of
consecutive kept probes is one connected piece of the region, and the
region is built from one interval per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ..design import DesignState
from ..regions import Interval, PredictionRegion
from ..residuals import AffineResiduals, FeatureSchedule, RidgeResidualMap
from ..stream import Observation
from .base import OnlinePredictor, check_epsilon, check_tau

# Two residual lines closer in slope than this never cross.
PARALLEL_TOL = 1e-12
# Critical points closer than this collapse into one.
MERGE_TOL = 1e-12
# Relative tolerance for recognizing score ties at a critical point,
# where exact ties are structurally expected but float noise perturbs them.
TIE_RTOL = 1e-9


def iid_pvalue(scores, tau: float) -> float:
    """p-value of the last score among all of them.

    ``p = (#{a_i > a_n} + tau * #{a_i = a_n}) / n`` with i running over
    all n scores (the last one always ties itself).
    """
    check_tau(tau)
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("scores must be a nonempty 1-D sequence")
    last = arr[-1]
    greater = int(np.sum(arr > last))
    ties = int(np.sum(arr == last))
    return (greater + tau * ties) / arr.size


def critical_points(residuals: AffineResiduals) -> NDArray[np.float64]:
    """Sorted, deduplicated solutions of e_i(y) = +-e_n(y) over i < n."""
    b, c = residuals.slopes, residuals.intercepts
    bn, cn = b[-1], c[-1]
    points = []
    for sign in (1.0, -1.0):
        denom = b[:-1] - sign * bn
        keep = np.abs(denom) >= PARALLEL_TOL
        if np.any(keep):
            points.append((sign * cn - c[:-1][keep]) / denom[keep])
    if not points:
        return np.empty(0)
    ordered = np.sort(np.concatenate(points))
    if np.all(np.diff(ordered) > MERGE_TOL):
        return ordered
    merged: list[float] = []
    for t in ordered:
        if not merged or t - merged[-1] > MERGE_TOL:
            merged.append(float(t))
    return np.asarray(merged)


@dataclass
class IidStepContext:
    n: int  # number of residual lines, the p-value denominator
    residuals: AffineResiduals  # the observed (scored) line last
    # Sweep tables, filled on first region request (a p-value at the realized
    # response never needs them).
    crit: NDArray[np.float64] | None = None
    greater: NDArray[np.int64] | None = None
    ties: NDArray[np.int64] | None = None

    def sweep(self) -> None:
        """Probe the score comparison on every piece of the critical grid.

        Probe layout: [left ray, crit_0, gap_01, crit_1, ..., crit_last,
        right ray], or a single probe when there are no critical points.
        Ties get a relative tolerance only at the critical points; between
        them the comparison is exact.
        """
        if self.crit is not None:
            return
        crit = critical_points(self.residuals)
        m = crit.size
        # Scored gap probes first (rays included), then the critical points.
        probes = np.empty(2 * m + 1)
        if m == 0:
            probes[0] = 0.0
        else:
            probes[0] = crit[0] - 1.0
            probes[1:m] = 0.5 * (crit[:-1] + crit[1:])
            probes[m] = crit[-1] + 1.0
            probes[m + 1 :] = crit
        scores = np.multiply.outer(self.residuals.slopes, probes)
        scores += self.residuals.intercepts[:, None]
        np.abs(scores, out=scores)
        own, rest = scores[-1], scores[:-1]
        greater = np.empty(2 * m + 1, dtype=np.int64)
        ties = np.empty(2 * m + 1, dtype=np.int64)
        greater[0::2] = np.count_nonzero(rest[:, : m + 1] > own[: m + 1], axis=0)
        ties[0::2] = np.count_nonzero(rest[:, : m + 1] == own[: m + 1], axis=0)
        own_crit = own[m + 1 :]
        tol = TIE_RTOL * np.maximum(1.0, own_crit)
        greater[1::2] = np.count_nonzero(rest[:, m + 1 :] > own_crit + tol, axis=0)
        ties[1::2] = np.count_nonzero(np.abs(rest[:, m + 1 :] - own_crit) <= tol, axis=0)
        self.crit = crit
        self.greater = greater
        self.ties = ties + 1

    def region(self, eps: float, tau: float) -> PredictionRegion:
        """{y : p(y) > eps}, one interval per run of consecutive kept probes."""
        self.sweep()
        keep = (self.greater + tau * self.ties) / self.n > eps
        # Probe i spans (bounds[(i + 1) // 2], bounds[i // 2 + 1]) and is the
        # closed point there when i is odd.
        padded = np.concatenate(([False], keep, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        first, last = edges[0::2], edges[1::2] - 1
        bounds = np.concatenate(([-np.inf], self.crit, [np.inf]))
        return PredictionRegion(
            Interval(lo, hi, lo_closed, hi_closed)
            for lo, hi, lo_closed, hi_closed in zip(
                bounds[(first + 1) // 2].tolist(),
                bounds[last // 2 + 1].tolist(),
                (first % 2 == 1).tolist(),
                (last % 2 == 1).tolist(),
            )
        )


class IidPredictor(OnlinePredictor):
    """On-line conformal predictor under the exchangeability model."""

    def __init__(self, schedule: FeatureSchedule | None = None):
        self.schedule = schedule or FeatureSchedule()
        self.design = DesignState()

    @property
    def count(self) -> int:
        return self.design.count

    def begin_step(self, x_new) -> IidStepContext:
        rows = self.design.with_row(x_new)
        n = rows.shape[0]
        residuals = RidgeResidualMap(rows, n, self.schedule).affine_in_last(self.design.y)
        return IidStepContext(n=n, residuals=residuals)

    def raw_region(self, ctx: IidStepContext, eps: float, tau: float) -> PredictionRegion:
        check_epsilon(eps)
        check_tau(tau)
        return ctx.region(eps, tau)

    def pvalue(self, ctx: IidStepContext, y: float, tau: float) -> float:
        return iid_pvalue(np.abs(ctx.residuals.at(float(y))), tau)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
