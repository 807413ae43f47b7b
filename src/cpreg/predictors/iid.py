"""Exchangeability-based predictor with ridge-residual nonconformity.

At step n every observation's ridge residual (``ridge_lines``, as on the
exact steps of iid-gauss) is an affine function of the candidate response
y, so the nonconformity comparison pattern can change only where some
|e_i(y)| crosses |e_n(y)|, i.e. where e_i(y) = +-e_n(y).
Those roots, merged within ``MERGE_TOL``, are the critical points, and the
region {y : p(y) > eps} is assembled by sweeping them (the Ridge Regression
Confidence Machine): the p-value is constant on each open gap between
them, so the counts on every gap and at every critical point determine
the region exactly.

The sweep is an event sweep.  Each past line is compared with the observed
one once, on the left ray below every critical point; it meets the
observed line at most twice, and each root where it does flips the
comparison, so a +-1 change per root, summed over the gaps, gives the
count of greater scores on every gap in O(n log n).  Ties: a line with a
root at a critical point ties there (a double root touches once and flips
nothing); a line that ties on the left ray, away from every root, is
+-e_n itself and ties on every gap and at every critical point; the
observed line ties itself.  ``cpreg.regions.super_level_sets`` turns
these tables into the region of every level in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from ..design import DesignRows
from ..regions import PredictionRegion, super_level_sets
from ..residuals import AffineResiduals, FeatureSchedule, ridge_lines
from ..stream import Observation
from .base import OnlinePredictor, check_tau

# Two residual lines closer in slope than this never cross.
PARALLEL_TOL = 1e-12
# Critical points closer than this collapse into one.
MERGE_TOL = 1e-12


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
    greater = int(np.count_nonzero(arr > last))
    ties = int(np.count_nonzero(arr == last))
    return (greater + tau * ties) / arr.size


def _roots(residuals: AffineResiduals) -> NDArray[np.float64]:
    """Solutions of e_i(y) = e_n(y) (row 0) and e_i(y) = -e_n(y) (row 1), i < n.

    NaN where the two lines are parallel within ``PARALLEL_TOL``.
    """
    b, c = residuals.slopes, residuals.intercepts
    signs = np.array([[1.0], [-1.0]])
    denom = b[:-1] - signs * b[-1]
    roots = np.full(denom.shape, np.nan)
    np.divide(signs * c[-1] - c[:-1], denom, out=roots, where=np.abs(denom) >= PARALLEL_TOL)
    return roots


def _merge(roots: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sorted roots, each chain closer than ``MERGE_TOL`` to its first one merged into it."""
    ordered = np.sort(roots[~np.isnan(roots)])
    if np.all(np.diff(ordered) > MERGE_TOL):
        return ordered
    merged: list[float] = []
    for t in ordered:
        if not merged or t - merged[-1] > MERGE_TOL:
            merged.append(float(t))
    return np.asarray(merged)


def critical_points(residuals: AffineResiduals) -> NDArray[np.float64]:
    """Sorted, deduplicated solutions of e_i(y) = +-e_n(y) over i < n."""
    return _merge(_roots(residuals))


@dataclass
class IidStepContext:
    n: int  # number of residual lines, the p-value denominator
    residuals: AffineResiduals  # the observed (scored) line last

    @cached_property
    def tables(self) -> tuple[NDArray[np.float64], NDArray[np.int64], NDArray[np.int64]]:
        """Critical points, and greater and tied score counts on every piece.

        Count layout: [left ray, crit_0, gap_01, crit_1, ..., crit_last, right
        ray], or a single entry when there are no critical points.  Built on
        the first region request; a p-value never needs them.
        """
        roots = _roots(self.residuals)
        crit = _merge(roots)
        m = crit.size
        scores = np.abs(self.residuals.at(crit[0] - 1.0 if m else 0.0))
        own, rest = scores[-1], scores[:-1]
        above, tied = rest > own, rest == own
        # The critical point each root merged into, m for none; a tied line
        # is never crossed.  A line is on the far side of its left-ray state
        # exactly on the gaps lo + 1 .. hi.
        at = np.searchsorted(crit, roots, side="right") - 1
        at[np.isnan(roots) | tied] = m
        lo, hi = at.min(axis=0), at.max(axis=0)
        flips = np.where(above, -1.0, 1.0)
        change = np.bincount(lo, flips, m + 1) - np.bincount(hi, flips, m + 1)
        gaps = np.count_nonzero(above) + np.cumsum(np.append(0.0, change[:m])).astype(np.int64)
        hi[hi == lo] = m  # a double root touches its point once

        def per_point(index):
            return np.bincount(index, minlength=m + 1)[:m]

        greater = np.empty(2 * m + 1, dtype=np.int64)
        greater[0::2] = gaps
        # A line ties at its roots, so there it leaves the greater count of
        # the gap to the left if it is above on that gap: at lo when it
        # starts above, at a second root hi when it starts below.
        greater[1::2] = gaps[:m] - per_point(lo[above]) - per_point(hi[~above])
        ties = np.full(2 * m + 1, np.count_nonzero(tied) + 1, dtype=np.int64)
        ties[1::2] += per_point(lo) + per_point(hi)
        return crit, greater, ties


class IidPredictor(OnlinePredictor):
    """On-line conformal predictor under the exchangeability model."""

    def __init__(self, schedule: FeatureSchedule | None = None):
        self.schedule = schedule or FeatureSchedule()
        self.design = DesignRows()

    def begin_step(self, x_new) -> IidStepContext:
        _, residuals = ridge_lines(self.design.with_row(x_new), self.design.y, self.schedule)
        return IidStepContext(n=residuals.slopes.size, residuals=residuals)

    def _raw_regions(
        self, ctx: IidStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        return super_level_sets(*ctx.tables, ctx.n, levels, tau)

    def _pvalue(self, ctx: IidStepContext, y: float, tau: float) -> float:
        return iid_pvalue(np.abs(ctx.residuals.at(float(y))), tau)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
