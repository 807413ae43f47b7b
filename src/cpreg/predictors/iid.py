"""Exchangeability-based predictor with ridge-residual nonconformity.

At step n every observation's ridge residual (``ridge_lines``, as on the
exact steps of iid-gauss) is an affine function of the candidate response
y, so the nonconformity comparison pattern can change only where some
|e_i(y)| crosses |e_n(y)|, i.e. where e_i(y) = +-e_n(y).  Tie rule: a past
line ties with the observed one at y if one of those roots lies within
``tol`` = ``MERGE_RTOL`` * (the step's largest |intercept|) of y, a bound
that scales with the roots under y -> s*y, or if it is +-e_n (parallel,
with an equal score).  The sorted roots form one group while each lies
within ``tol`` of the one before; a group's first root is its critical
point, no root of another group lies within ``tol`` of it, and so the
p-value there counts what the sweep does.  The region {y : p(y) > eps} is
assembled by sweeping the critical points (the Ridge Regression Confidence
Machine): the p-value is constant on each open gap between them, so the
counts on every gap and at every critical point determine it exactly.

The sweep is an event sweep.  Each past line is compared with the observed
one once, on the left ray below every critical point; it meets the
observed line at most twice, and each root where it does flips the
comparison, so a +-1 change per root, summed over the gaps, gives the
count of greater scores on every gap in O(n log n).  Ties: a line with a
root in a group ties at its critical point (a double root touches once and
flips nothing); a line that ties on the left ray, away from every root, is
+-e_n itself and ties on every gap and at every critical point; the
observed line ties itself.  ``cpreg.regions.super_level_sets`` turns
these tables into the region of every level in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from ..design import DesignRows
from ..regions import PredictionRegion, super_level_sets
from ..residuals import DEFAULT_RIDGE, AffineResiduals, check_ridge, ridge_lines
from ..stream import Observation
from .base import OnlinePredictor

# Two residual lines closer in slope than this never cross.
PARALLEL_TOL = 1e-12
MERGE_RTOL = 1e-12  # the tie tolerance of a step, relative to its largest |intercept|


def _roots(residuals: AffineResiduals, past=slice(-1)) -> NDArray[np.float64]:
    """Solutions of e_i(y) = e_n(y) (row 0) and -e_n(y) (row 1), i in ``past``; NaN if parallel."""
    b, c = residuals.slopes, residuals.intercepts
    signs = np.array([[1.0], [-1.0]])
    denom = b[past] - signs * b[-1]
    roots = np.full(denom.shape, np.nan)
    np.divide(signs * c[-1] - c[past], denom, out=roots, where=np.abs(denom) >= PARALLEL_TOL)
    return roots


def critical_points(residuals: AffineResiduals) -> NDArray[np.float64]:
    """Sorted critical points of e_i(y) = +-e_n(y) over i < n, grouped by the tie rule."""
    return IidStepContext(residuals.slopes.size, residuals).groups()[0]


@dataclass
class IidStepContext:
    n: int  # number of residual lines, the p-value denominator
    residuals: AffineResiduals  # the observed (scored) line last
    tol: float = field(init=False)

    def __post_init__(self):
        self.tol = MERGE_RTOL * float(np.abs(self.residuals.intercepts).max())

    def pvalue(self, y: float, tau: float) -> float:
        """p-value of ``y`` under the tie rule, in O(n): as every |b_i| <= 1 (the projector
        is a contraction), a line that ties scores within 2 tol of the observed line."""
        scores = np.abs(self.residuals.at(y))
        own = float(scores[-1])
        low, high = own - 4.0 * self.tol, own + 4.0 * self.tol
        greater = int(np.count_nonzero(scores > high))
        ties = int(np.count_nonzero(scores >= low)) - greater  # the observed line among them
        if ties > 1:
            near = np.flatnonzero((scores[:-1] >= low) & (scores[:-1] <= high))
            roots = _roots(self.residuals, near)
            tied = np.any(np.abs(roots - y) <= self.tol, axis=0)
            tied |= np.isnan(roots).any(axis=0) & (scores[near] == own)  # +-e_n
            greater += int(np.count_nonzero(scores[near[~tied]] > own))
            ties = int(np.count_nonzero(tied)) + 1
        return (greater + tau * ties) / self.n

    def groups(self) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
        """The critical points, and each root's index among them (their count for a NaN root)."""
        flat = _roots(self.residuals).ravel()
        order = np.argsort(flat)[: flat.size - np.count_nonzero(np.isnan(flat))]  # NaN sorts last
        ordered = flat[order]
        first = np.ones(ordered.size, dtype=bool)
        np.greater(np.diff(ordered), self.tol, out=first[1:])
        at = np.full(flat.size, np.count_nonzero(first))
        at[order] = np.cumsum(first) - 1
        return ordered[first], at.reshape(2, -1)

    @cached_property
    def tables(self) -> tuple[NDArray[np.float64], NDArray[np.int64], NDArray[np.int64]]:
        """Critical points, and greater and tied score counts on every piece.

        Count layout: [left ray, crit_0, gap_01, crit_1, ..., crit_last, right
        ray], or a single entry when there are no critical points.  Built on
        the first region request; a p-value never needs them.
        """
        crit, at = self.groups()
        m = crit.size
        scores = np.abs(self.residuals.at(crit[0] - 1.0 if m else 0.0))
        own, rest = scores[-1], scores[:-1]
        above, tied = rest > own, rest == own
        # The critical point of each root's group, m for none; a tied line is
        # never crossed.  A line is on the far side of its left-ray state
        # exactly on the gaps lo + 1 .. hi.
        at[:, tied] = m
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

    def __init__(self, ridge: float = DEFAULT_RIDGE):
        self.ridge = check_ridge(ridge)
        self.design = DesignRows()

    def begin_step(self, x_new) -> IidStepContext:
        residuals = ridge_lines(self.design.with_row(x_new), self.design.y, self.ridge)
        return IidStepContext(n=residuals.slopes.size, residuals=residuals)

    def _raw_regions(
        self, ctx: IidStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        return super_level_sets(*ctx.tables, ctx.n, levels, tau)

    def _pvalue(self, ctx: IidStepContext, y: float, tau: float) -> float:
        return ctx.pvalue(float(y), tau)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
