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
observed line ties itself.  One sort of the roots, one scatter of their
group ids and a few bincounts build the table in one pass.
``cpreg.regions.super_level_sets`` turns it into the region of every level
in one pass.

The real-line rule.  As the observed line ties itself, every cell has
p = (greater + tau * ties) / n >= tau / n.  In floats the table's p-value
is fl(fl(fl(tau * ties) + greater) / n), with ties >= 1 and greater >= 0,
and rounding is monotone, so it is at least fl(tau / n) on every cell too.
A level eps < fl(tau / n) therefore keeps the whole line: a region request
returns the real line there without building the table, and a step where
every level is below it builds none.  The rule is exact, not a convention:
it gives what the table would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from ..design import DesignRows
from ..regions import PredictionRegion, informative_level_sets
from ..residuals import DEFAULT_RIDGE, AffineResiduals, check_ridge, ridge_lines
from ..stream import Observation
from .base import OnlinePredictor

# Two residual lines closer in slope than this never cross.
PARALLEL_TOL = 1e-12
MERGE_RTOL = 1e-12  # the tie tolerance of a step, relative to its largest |intercept|


def _roots(residuals: AffineResiduals, past=slice(-1)) -> NDArray[np.float64]:
    """Solutions of e_i(y) = e_n(y) (row 0) and -e_n(y) (row 1), i in ``past``; NaN if parallel."""
    b, c = residuals.slopes, residuals.intercepts
    slope, intercept = b[past], c[past]
    terms = np.empty((2, 2, slope.size))  # numerators and denominators, one row per sign
    num, denom = terms
    np.subtract(c[-1], intercept, out=num[0])
    np.subtract(-c[-1], intercept, out=num[1])
    np.subtract(slope, b[-1], out=denom[0])
    np.add(slope, b[-1], out=denom[1])
    roots = np.full(denom.shape, np.nan)
    np.divide(num, denom, out=roots, where=np.abs(denom) >= PARALLEL_TOL)
    return roots


def critical_points(residuals: AffineResiduals) -> NDArray[np.float64]:
    """Sorted critical points of e_i(y) = +-e_n(y) over i < n, grouped by the tie rule."""
    return IidStepContext(residuals.slopes.size, residuals).tables[0]


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

    @cached_property
    def tables(self) -> tuple[NDArray[np.float64], NDArray[np.int64], NDArray[np.int64]]:
        """Critical points, and greater and tied score counts on every piece.

        Count layout: [left ray, crit_0, gap_01, crit_1, ..., crit_last, right
        ray], or a single entry when there are no critical points.  Built on
        the first region request; a p-value never needs them.
        """
        flat = _roots(self.residuals).ravel()
        order = flat.argsort()  # NaN sorts last
        count = flat.size - np.count_nonzero(np.isnan(flat))
        ordered = flat[order[:count]]
        first = np.empty(count, dtype=bool)
        first[:1] = True
        np.greater(ordered[1:] - ordered[:-1], self.tol, out=first[1:])
        crit = ordered[first]
        m = crit.size
        # Each root's critical point, m for a NaN root, in one scatter.
        group = np.empty(flat.size, dtype=np.int64)
        group[:1] = 0
        np.add.accumulate(first[1:], dtype=np.int64, out=group[1:count])
        group[count:] = m
        at = np.empty_like(group)
        at[order] = group
        at = at.reshape(2, -1)
        scores = np.abs(self.residuals.at(crit[0] - 1.0 if m else 0.0))
        own, rest = scores[-1], scores[:-1]
        above, tied = rest > own, rest == own
        above_count, tied_count = int(np.count_nonzero(above)), int(np.count_nonzero(tied))
        # A tied line is never crossed.  A line is on the far side of its
        # left-ray state exactly on the gaps lo + 1 .. hi.
        np.copyto(at, m, where=tied)
        bounds = np.empty_like(at)
        lo, hi = bounds
        np.minimum(at[0], at[1], out=lo)
        np.maximum(at[0], at[1], out=hi)
        flips = 1.0 - 2.0 * above
        change = np.bincount(lo, flips, m + 1)
        change -= np.bincount(hi, flips, m + 1)
        # on every gap, the left ray's count plus the flips summed up to it
        greater = np.empty(2 * m + 1, dtype=np.int64)
        greater[0] = above_count
        np.add.accumulate(change[:m], dtype=np.int64, out=greater[2::2])
        greater[2::2] += above_count
        hi[hi == lo] = m  # a double root touches its point once
        # A line ties at its roots, so there it leaves the greater count of
        # the gap to the left if it is above on that gap: at lo when it
        # starts above, at a second root hi when it starts below.
        leaves = np.bincount(np.where(above, lo, hi), minlength=m + 1)
        np.subtract(greater[0:-1:2], leaves[:m], out=greater[1::2])
        # at a point, each line with a root there, once however many, besides
        # the tied lines and the observed one that tie everywhere
        ties = np.empty(2 * m + 1, dtype=np.int64)
        ties[0::2] = tied_count + 1
        np.add(np.bincount(bounds.ravel(), minlength=m + 1)[:m], tied_count + 1, out=ties[1::2])
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
        floor = tau / ctx.n  # every cell's p-value is at least this (the real-line rule)
        informative = [eps >= floor for eps in levels]
        return informative_level_sets(levels, informative, lambda: (*ctx.tables, ctx.n), tau)

    def _pvalue(self, ctx: IidStepContext, y: float, tau: float) -> float:
        return ctx.pvalue(float(y), tau)

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
