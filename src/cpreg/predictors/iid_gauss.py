"""Predictor conditioning on the joint exchangeability/Gaussian summary.

The summary at step n is the bag of explanatory vectors together with
(sum y, sum y*x, sum y^2): the rows of the predictor's
:class:`~cpreg.design.DesignState` and the response mean and centred
co-moments that it keeps, which carry the same information.  Conditionally
on it, the data are distributed as
a uniformly random permutation of the bag combined with a response vector
drawn uniformly from the sphere-slice

    {w : Z' w = (sum y, sum y*x),  w'w = sum y^2},

where Z is the full design (dummy column plus all K features) in the
permuted order.  The nonconformity score is the absolute ridge residual of
the last slot, on the ``cpreg.residuals.features_used`` leading columns, so
only the last-slot assignment of the permutation matters and every draw
reduces to picking a slot and a point on the slice.

Two regimes:

* slice dimension d = n - rank(Z) <= 1: the conditional law of the score is
  a finite set of atoms, the scores |e_s(w)| of every slot s at every point
  w of the slice.  The slice is the response vector Y itself (d = 0) or Y
  and its mirror Y - 2(u'Y)u (d = 1, u the null direction of Z'), and each
  atom's residual is affine in the candidate y.  The step is therefore an
  exchangeability step over n or 2n residual lines, the observed line
  last, and is handled by the exchangeability predictor's step context.
  For n <= K + 1 the lines are exactly that predictor's, so the two
  coincide, and such a step costs about what that predictor's does (see
  Geometry); Monte Carlo would only blur the atoms and (at tail
  candidates) destroy the n >= 1/eps informativeness threshold.
* d >= 2: genuine Monte Carlo over ``mc_samples`` draws, shared across
  every candidate y and every epsilon of the step (common random numbers
  keep the region boundaries well defined).  A draw needs only the slot-s
  coordinate of a uniform unit vector in the null space of Z', which has
  the law of sqrt(1 - h_ss) * g / sqrt(g^2 + c) with h_ss the leverage of
  slot s, g standard normal and c chi-square with d - 1 degrees of
  freedom; so a step costs a slot, a normal and a chi-square variate per
  draw rather than a projected n-vector.  What depends on the slot alone,
  sqrt(1 - h_ss) and the slot's residual line, is formed once per slot
  and gathered to the draws: the norm when drawing, the residual at y
  when a p-value asks for it, and the lines themselves only when a
  region's crossings need them per draw.  Given the summary the observed
  score and the draws' are i.i.d., so the observed score is one of mc + 1
  and ties itself, as in the exact Monte-Carlo test (Barnard 1963; Besag &
  Clifford 1989): p = (greater + tau * (ties + 1)) / (mc + 1), never below
  tau / (mc + 1).

Geometry.  The slice needs two things from Z: its minimum-norm point, the
projection P Y of the response vector onto Z's column space, and the slot
leverages h_ss, the diagonal of P.  The squared radius |Y - P Y|^2 is the
residual sum of squares of the fit that includes the candidate, so by the
recursive-residual identity (Brown, Durbin & Evans 1975) it is
(1 - h_n) (y - yhat)^2 + RSS: h_n the new slot's leverage, yhat the past
fit's prediction at the new row z_n and RSS that fit's residual sum of
squares.  The ones column lies in the column space, so P Y = ybar + P W
with ybar the past mean and W = Y - ybar, and Z'W = (0, C_xy) +
(y - ybar) z_n: a step reads the responses only through ybar and the
centred co-moments C_xy and C_yy, free of any response offset.  From
n = K + 3 on Z normally has full rank, and a Monte-Carlo step reads Z'Z
as the design state's Gram block plus z_n z_n', with no product of the
rows; one Cholesky factor of it gives (Z'Z)^{-1} [(0, C_xy), z_n], and
Z'Z + aI is the residual projector's system, as the ridge design is then
all of Z.  The leverages are carried
from step to step rather than solved for: adding z_n lowers each stored
slot's leverage by (z_s'c1)^2 / (1 - h_n) (Sherman-Morrison), with
c1 = (Z'Z)^{-1} z_n and h_n = z_n'c1, and z_s'c1 is the slope of the slice
point the step computes anyway.  So a step costs O(n K) beyond its draws.
The chain starts, and restarts after any break, from one triangular
solve, h_ss = |L^{-1} z_s|^2: at its first step, after a step that the SVD
took or that staged a row other than the one observed, and where 1 - h_n
is too small to divide by.  Up to n = K + 1 one Cholesky factor of WW', W
the centred rows [1, x - xbar], under the same condition gate, shows that
Z has rank n, so d = 0: the step takes the residual lines straight from
the rows, with no SVD and no moments, and its slice radius is 0.  Every
other step takes an SVD of Z, which also decides its rank, and projects
onto its left singular vectors: n = K + 2 (d = 1 unless Z is
rank-deficient), the steps whose factor fails or whose estimated
condition is too poor to rule out a rank the SVD would cut (repeated
rows, duplicated columns, large feature offsets).  Both routes of a
Monte-Carlo step end in one method, which applies the projector once, to
four columns, keeps the two slice-point columns as the n slot residual
lines, and draws.

Regions.  On a Monte-Carlo step the estimated p-value is a step function of
the candidate y: it changes only where a draw's score |a + b*u + m*r(u)|
crosses the observed score |e0*u + e1|, in u = y - yhat with the slice
radius r(u) = sqrt(c2*u^2 + RSS).  Squaring m*r(u) = +-(e0*u + e1) - a - b*u
gives two quadratics in u, free of any offset of y, so at most four
crossings, the draw's candidates.  A crossing that is no root of them lies
where m*r(u) and a right-hand side vanish together, at its zero -q/p.
Floats cannot round c2*u^2 + RSS below RSS, so r vanishes only where the
past responses fit exactly (RSS = 0); such a step sweeps both zeros of every
draw too, six candidates, and any other sweeps four, a zero standing in only
for a pair that lost a root to rounding (as when m is 0).  Each draw's score
comparison is evaluated once inside every gap between its sorted candidates,
which drops the spurious roots that squaring adds, and the flips of all
draws, summed per crossing, give the exact draw counts on every open segment
and at every crossing.  A draw ties at a crossing where its comparison
flips, once however many of its roots meet there, as a residual line ties at
its critical points in the exchangeability sweep; every other draw keeps its
state on both sides.  The candidates, probes and scores are laid out
event-major, one column per draw, so that every array operation runs along
the long draw axis, and one sort of all the flip points groups them into
events.  That sweep runs once per step and serves every epsilon and tau.
Exact steps (d <= 1) sweep their residual lines' critical points as the
exchangeability predictor does (the Ridge Regression Confidence Machine).
Both tables share one layout, and the observed score ties itself on every
cell of either; ``cpreg.regions.super_level_sets`` turns them into the
regions of every level at once, so an endpoint is closed by the counts at
its crossing, not by the p-value at a rounded point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..design import DesignState
from ..linalg import (
    RANK_RTOL,
    NumericalError,
    cholesky_factor,
    cholesky_solve,
    reciprocal_condition,
    triangular_solve,
)
from ..randomness import RandomStream, check_integer
from ..regions import PredictionRegion, informative_level_sets
from ..residuals import DEFAULT_RIDGE, check_ridge, ridge_columns, ridge_lines, ridge_residuals
from ..stream import Observation
from .base import OnlinePredictor
from .iid import IidStepContext

# Smallest LAPACK dtrcon estimate of the 1-norm reciprocal condition of the
# Cholesky factor L of Z'Z for which a Monte-Carlo step trusts L, and of the
# factor of WW' by which a step with n <= K + 1 takes d = 0; below it the
# step goes to the SVD, whose rank cutoff is RANK_RTOL.  L has the
# singular values of Z, but forming Z'Z rounds away everything below about
# sqrt(machine eps) = 1.5e-8 relative: for a Z that the SVD finds
# rank-deficient (sigma_min <= RANK_RTOL * sigma_max) the factorization
# either fails or returns an L whose reciprocal condition is of that order
# (at most 1.6e-8 over 300 random rank-deficient designs with K up to 60:
# duplicated, constant and dependent columns at scales 1e-3 to 1e3), and
# the estimate is within a factor of the order of K of the true 1-norm
# value.  1e-5 is three decades above that, so a step the SVD would call
# rank-deficient never takes this path, and still two decades below the
# reciprocal condition of a Gaussian design at n = K + 3 (2e-3 at K = 100).
# Where it passes, the geometry agrees with the SVD's to ~1e-11 relative.
_CHOLESKY_MIN_RCOND = 1e-5

# Smallest 1 - h_n, h_n the new slot's leverage, by which a Monte-Carlo step
# divides to carry the stored slots' leverages forward; below it the step
# solves for them afresh.  The division magnifies the rounding of the
# subtracted term (Z c1)_s^2 / (1 - h_n) by up to 1 / (1 - h_n), and a fresh
# solve from Z'Z loses kappa(Z)^2, which an outlying row inflates as well.
# Measured against a QR oracle after one outlying row x + c (c = 3 to 1e5)
# in K = 2, 3 and 20 streams: where 1 - h_n >= 1e-3 carrying adds at most
# about 1e-14 to the leverages' error; below that its error grows as
# 1 - h_n falls (4e-12 at 5.6e-6) and can exceed a fresh solve's by up
# to 16-fold (4.3e-13 against 2.6e-14 at 1 - h_n = 3.3e-5, K = 3).
# Gaussian designs stay far above: over the chained steps of K = 20
# n = 120 and K = 100 n = 600 the smallest 1 - h_n is 0.010.
_MIN_CARRY_SLACK = 1e-3


@dataclass
class IidGaussStepContext:
    n: int
    k: int  # number of explanatory columns
    exact: bool
    # squared slice radius c2*(y - center)^2 + floor as (c2, center, floor):
    # 1 - h_n, the past fit's prediction and its residual sum of squares
    rad2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # exact path: residual lines of the atoms, the observed line last
    atoms: IidStepContext | None = None
    # mc path, in u = y - center: the observed score |ea[0]*u + ea[1]|, the
    # slot residual lines, (2, n) rows of intercepts and slopes, each draw's
    # slot, and its null-space coordinate there
    ea: tuple[float, float] | None = None
    lines: np.ndarray | None = None
    slots: np.ndarray | None = None
    slot_mix: np.ndarray | None = None

    @cached_property
    def slot_base(self) -> np.ndarray:
        """Intercept (at u = 0) of each draw's slot line, gathered for ``crossings`` only."""
        return self.lines[0][self.slots]

    @cached_property
    def slot_slope(self) -> np.ndarray:
        """Slope of each draw's slot line, gathered for ``crossings`` only."""
        return self.lines[1][self.slots]

    @cached_property
    def crossings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Monte-Carlo step table: sorted crossing points, greater and tied draws.

        Returns ``(events, greater, ties)`` in the layout of
        ``IidStepContext.tables``: [left ray, events[0], gap, events[1], ...,
        right ray].  On a gap, ``greater`` counts the draws whose score is at
        least the observed score and no draw ties.  At an event a draw ties
        if its comparison flips there, once however many times it flips, and
        otherwise counts by the state it keeps on both sides.
        """
        a, b, m = self.slot_base, self.slot_slope, self.slot_mix
        e0, e1 = self.ea
        c2, center, floor = self.rad2
        m2 = m * m
        # Draw i meets the observed score where m*r(u) = p*u + q, with
        # (p, q) = s*(e0, e1) - (b, a) for s = +-1.  Squaring gives a quadratic
        # in u whose roots merge, and may be lost to rounding, where m*r(u) and
        # p*u + q vanish together, at the zero -q/p.  r vanishes only if floor
        # is 0, and then every draw sweeps both zeros; otherwise a sign's zero
        # stands in for a lost pair, confining the loss to a rounding-wide gap.
        p = _SIGNS * e0 - b  # (2, mc): row 0 for s = +1, row 1 for s = -1
        q = _SIGNS * e1 - a
        keep_zeros = not floor > 0.0
        cand = np.empty((6 if keep_zeros else 4, a.size))  # column i holds draw i's candidates
        pairs = cand.reshape(-1, 2, a.size)
        _quadratic_roots(m2 * c2 - p * p, -2.0 * p * q, m2 * floor - q * q, out=pairs[:2])
        with np.errstate(divide="ignore", invalid="ignore"):
            if keep_zeros:
                np.divide(-q, p, out=pairs[2])
            else:  # q/a is lost where both roots are, or where c/q is a linear root
                np.copyto(pairs[0], np.divide(-q, p), where=~np.isfinite(pairs[0]))
        cand += center  # candidates in y
        # Missing (NaN) or infinite candidates become one point right of every
        # root, so all draws have as many gaps; the extra ones lie on the right ray.
        missing = np.isfinite(cand)
        np.logical_not(missing, out=missing)
        np.copyto(cand, 0.0, where=missing)
        np.copyto(cand, 2.0 * max(cand.max(), 0.0) + 1.0, where=missing)
        _sort_columns(cand)
        # one probe inside each gap of each draw, rays included, taken to u
        probes = np.empty((cand.shape[0] + 1, cand.shape[1]))
        probes[0] = cand[0] - (1.0 + np.abs(cand[0]))
        np.add(cand[:-1], cand[1:], out=probes[1:-1])
        probes[1:-1] *= 0.5
        probes[-1] = cand[-1] + (1.0 + np.abs(cand[-1]))
        probes -= center
        # |a + b*u + m*r(u)| >= |e0*u + e1| at every probe, in two buffers,
        # with r(u) = sqrt(c2*u*u + floor) as ``pvalue`` forms it
        radius = np.multiply(probes, c2)
        radius *= probes
        radius += floor
        np.sqrt(radius, out=radius)
        score = np.multiply(probes, b)
        score += a
        score += np.multiply(radius, m, out=radius)
        np.abs(score, out=score)
        observed = np.multiply(probes, e0, out=radius)
        observed += e1
        np.abs(observed, out=observed)
        above = score >= observed
        # A draw's comparison flips at candidate row r where the probes on
        # either side differ; the events are the distinct points of all flips.
        flips = above[1:] != above[:-1]
        flat = cand.ravel()
        at = np.sort(flat.compress(flips.ravel()))
        last = np.ones(at.size, dtype=bool)
        np.not_equal(at[1:], at[:-1], out=last[:-1])
        ends = np.flatnonzero(last)  # the last flip of each event
        events = at[ends]

        def upto(mask):  # per event, the flips in ``mask`` at or left of it
            return np.searchsorted(np.sort(flat.compress(mask.ravel())), events, side="right")

        m = events.size
        greater = np.empty(2 * m + 1, dtype=np.int64)
        greater[0] = np.count_nonzero(above[0])
        greater[2::2] = greater[0] + 2 * upto(flips & above[1:]) - (ends + 1)  # rises less falls
        ties = np.zeros(2 * m + 1, dtype=np.int64)
        if m == at.size:
            # One flip per event, by the one draw that ties there: it is above
            # on one side only, so the event takes the lower gap count.
            greater[1::2] = np.minimum(greater[:-1:2], greater[2::2])
            ties[1::2] = 1
            return events, greater, ties
        # Equal candidates are one point, and the probes between them sit on
        # it, so a draw flips there at most twice: into its state on the
        # point and out of it.  It ties at an event only with its first flip
        # there, the one that leaves the state it had to the left of the
        # point, and leaves the greater count if that flip falls.
        left = above[:-1].copy()  # the state left of each candidate's point
        same = cand[1:] == cand[:-1]
        for row in range(1, cand.shape[0]):
            np.copyto(left[row], left[row - 1], where=same[row - 1])
        first = flips & (left == above[:-1])
        ties[1::2] = np.diff(upto(first), prepend=0)
        greater[1::2] = greater[:-1:2] - np.diff(upto(first > above[1:]), prepend=0)
        return events, greater, ties


_SIGNS = np.array([[1.0], [-1.0]])

# Optimal sorting networks for four and six keys: five comparators in three
# layers and twelve in five, one layer a line (Knuth, TAOCP vol. 3,
# section 5.3.4).  Each first layer touches every key.
_SORT4 = (
    (0, 1), (2, 3),
    (0, 2), (1, 3),
    (1, 2),
)
_SORT6 = (
    (0, 5), (1, 3), (2, 4),
    (1, 2), (3, 4),
    (0, 3), (2, 5),
    (0, 1), (2, 3), (4, 5),
    (1, 2), (3, 4),
)
_NETWORKS = {4: _SORT4, 6: _SORT6}


def _sort_columns(rows: np.ndarray) -> None:
    """Sort every column of a (4, n) or (6, n) array in place, one row pair at a time."""
    sorted_rows = list(rows)  # a comparator rebinds two rows to a fresh min and max
    for i, j in _NETWORKS[len(sorted_rows)]:
        low, high = sorted_rows[i], sorted_rows[j]
        sorted_rows[i], sorted_rows[j] = np.minimum(low, high), np.maximum(low, high)
    rows[:] = sorted_rows  # all fresh, as the first layer rebinds every row


def _full_row_rank(design: np.ndarray) -> bool:
    """Whether a design Z of n <= K + 1 rows clearly has rank n, so that d = 0.

    Its centred rows W = [1, x - xbar] span Z's column space free of any
    feature offset.  One Cholesky factor of WW' (n x n) decides it, under the
    Monte-Carlo steps' gate: the factor has the singular values of W, and a W
    the SVD finds rank-deficient fails the factorization or the gate.  False
    leaves the step to the SVD.
    """
    centred = design - design.mean(axis=0)
    centred[:, 0] = 1.0
    try:
        factor = cholesky_factor(centred @ centred.T, "centred row Gram matrix WW'")
    except NumericalError:
        return False
    return reciprocal_condition(factor) >= _CHOLESKY_MIN_RCOND


def _quadratic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
    """Real roots of a*y^2 + b*y + c into ``out[0]`` and ``out[1]``, NaN where there is none.

    Uses the cancellation-free pair q/a, c/q with q = -(b + sign(b) sqrt(D))/2,
    which also yields the single root of a linear (a = 0) equation.
    """
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        np.divide(q, a, out=out[0])
        np.divide(c, q, out=out[1])


def null_slot_coordinates(
    rng: RandomStream, leverage: np.ndarray, slots: np.ndarray, d: int
) -> np.ndarray:
    """Slot coordinates of uniform unit vectors in a ``d``-dim null space.

    Draw i is the coordinate, at slot ``slots[i]`` of hat-matrix diagonal
    ``leverage[slots[i]]``, of a uniform unit vector in the null space of Z'
    (``d >= 2``).  That slot's unit vector projects onto the null space with
    norm sqrt(1 - h), and one coordinate of a uniform unit d-vector is
    g / sqrt(g^2 + c) with g standard normal and c chi-square(d - 1).  The
    norms are formed once per slot and gathered per draw.  Consumes
    ``slots.size`` normal then as many chi-square variates.
    """
    g = rng.gaussian(slots.size)
    rest = rng.chisquare(d - 1, slots.size)
    rest += g * g  # in place from here on: these are the step's longest arrays
    mix = np.multiply(np.sqrt(np.maximum(1.0 - leverage, 0.0))[slots], g)
    return np.divide(mix, np.sqrt(rest, out=rest), out=mix)


class IidGaussPredictor(OnlinePredictor):
    """On-line conformal predictor under the combined IID/Gauss model."""

    def __init__(
        self,
        ridge: float = DEFAULT_RIDGE,
        rng: RandomStream | None = None,
        mc_samples: int = 1000,
    ):
        self.mc_samples = check_integer("mc_samples", mc_samples, 1)
        self.ridge = check_ridge(ridge)
        self._rng = rng if rng is not None else RandomStream(0, substream=1)
        self.design = DesignState()
        # Leverages of the stored rows in their own design, while the chain
        # of Monte-Carlo steps that carries them is unbroken; and the staged
        # row with the leverages of its step, which ``observe`` adopts when it
        # stores that row.
        self._leverage: np.ndarray | None = None
        self._staged: tuple[list[float], np.ndarray] | None = None

    def begin_step(self, x_new) -> IidGaussStepContext:
        design = self.design.with_row(x_new)  # full constraint design Z
        n, cols = design.shape
        if n <= cols and _full_row_rank(design):  # n <= K + 1 and d = 0
            return self._exact_step(design)
        if n >= cols + 2:  # n >= K + 3
            ctx = self._cholesky_step(design)
            if ctx is not None:
                return ctx
        return self._svd_step(design)

    def _slice_radius(self, slack: float, cross: float, fit: float) -> tuple[tuple, float]:
        """The squared slice radius (c2, center, floor), and center - ybar.

        With W = (Y_past - ybar, 0), cross = (P W)_n and fit = |P W|^2 it is
        slack*t^2 - 2*cross*t + C_yy - fit at y = ybar + t, least at cross / slack.
        """
        shift = cross / slack if slack > 0.0 else 0.0
        floor = max(float(self.design.comoment[-1, -1]) - fit - cross * shift, 0.0)
        return (max(slack, 0.0), float(self.design.mean[-1]) + shift, floor), shift

    def _cholesky_step(self, design) -> IidGaussStepContext | None:
        """Monte-Carlo step of a full-rank Z from one Cholesky factor Z'Z = LL'.

        Z'Z is the stored rows' Gram plus z_n z_n'; from n = K + 3 on
        the ridge design is all of Z, so Z'Z + aI is the ridge system.  With
        c0 = (Z'Z)^{-1} (0, C_xy) and c1 = (Z'Z)^{-1} z_n the slice point at
        y = ybar + t is ybar + Z c0 + t Z c1, the new slot's leverage is
        h_n = z_n'c1 and, by Sherman-Morrison, each stored slot's leverage
        drops by (Z c1)_s^2 / (1 - h_n) from its value at the previous step.
        The leverages are solved for afresh, as |L^{-1} z_s|^2, when that chain
        is broken or 1 - h_n is too small to divide by.  Returns None, leaving
        the step to the SVD, when Z is not clearly of full rank.
        """
        n, cols = design.shape
        zn = design[-1]
        gram = self.design.gram(cols) + zn[:, None] * zn
        try:
            factor = cholesky_factor(gram, "design Gram matrix Z'Z")
        except NumericalError:
            return None
        if reciprocal_condition(factor) < _CHOLESKY_MIN_RCOND:
            return None
        rhs = np.zeros((cols, 2), order="F")  # the layout dpotrs reads
        rhs[1:, 0], rhs[:, 1] = self.design.comoment[:-1, -1], zn
        coef = cholesky_solve(factor, rhs)
        c0, c1 = coef.T
        (fit, _), (cross, h_n) = rhs.T.dot(coef).tolist()  # dot: less overhead than @
        rad2, shift = self._slice_radius(1.0 - h_n, cross, fit)
        c0 += shift * c1  # the slice point at the radius's center, with ybar
        c0[0] += self.design.mean[-1]  # on Z's ones column
        fitted = design.dot(coef)
        if self._leverage is not None and rad2[0] >= _MIN_CARRY_SLACK:
            leverage = np.empty(n)
            np.subtract(self._leverage, fitted[:-1, 1] ** 2 / rad2[0], out=leverage[:-1])
            leverage[-1] = h_n
        else:
            half = triangular_solve(factor, design.T)  # L^{-1} Z'
            leverage = np.einsum("ij,ij->j", half, half)
        self._staged = (zn[1:].tolist(), leverage)
        return self._monte_carlo_step(design, gram, fitted, rad2, leverage, n - cols)  # U = Z

    def _svd_step(self, design) -> IidGaussStepContext:
        """Any step from an SVD of Z, which also decides its rank."""
        n, cols = design.shape
        # While n <= K + 2 the slice has d <= 1 unless Z is rank-deficient.
        # The reduced left factor is square while n <= K + 1; at n = K + 2 it
        # lacks the null direction, and only that step asks for the full one.
        left, sing, _ = np.linalg.svd(design, full_matrices=n == cols + 1)
        rank = int(np.sum(sing > RANK_RTOL * (sing[0] if sing.size else 0.0)))
        d = n - rank
        if d == 0:
            return self._exact_step(design)
        # P W and P e_n (see _slice_radius) in the basis of Z's column space
        basis = left[:, :rank]
        coords = np.column_stack(((self.design.y - self.design.mean[-1]) @ basis[:-1], basis[-1]))
        a0, a1 = coords.T
        rad2, shift = self._slice_radius(1.0 - float(a1 @ a1), float(a0 @ a1), float(a0 @ a0))
        if d == 1:
            return self._exact_step(design, rad2, mirror=left[:, rank])
        a0 += shift * a1
        fitted = basis @ coords + (self.design.mean[-1], 0.0)  # ybar on the intercept
        ridged = ridge_columns(design)
        leverage = np.sum(basis**2, axis=1)
        return self._monte_carlo_step(ridged, ridged.T @ ridged, fitted, rad2, leverage, d)

    def _exact_step(self, design, rad2=(0.0, 0.0, 0.0), mirror=None) -> IidGaussStepContext:
        """A step whose slice is the response vector Y, or Y and one mirror point.

        The atoms are the slots' ridge residual lines, the observed line last.
        With ``mirror`` = u, the null direction of Z' when d = 1 (small n
        regime only), the mirror point Y - 2(u'Y)u gives a second line per
        slot, first, from the same factor of the ridge system (``ridge_lines``).
        ``rad2`` is the squared slice radius, (0, 0, 0) for d = 0.
        """
        n, cols = design.shape
        aff = ridge_lines(design, self.design.y, self.ridge, mirror)
        atoms = IidStepContext(n=aff.slopes.size, residuals=aff)
        return IidGaussStepContext(n=n, k=cols - 1, exact=True, rad2=rad2, atoms=atoms)

    def _monte_carlo_step(self, ridged, gram, fitted, rad2, leverage, d) -> IidGaussStepContext:
        """A step whose slice has dimension ``d >= 2``: its residual lines and draws.

        ``ridged`` is the step's ridge design U and ``gram`` its U'U;
        ``fitted`` holds the slice point at the radius's center and its
        slope, and the lines are taken in u = y - center.
        """
        n = ridged.shape[0]
        # the response (candidate at the center), the candidate's unit vector
        # and the slice point's intercept and slope, through one projector solve
        cols4 = np.zeros((n, 4))
        cols4[:-1, 0] = self.design.y
        cols4[-1, 0], cols4[-1, 1] = rad2[1], 1.0
        cols4[:, 2:] = fitted
        res, = ridge_residuals(ridged, gram, self.ridge, cols4)
        slots = self._rng.integers(0, n, self.mc_samples)
        mix = null_slot_coordinates(self._rng, leverage, slots, d)
        return IidGaussStepContext(
            n=n, k=self.design.dim, ea=(float(res[-1, 1]), float(res[-1, 0])), exact=False,
            rad2=rad2, lines=res[:, 2:].T, slots=slots, slot_mix=mix,
        )

    def _raw_regions(
        self, ctx: IidGaussStepContext, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        # Degenerate-conditional convention: while the slice is atomic
        # (n <= k + 2) and the slot atoms alone cannot reach the level
        # (n < 1/eps), the step is declared non-informative.  Without this the
        # two-point slice at n = k + 2 can split one slot atom into a +-1 pair
        # and push a tail p-value to 1/(2n), bounding the region one step
        # before the continuous regime; the advertised threshold is
        # min(ceil(1/eps), k + 3).  The p-value trace is unaffected.
        informative = [ctx.n >= min(math.ceil(1.0 / eps), ctx.k + 3) for eps in levels]
        return informative_level_sets(levels, informative, lambda: self._table(ctx), tau)

    def _table(self, ctx: IidGaussStepContext) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The step table of ``super_level_sets``, its denominator last."""
        if ctx.exact:
            return (*ctx.atoms.tables, ctx.atoms.n)
        # the observed score is one of mc + 1 and ties itself on every cell
        events, greater, ties = ctx.crossings
        return events, greater, ties + 1, self.mc_samples + 1

    def _pvalue(self, ctx: IidGaussStepContext, y: float, tau: float) -> float:
        if ctx.exact:
            return ctx.atoms.pvalue(float(y), tau)
        c2, center, floor = ctx.rad2
        u = float(y) - center
        radius = math.sqrt(c2 * u * u + floor)
        observed = abs(ctx.ea[0] * u + ctx.ea[1])
        lines = ctx.lines
        scores = (lines[0] + lines[1] * u)[ctx.slots]  # each slot's residual once, then per draw
        scores += ctx.slot_mix * radius
        np.abs(scores, out=scores)
        greater = int(np.count_nonzero(scores > observed))
        ties = int(np.count_nonzero(scores == observed))
        return (greater + tau * (ties + 1)) / (self.mc_samples + 1)

    def observe(self, obs: Observation) -> None:
        staged, self._staged = self._staged, None
        self.design.append(obs.x, obs.y)
        # the staged step's leverages are the stored rows' only if it staged this row
        carried = staged is not None and staged[0] == obs.x.tolist()
        self._leverage = staged[1] if carried else None
