"""Predictor conditioning on the joint exchangeability/Gaussian summary.

The summary at step n is the bag of explanatory vectors together with
(sum y, sum y*x, sum y^2): the rows of the predictor's
:class:`~cpreg.design.DesignState` and the last column of its raw moment
matrix.  Conditionally on it, the data are distributed as
a uniformly random permutation of the bag combined with a response vector
drawn uniformly from the sphere-slice

    {w : Z' w = (sum y, sum y*x),  w'w = sum y^2},

where Z is the full design (dummy column plus all K features) in the
permuted order.  The nonconformity score is the absolute ridge residual of
the last slot under the feature schedule, so only the last-slot assignment
of the permutation matters and every draw reduces to picking a slot and a
point on the slice.

Two regimes:

* slice dimension d = n - rank(Z) <= 1: the conditional law of the score is
  a finite set of atoms, the scores |e_s(w)| of every slot s at every point
  w of the slice.  The slice is the response vector Y itself (d = 0) or Y
  and its mirror Y - 2(u'Y)u (d = 1, u the null direction of Z'), and each
  atom's residual is affine in the candidate y.  The step is therefore an
  exchangeability step over n or 2n residual lines, the observed line
  last, and is handled by the exchangeability predictor's step context.
  For n <= K + 1 the lines are exactly that predictor's, so the two
  coincide; Monte Carlo would only blur the atoms and (at tail candidates)
  destroy the n >= 1/eps informativeness threshold.
* d >= 2: genuine Monte Carlo over ``mc_samples`` draws, shared across
  every candidate y and every epsilon of the step (common random numbers
  keep the region boundaries well defined).  A draw
  needs only the slot-s coordinate of a uniform unit vector in the null
  space of Z', which has the law of sqrt(1 - h_ss) * g / sqrt(g^2 + c) with
  h_ss the leverage of slot s, g standard normal and c chi-square with
  d - 1 degrees of freedom; so a step costs a slot, a normal and a
  chi-square variate per draw rather than a projected n-vector.

Geometry.  The slice needs two things from Z: its minimum-norm point
Z (Z'Z)^+ (t0 + y z_n), affine in the candidate y (t0 = (sum y, sum y*x)
of the past, z_n the new design row), whose squared norm gives the slice
radius, and the slot leverages h_ss, the diagonal of the hat matrix
Z (Z'Z)^{-1} Z'.  From n = K + 3 on Z normally has full rank, and a
Monte-Carlo step reads Z'Z from the design state's raw moments plus
z_n z_n', with no product of the rows; one Cholesky factor of it gives
(Z'Z)^{-1} [t0, z_n], and its leading block, ridged, is the residual
projector's system.  The leverages are carried from step to step rather
than solved for: adding z_n lowers each stored slot's leverage by
(z_s'c1)^2 / (1 - h_n) (Sherman-Morrison), with c1 = (Z'Z)^{-1} z_n and
h_n = z_n'c1 the new slot's leverage, and z_s'c1 is the slope of the
slice point the step computes anyway.  So a step costs O(n K) beyond its
draws.  The chain starts, and restarts after any break, from one
triangular solve, h_ss = |L^{-1} z_s|^2: at its first step, after a step
that the SVD took or that staged a row other than the one observed, and
where 1 - h_n is too small to divide by.  Every other step takes an SVD of
Z, which also decides its rank: the exact steps, and the Monte-Carlo steps
whose factor fails or whose estimated condition is too poor to rule out a
rank the SVD would cut (duplicated columns, large feature offsets).

Regions.  On a Monte-Carlo step the estimated p-value is a step function
of the candidate y: it changes only where a draw's score
|a + b*y + m*r(y)| crosses the observed score |e0*y + e1|, with r(y) the
slice radius.  Squaring m*r(y) = +-(e0*y + e1) - a - b*y gives two
quadratics per draw, so at most four crossings; with the zeros of the two
right-hand sides (where rounding can hide a root) they are the draw's
candidates.  Each draw's score comparison is evaluated once inside every
gap between its sorted candidates, which drops the spurious roots that
squaring adds, and the flips of all draws, summed per crossing, give the
exact draw counts on every open segment and at every crossing.  A draw
ties at a crossing where its comparison flips, once however many of its
roots meet there, as a residual line ties at its critical points in the
exchangeability sweep; every other draw keeps its state on both sides.
The candidates, probes and scores are laid out event-major, one row per
candidate point and one column per draw, so that every array operation
runs along the long draw axis: a fixed sorting network orders each
draw's six candidates, and one sort of all the flips by their point
groups them into events.  That sweep runs once per step and serves
every epsilon and tau.  Exact steps (d <= 1) sweep the critical points of
their residual lines as the exchangeability predictor does (the Ridge
Regression Confidence Machine): the observed line ties itself
structurally, not within a rounding band.  Both tables share one layout,
and ``cpreg.regions.super_level_sets`` turns either into the regions of
every level at once, so an endpoint is closed by the counts at its
crossing, not by the p-value at a rounded point.
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
from ..randomness import RandomStream
from ..regions import PredictionRegion, super_level_sets
from ..residuals import AffineResiduals, FeatureSchedule, RidgeResidualMap, ridge_lines
from ..stream import Observation
from .base import OnlinePredictor
from .iid import IidStepContext, iid_pvalue

# Smallest LAPACK dtrcon estimate of the 1-norm reciprocal condition of the
# Cholesky factor L of Z'Z for which a Monte-Carlo step trusts L; below it
# the step goes to the SVD, whose rank cutoff is RANK_RTOL.  L has the
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
    ea: tuple[float, float]  # observed score |ea[0]*y + ea[1]|
    exact: bool
    # coefficients (c2, c1, c0) of the squared slice radius as a function of y
    rad2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # exact path: residual lines of the atoms, the observed line last
    atoms: IidStepContext | None = None
    # mc path: per-draw slot gathers
    slot_base: np.ndarray | None = None
    slot_slope: np.ndarray | None = None
    slot_mix: np.ndarray | None = None

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
        c2, c1, c0 = self.rad2
        m2 = m * m
        # Draw i meets the observed score where m*r(y) = p*y + q, with
        # (p, q) = s*(e0, e1) - (b, a) for s = +-1.  Squaring gives a quadratic
        # whose two roots merge, and may be lost to rounding, when m*r(y) and
        # p*y + q vanish together; that happens only near the zero -q/p of the
        # right-hand side (m*r is small there, or r = 0 where the squared
        # radius dips below zero by rounding), so that zero is a candidate too
        # and confines such a loss to a rounding-wide interval.
        p = _SIGNS * e0 - b  # (2, mc): row 0 for s = +1, row 1 for s = -1
        q = _SIGNS * e1 - a
        cand = np.empty((6, a.size))  # column i holds draw i's candidates
        pairs = cand.reshape(3, 2, a.size)
        _quadratic_roots(m2 * c2 - p * p, m2 * c1 - 2.0 * p * q, m2 * c0 - q * q, out=pairs[:2])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(-q, p, out=pairs[2])
        # Missing (NaN) or infinite candidates become one point right of every
        # root, so all draws have as many gaps; the extra ones lie on the right ray.
        missing = ~np.isfinite(cand)
        top = np.max(cand, where=~missing, initial=0.0)
        np.copyto(cand, 2.0 * top + 1.0, where=missing)
        _sort_columns(cand)
        # one probe inside each gap of each draw, rays included
        probes = np.empty((cand.shape[0] + 1, cand.shape[1]))
        probes[0] = cand[0] - (1.0 + np.abs(cand[0]))
        np.add(cand[:-1], cand[1:], out=probes[1:-1])
        probes[1:-1] *= 0.5
        probes[-1] = cand[-1] + (1.0 + np.abs(cand[-1]))
        # |a + b*y + m*r(y)| >= |e0*y + e1| at every probe, in two buffers,
        # with r(y) = sqrt(max(c2*y*y + c1*y + c0, 0)) as ``pvalue`` forms it
        radius = np.multiply(probes, c2)
        radius *= probes
        score = np.multiply(probes, c1)
        radius += score
        radius += c0
        np.maximum(radius, 0.0, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(probes, b, out=score)
        score += a
        score += np.multiply(radius, m, out=radius)
        np.abs(score, out=score)
        observed = np.multiply(probes, e0, out=radius)
        observed += e1
        np.abs(observed, out=observed)
        above = score >= observed
        # A draw's comparison flips at candidate row r where the probes on
        # either side differ.  Equal candidates are one point, and the probes
        # between them sit on it, so a draw flips there at most twice: into
        # its state on the point and out of it.  It ties at an event only
        # with its first flip there, the one that leaves the state it had to
        # the left of the point.
        flips = above[1:] != above[:-1]
        left = above[:-1].copy()  # the state left of each candidate's point
        same = cand[1:] == cand[:-1]
        for row in range(1, cand.shape[0]):
            np.copyto(left[row], left[row - 1], where=same[row - 1])
        first = flips & (left == above[:-1])
        # Every flip in the order of its point; per event, counts read at the
        # last flip there from running sums of rises, first flips and first
        # flips that fall (the draw was above on the gap to the left).
        index = np.flatnonzero(flips)
        at = cand.ravel()[index]
        order = at.argsort()
        index, at = index[order], at[order]
        sums = np.empty((3, index.size), dtype=np.int64)
        sums[0] = above[1:].ravel()[index]
        sums[1] = first.ravel()[index]
        np.greater(sums[1], sums[0], out=sums[2])
        np.cumsum(sums, axis=1, out=sums)
        last = np.ones(at.size, dtype=bool)
        np.not_equal(at[1:], at[:-1], out=last[:-1])
        ends = np.flatnonzero(last)
        events = at[ends]
        rises, tied, falls = sums.take(ends, axis=1)
        tied[1:] -= tied[:-1]
        falls[1:] -= falls[:-1]
        m = events.size
        greater = np.empty(2 * m + 1, dtype=np.int64)
        greater[0] = np.count_nonzero(above[0])
        greater[2::2] = greater[0] + 2 * rises - (ends + 1)  # rises less falls so far
        greater[1::2] = greater[0:-1:2] - falls
        ties = np.zeros(2 * m + 1, dtype=np.int64)
        ties[1::2] = tied
        return events, greater, ties


_SIGNS = np.array([[1.0], [-1.0]])

# An optimal sorting network for six keys, twelve comparators in five
# layers, one layer a line (Knuth, TAOCP vol. 3, section 5.3.4).
_SORT6 = (
    (0, 5), (1, 3), (2, 4),
    (1, 2), (3, 4),
    (0, 3), (2, 5),
    (0, 1), (2, 3), (4, 5),
    (1, 2), (3, 4),
)


def _sort_columns(rows: np.ndarray) -> None:
    """Sort every column of a (6, n) array in place, one row pair at a time."""
    for i, j in _SORT6:
        low = np.minimum(rows[i], rows[j])
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i] = low


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


def null_slot_coordinates(rng: RandomStream, leverage: np.ndarray, d: int) -> np.ndarray:
    """Slot coordinates of uniform unit vectors in a ``d``-dim null space.

    Draw i is the coordinate, at a slot of hat-matrix diagonal
    ``leverage[i]``, of a uniform unit vector in the null space of Z'
    (``d >= 2``).  That slot's unit vector projects onto the null space with
    norm sqrt(1 - h), and one coordinate of a uniform unit d-vector is
    g / sqrt(g^2 + c) with g standard normal and c chi-square(d - 1).
    Consumes ``leverage.size`` normal then as many chi-square variates.
    """
    g = rng.gaussian(leverage.size)
    rest = rng.chisquare(d - 1, leverage.size)
    return np.sqrt(np.maximum(1.0 - leverage, 0.0)) * g / np.sqrt(g * g + rest)


class IidGaussPredictor(OnlinePredictor):
    """On-line conformal predictor under the combined IID/Gauss model."""

    def __init__(
        self,
        schedule: FeatureSchedule | None = None,
        rng: RandomStream | None = None,
        mc_samples: int = 1000,
    ):
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
        self.schedule = schedule or FeatureSchedule()
        self.mc_samples = int(mc_samples)
        self._rng = rng if rng is not None else RandomStream(0, substream=1)
        self.design = DesignState()
        # Leverages of the stored rows in their own design, while the chain
        # of Monte-Carlo steps that carries them is unbroken; and the staged
        # row with the leverages of its step, which ``observe`` adopts when it
        # stores that row.
        self._leverage: np.ndarray | None = None
        self._staged: tuple[np.ndarray, np.ndarray] | None = None

    def begin_step(self, x_new) -> IidGaussStepContext:
        design = self.design.with_row(x_new)  # full constraint design Z
        n, cols = design.shape
        raw = self.design.raw_moments()
        if n >= cols + 2:  # n >= K + 3
            ctx = self._cholesky_step(design, raw)
            if ctx is not None:
                return ctx
        return self._svd_step(design, raw)

    def _cholesky_step(self, design, raw) -> IidGaussStepContext | None:
        """Monte-Carlo step of a full-rank Z from one Cholesky factor Z'Z = LL'.

        Z'Z is the stored rows' raw moments plus z_n z_n', and its leading
        block, plus aI, is the ridge system.  With c0 = (Z'Z)^{-1} t0 and
        c1 = (Z'Z)^{-1} z_n the minimum-norm slice point is Z c0 + y Z c1, the
        new slot's leverage is h_n = z_n'c1 and, by Sherman-Morrison, each
        stored slot's leverage drops by (Z c1)_s^2 / (1 - h_n) from its value
        at the previous step.  The leverages are solved for afresh, as
        |L^{-1} z_s|^2, when that chain is broken or 1 - h_n is too small to
        divide by.  Returns None, leaving the step to the SVD, when Z is not
        clearly of full rank.
        """
        n, cols = design.shape
        zn = design[-1]
        gram = raw[:cols, :cols] + zn[:, None] * zn
        try:
            factor = cholesky_factor(gram, "design Gram matrix Z'Z")
        except NumericalError:
            return None
        if reciprocal_condition(factor) < _CHOLESKY_MIN_RCOND:
            return None
        t0, syy = raw[:-1, -1], raw[-1, -1]  # (sum y, sum y*x) and sum y^2
        coef = cholesky_solve(factor, np.column_stack((t0, zn)))
        c0, c1 = coef.T
        h_n = float(zn @ c1)
        rad2 = (1.0 - h_n, -2.0 * float(t0 @ c1), syy - float(t0 @ c0))
        fitted = design @ coef  # Z c0 and Z c1
        if self._leverage is not None and rad2[0] >= _MIN_CARRY_SLACK:
            leverage = np.append(self._leverage - fitted[:-1, 1] ** 2 / rad2[0], h_n)
        else:
            half = triangular_solve(factor, design.T)  # L^{-1} Z'
            leverage = np.einsum("ij,ij->j", half, half)
        self._staged = (zn[1:].copy(), leverage)
        ridged = self.schedule.features_used(n, cols - 1) + 1  # the ridge design's columns
        rmap = RidgeResidualMap(design[:, :ridged], gram[:ridged, :ridged], self.schedule.ridge)
        # the response (candidate slot zeroed), the candidate's unit vector and
        # the slice point's intercept and slope, through one projector solve
        cols4 = np.zeros((n, 4))
        cols4[:-1, 0] = self.design.y
        cols4[-1, 1] = 1.0
        cols4[:, 2:] = fitted
        res = rmap.apply(cols4)
        ctx = IidGaussStepContext(
            n=n, k=cols - 1, ea=(float(res[-1, 1]), float(res[-1, 0])), exact=False, rad2=rad2
        )
        self._draw(ctx, n - cols, leverage, res[:, 2], res[:, 3])
        return ctx

    def _svd_step(self, design, raw) -> IidGaussStepContext:
        """Any step from an SVD of Z, which also decides its rank."""
        n, cols = design.shape
        ys, t0, syy = self.design.y, raw[:-1, -1], raw[-1, -1]
        rmap, aff = ridge_lines(design, ys, self.schedule)
        ea = (float(aff.slopes[-1]), float(aff.intercepts[-1]))
        # While n <= K + 2 the slice has d <= 1 unless Z is rank-deficient.
        # The reduced left factor is square while n <= K + 1; at n = K + 2 it
        # lacks the null direction, and only that step asks for the full one.
        left, sing, right_t = np.linalg.svd(design, full_matrices=n == cols + 1)
        rank = int(np.sum(sing > RANK_RTOL * (sing[0] if sing.size else 0.0)))
        d = n - rank

        # Minimum-norm slice point as an affine function of the candidate y.
        inv_sing = np.zeros_like(sing)
        inv_sing[:rank] = 1.0 / sing[:rank]
        lead, right_t = left[:, : sing.size], right_t[: sing.size]
        v00 = lead @ (inv_sing * (right_t @ t0))
        v01 = lead @ (inv_sing * (right_t @ design[-1]))
        rad2 = (
            1.0 - float(v01 @ v01),
            -2.0 * float(v00 @ v01),
            syy - float(v00 @ v00),
        )
        ctx = IidGaussStepContext(n=n, k=cols - 1, ea=ea, exact=d <= 1, rad2=rad2)

        if ctx.exact:
            if d == 1:
                # The mirror point Y - 2(u'Y)u, u the null direction of Z'
                # (small n regime only), gives a second line per slot.
                u = left[:, rank]
                shift, past = 2.0 * rmap.apply(u), u[:-1] @ ys
                aff = AffineResiduals(
                    slopes=np.concatenate((aff.slopes - u[-1] * shift, aff.slopes)),
                    intercepts=np.concatenate((aff.intercepts - past * shift, aff.intercepts)),
                )
            ctx.atoms = IidStepContext(n=aff.slopes.size, residuals=aff)
        else:
            leverage = np.sum(left[:, :rank] ** 2, axis=1)
            self._draw(ctx, d, leverage, rmap.apply(v00), rmap.apply(v01))
        return ctx

    def _draw(self, ctx: IidGaussStepContext, d: int, leverage, ev_base, ev_slope) -> None:
        """The step's Monte-Carlo draws: a slot and its null-space coordinate each."""
        slots = self._rng.integers(0, ctx.n, self.mc_samples)
        ctx.slot_mix = null_slot_coordinates(self._rng, leverage[slots], d)
        ctx.slot_base = ev_base[slots]
        ctx.slot_slope = ev_slope[slots]

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
        informative = [ctx.n >= min(np.ceil(1.0 / eps), ctx.k + 3) for eps in levels]
        if not any(informative):
            return [PredictionRegion.real_line() for _ in levels]
        if ctx.exact:
            table = (*ctx.atoms.tables, ctx.atoms.n)
        else:
            table = (*ctx.crossings, self.mc_samples)
        kept = [eps for eps, use in zip(levels, informative) if use]
        regions = iter(super_level_sets(*table, kept, tau))
        return [next(regions) if use else PredictionRegion.real_line() for use in informative]

    def _pvalue(self, ctx: IidGaussStepContext, y: float, tau: float) -> float:
        if ctx.exact:
            return iid_pvalue(np.abs(ctx.atoms.residuals.at(float(y))), tau)
        y = float(y)
        c2, c1, c0 = ctx.rad2
        radius = math.sqrt(max(c2 * y * y + c1 * y + c0, 0.0))
        observed = abs(ctx.ea[0] * y + ctx.ea[1])
        scores = np.abs(ctx.slot_base + ctx.slot_slope * y + ctx.slot_mix * radius)
        greater = int(np.count_nonzero(scores > observed))
        ties = int(np.count_nonzero(scores == observed))
        return (greater + tau * ties) / self.mc_samples

    def observe(self, obs: Observation) -> None:
        staged, self._staged = self._staged, None
        self.design.append(obs.x, obs.y)
        # the staged step's leverages are the stored rows' only if it staged this row
        carried = staged is not None and np.array_equal(staged[0], obs.x)
        self._leverage = staged[1] if carried else None
