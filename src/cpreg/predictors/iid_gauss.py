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
radius, and the slot leverages h_ss.  From n = K + 3 on Z normally has
full rank, and one Cholesky factor Z'Z = LL' gives both: a single solve for
(Z'Z)^{-1} [t0, z_n] and h_ss = |L^{-1} z_s|^2 from one triangular solve.
Every other step takes an SVD of Z, which also decides its rank: the exact
steps, and the Monte-Carlo steps whose factor fails or whose estimated
condition is too poor to rule out a rank the SVD would cut (duplicated
columns, large feature offsets).

Regions.  On a Monte-Carlo step the estimated p-value is a step function
of the candidate y: it changes only where a draw's score
|a + b*y + m*r(y)| crosses the observed score |e0*y + e1|, with r(y) the
slice radius.  Squaring m*r(y) = +-(e0*y + e1) - a - b*y gives two
quadratics per draw, so at most four crossings; with the zeros of the two
right-hand sides (where rounding can hide a root) they are the draw's
candidates.  Each draw's score comparison is evaluated once inside every
gap between its sorted candidates, which drops the spurious roots that
squaring adds, and the flips of all draws, sorted and summed, give the
exact draw count on every open segment between crossings.  That sweep runs
once per step and serves every epsilon and tau; the region is the union of
the segments whose count clears the level, each finite endpoint closed when
the p-value there does.  Exact steps (d <= 1) sweep the critical points
of their residual lines as the exchangeability predictor does (the Ridge
Regression Confidence Machine): the observed line ties itself structurally,
not within a rounding band, and the region is exact as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrcon, dtrtrs

from ..design import DesignState
from ..linalg import RANK_RTOL, NumericalError, cholesky_factor, cholesky_solve
from ..randomness import RandomStream
from ..regions import Interval, PredictionRegion
from ..residuals import AffineResiduals, FeatureSchedule, RidgeResidualMap
from ..stream import Observation
from .base import OnlinePredictor, check_epsilon, check_tau
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

    def radius(self, ys: np.ndarray) -> np.ndarray:
        """Slice radius at each candidate y."""
        c2, c1, c0 = self.rad2
        return np.sqrt(np.maximum(c2 * ys * ys + c1 * ys + c0, 0.0))

    def draw_scores(self, ys: np.ndarray) -> np.ndarray:
        """Monte-Carlo scores: row i is draw i at ``ys`` (shape (P,) or (mc, P))."""
        return np.abs(
            self.slot_base[:, None]
            + self.slot_slope[:, None] * ys
            + self.slot_mix[:, None] * self.radius(ys)
        )

    @cached_property
    def crossings(self) -> tuple[np.ndarray, np.ndarray]:
        """Monte-Carlo step: sorted crossing points and the segment counts.

        Returns ``(events, counts)``: ``counts[j]`` is the number of draws
        whose score is at least the observed score on the open segment
        between ``events[j - 1]`` and ``events[j]`` (rays at both ends).
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
        candidates = []
        for sign in (1.0, -1.0):
            p, q = sign * e0 - b, sign * e1 - a
            candidates += _quadratic_roots(m2 * c2 - p * p, m2 * c1 - 2.0 * p * q, m2 * c0 - q * q)
            with np.errstate(divide="ignore", invalid="ignore"):
                candidates.append(-q / p)
        cand = np.column_stack(candidates)
        # Missing (NaN) or infinite candidates become one point right of every
        # root, so all rows have as many gaps; the extra ones lie on the right ray.
        found = np.isfinite(cand)
        top = cand[found].max(initial=0.0)
        cand[~found] = 2.0 * top + 1.0
        cand.sort(axis=1)
        # one probe inside each gap of each row, rays included
        probes = np.empty((cand.shape[0], cand.shape[1] + 1))
        probes[:, 0] = cand[:, 0] - (1.0 + np.abs(cand[:, 0]))
        probes[:, 1:-1] = 0.5 * (cand[:, :-1] + cand[:, 1:])
        probes[:, -1] = cand[:, -1] + (1.0 + np.abs(cand[:, -1]))
        above = self.draw_scores(probes) >= np.abs(e0 * probes + e1)
        flips = np.diff(above.astype(np.int8), axis=1)
        moved = flips != 0
        points, steps = cand[moved], flips[moved]
        order = np.argsort(points)
        base = np.count_nonzero(above[:, 0])
        points, counts = points[order], base + np.cumsum(steps[order])
        # of coinciding flips, the last carries the count of the segment after them
        last = np.ones(points.size, dtype=bool)
        last[:-1] = points[1:] != points[:-1]
        return points[last], np.concatenate(([base], counts[last]))


def _quadratic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of a*y^2 + b*y + c, NaN where there is none.

    Uses the cancellation-free pair q/a, c/q with q = -(b + sign(b) sqrt(D))/2,
    which also yields the single root of a linear (a = 0) equation.
    """
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        return q / a, c / q


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

    @property
    def count(self) -> int:
        return self.design.count

    def begin_step(self, x_new) -> IidGaussStepContext:
        xs = self.design.with_row(x_new)
        ys = self.design.y
        n, k = xs.shape
        design = np.column_stack((np.ones(n), xs))  # full constraint design Z
        raw = self.design.raw_moments()
        t0, syy = raw[:-1, -1], raw[-1, -1]  # (sum y, sum y*x) and sum y^2
        rmap = RidgeResidualMap(xs, n, self.schedule)
        if n >= k + 3:
            ctx = self._cholesky_step(design, ys, t0, syy, rmap)
            if ctx is not None:
                return ctx
        return self._svd_step(design, ys, t0, syy, rmap)

    def _cholesky_step(self, design, ys, t0, syy, rmap) -> IidGaussStepContext | None:
        """Monte-Carlo step of a full-rank Z from one Cholesky factor Z'Z = LL'.

        With c0 = (Z'Z)^{-1} t0 and c1 = (Z'Z)^{-1} z_n the minimum-norm slice
        point is Z c0 + y Z c1, and slot i's leverage is |L^{-1} z_i|^2.
        Returns None, leaving the step to the SVD, when Z is not clearly of
        full rank.
        """
        n, cols = design.shape
        try:
            factor = cholesky_factor(design.T @ design, "design Gram matrix Z'Z")
        except NumericalError:
            return None
        if dtrcon(factor, norm="1", uplo="L")[0] < _CHOLESKY_MIN_RCOND:
            return None
        zn = design[-1]
        c0, c1 = cholesky_solve(factor, np.column_stack((t0, zn))).T
        rad2 = (1.0 - float(zn @ c1), -2.0 * float(t0 @ c1), syy - float(t0 @ c0))
        half = dtrtrs(factor, design.T, lower=1)[0]  # L^{-1} Z'
        leverage = np.einsum("ij,ij->j", half, half)
        # the response (candidate slot zeroed), the candidate's unit vector and
        # the slice point's intercept and slope, through one projector solve
        cols4 = np.zeros((n, 4))
        cols4[:-1, 0] = ys
        cols4[-1, 1] = 1.0
        cols4[:, 2] = design @ c0
        cols4[:, 3] = design @ c1
        res = rmap.apply(cols4)
        ctx = IidGaussStepContext(
            n=n, k=cols - 1, ea=(float(res[-1, 1]), float(res[-1, 0])), exact=False, rad2=rad2
        )
        self._draw(ctx, n - cols, leverage, res[:, 2], res[:, 3])
        return ctx

    def _svd_step(self, design, ys, t0, syy, rmap) -> IidGaussStepContext:
        """Any step from an SVD of Z, which also decides its rank."""
        n, cols = design.shape
        aff = rmap.affine_in_last(ys)
        ea = (float(aff.slopes[-1]), float(aff.intercepts[-1]))
        # While n <= K + 2 the slice has d <= 1 unless Z is rank-deficient;
        # the full left factor is then small and holds the null direction.
        left, sing, right_t = np.linalg.svd(design, full_matrices=n <= cols + 1)
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

    def _pvalues(self, ctx: IidGaussStepContext, ys: np.ndarray, tau: float) -> np.ndarray:
        """Monte-Carlo p-value at each candidate y."""
        ys = np.asarray(ys, dtype=float)
        obs = np.abs(ctx.ea[0] * ys + ctx.ea[1])
        vals = ctx.draw_scores(ys)
        greater = np.sum(vals > obs[None, :], axis=0)
        ties = np.sum(vals == obs[None, :], axis=0)
        return (greater + tau * ties) / self.mc_samples

    def raw_region(self, ctx: IidGaussStepContext, eps: float, tau: float) -> PredictionRegion:
        check_epsilon(eps)
        check_tau(tau)
        # Degenerate-conditional convention: while the slice is atomic
        # (n <= k + 2) and the slot atoms alone cannot reach the level
        # (n < 1/eps), the step is declared non-informative.  Without this the
        # two-point slice at n = k + 2 can split one slot atom into a +-1 pair
        # and push a tail p-value to 1/(2n), bounding the region one step
        # before the continuous regime; the advertised threshold is
        # min(ceil(1/eps), k + 3).  The p-value trace is unaffected.
        if ctx.n < min(np.ceil(1.0 / eps), ctx.k + 3):
            return PredictionRegion.real_line()
        if ctx.exact:
            return ctx.atoms.region(eps, tau)
        # {y : p(y) > eps} of a Monte-Carlo step, one piece per kept run
        events, counts = ctx.crossings
        keep = counts / self.mc_samples > eps
        # segment j spans (bounds[j], bounds[j + 1])
        padded = np.concatenate(([False], keep, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        bounds = np.concatenate(([-np.inf], events, [np.inf]))
        lo, hi = bounds[edges[0::2]], bounds[edges[1::2]]
        ends = np.concatenate((lo, hi))
        closed = np.isfinite(ends)
        closed[closed] = self._pvalues(ctx, ends[closed], tau) > eps
        lo_closed, hi_closed = closed.reshape(2, -1).tolist()
        return PredictionRegion(map(Interval, lo.tolist(), hi.tolist(), lo_closed, hi_closed))

    def pvalue(self, ctx: IidGaussStepContext, y: float, tau: float) -> float:
        if ctx.exact:
            return iid_pvalue(np.abs(ctx.atoms.residuals.at(float(y))), tau)
        check_tau(tau)
        return float(self._pvalues(ctx, np.array([float(y)]), tau)[0])

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
