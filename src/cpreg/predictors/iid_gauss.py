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
  a finite set of atoms (n slots x at most 2 sphere points), enumerated
  exactly.  For n <= K + 1 the slice is a single point and the predictor
  provably coincides with the plain exchangeability predictor; Monte Carlo
  would only blur the atoms and (at tail candidates) destroy the n >= 1/eps
  informativeness threshold.
* d >= 2: genuine Monte Carlo over ``mc_samples`` draws, shared across
  every candidate y and every epsilon of the step (common random numbers
  keep the region boundaries well defined).  A draw
  needs only the slot-s coordinate of a uniform unit vector in the null
  space of Z', which has the law of sqrt(1 - h_ss) * g / sqrt(g^2 + c) with
  h_ss the leverage of slot s, g standard normal and c chi-square with
  d - 1 degrees of freedom; so a step costs a slot, a normal and a
  chi-square variate per draw rather than a projected n-vector.

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
the p-value there does.  Exact steps (d <= 1) compare atoms within a
relative tie tolerance, which has no exact crossing points, so they keep a
201-point grid over the observed response range, refine the two boundary
crossings by bisection and report the hull; the grid p-values are computed
once per (step, tau).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..design import DesignState
from ..linalg import RANK_RTOL
from ..randomness import RandomStream
from ..regions import Interval, PredictionRegion
from ..residuals import FeatureSchedule, RidgeResidualMap
from ..stream import Observation
from .base import OnlinePredictor, check_epsilon, check_tau

GRID_POINTS = 201
# Grid extent: observed response range +- this many ranges.
GRID_SPREADS = 3.0
# Bisection stops when the bracket is this fraction of the grid unit.
REFINE_RTOL = 1e-3
# Relative tolerance for structural score ties on the exact path.
TIE_RTOL = 1e-9


@dataclass
class IidGaussStepContext:
    n: int
    k: int  # number of explanatory columns
    ea: tuple[float, float]  # observed score |ea[0]*y + ea[1]|
    exact: bool
    # coefficients (c2, c1, c0) of the squared slice radius as a function of y
    rad2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # exact path: per-slot residual of the minimum-norm point, affine in y
    ev_base: np.ndarray | None = None
    ev_slope: np.ndarray | None = None
    null_dir: np.ndarray | None = None  # slot entries of the 1-D null direction
    # mc path: per-draw slot gathers
    slot_base: np.ndarray | None = None
    slot_slope: np.ndarray | None = None
    slot_mix: np.ndarray | None = None
    # (min, max) past response as of begin_step, the exact path's grid anchor
    y_range: tuple[float, float] = (0.0, 0.0)
    # exact path: grid p-values of the step, one array per tau
    sweeps: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def grid_unit(self) -> float:
        """Length scale of the grid, the unit of the bisection tolerance."""
        lo, hi = self.y_range
        return max(hi - lo, 1.0)

    @property
    def grid(self) -> tuple[float, float]:
        """Candidate grid extent of the exact path."""
        lo, hi = self.y_range
        return lo - GRID_SPREADS * self.grid_unit, hi + GRID_SPREADS * self.grid_unit

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
        zn = design[-1]

        rmap = RidgeResidualMap(xs, n, self.schedule)
        aff = rmap.affine_in_last(ys)
        ea = (float(aff.slopes[-1]), float(aff.intercepts[-1]))

        left, sing, right_t = np.linalg.svd(design, full_matrices=False)
        rank = int(np.sum(sing > RANK_RTOL * (sing[0] if sing.size else 0.0)))
        d = n - rank

        # Minimum-norm slice point as an affine function of the candidate y.
        inv_sing = np.zeros_like(sing)
        inv_sing[:rank] = 1.0 / sing[:rank]
        v00 = left @ (inv_sing * (right_t @ t0))
        v01 = left @ (inv_sing * (right_t @ zn))
        rad2 = (
            1.0 - float(v01 @ v01),
            -2.0 * float(v00 @ v01),
            syy - float(v00 @ v00),
        )
        ctx = IidGaussStepContext(
            n=n,
            k=k,
            ea=ea,
            exact=d <= 1,
            rad2=rad2,
            y_range=(float(ys.min()), float(ys.max())) if n > 1 else (0.0, 0.0),
        )

        if ctx.exact:
            ctx.ev_base = rmap.apply(v00)
            ctx.ev_slope = rmap.apply(v01)
            if d == 1:
                # Explicit null direction of Z' (small n regime only).
                full_left, _, _ = np.linalg.svd(design, full_matrices=True)
                ctx.null_dir = full_left[:, rank]
        else:
            ev_base, ev_slope = rmap.apply(v00), rmap.apply(v01)
            slots = self._rng.integers(0, n, self.mc_samples)
            leverage = np.sum(left[slots, :rank] ** 2, axis=1)
            ctx.slot_mix = null_slot_coordinates(self._rng, leverage, d)
            ctx.slot_base = ev_base[slots]
            ctx.slot_slope = ev_slope[slots]
        return ctx

    def _pvalues(self, ctx: IidGaussStepContext, ys: np.ndarray, tau: float) -> np.ndarray:
        """Conditional p-value (exact or Monte-Carlo) at each candidate y."""
        ys = np.asarray(ys, dtype=float)
        obs = np.abs(ctx.ea[0] * ys + ctx.ea[1])
        if ctx.exact:
            base = ctx.ev_base[:, None] + ctx.ev_slope[:, None] * ys[None, :]
            if ctx.null_dir is None:
                atoms = np.abs(base)
            else:
                shift = ctx.null_dir[:, None] * ctx.radius(ys)[None, :]
                atoms = np.concatenate((np.abs(base + shift), np.abs(base - shift)))
            tol = TIE_RTOL * np.maximum(1.0, obs)
            greater = np.sum(atoms > obs[None, :] + tol[None, :], axis=0)
            ties = np.sum(np.abs(atoms - obs[None, :]) <= tol[None, :], axis=0)
            return (greater + tau * ties) / atoms.shape[0]
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
        if not ctx.exact:
            return self._crossing_region(ctx, eps, tau)
        # Exact steps count atoms within a TIE_RTOL band, which has no exact
        # crossing points: search a grid and bisect the two boundaries.
        grid = np.linspace(ctx.grid[0], ctx.grid[1], GRID_POINTS)
        sweep = ctx.sweeps.get(tau)
        if sweep is None:
            sweep = ctx.sweeps[tau] = self._pvalues(ctx, grid, tau)
        keep = sweep > eps
        if not keep.any():
            return PredictionRegion.empty()
        if keep.all():
            return PredictionRegion.real_line()
        first = int(np.argmax(keep))
        last = len(keep) - 1 - int(np.argmax(keep[::-1]))
        xtol = REFINE_RTOL * ctx.grid_unit
        if first == 0:
            lo = -np.inf
        else:
            lo = self._refine(ctx, grid[first - 1], grid[first], eps, tau, xtol)
        if last == len(keep) - 1:
            hi = np.inf
        else:
            hi = self._refine(ctx, grid[last + 1], grid[last], eps, tau, xtol)
        if lo == hi:
            return PredictionRegion([Interval(lo, hi, True, True)])
        return PredictionRegion([Interval(lo, hi, not np.isinf(lo), not np.isinf(hi))])

    def _crossing_region(
        self, ctx: IidGaussStepContext, eps: float, tau: float
    ) -> PredictionRegion:
        """{y : p(y) > eps} of a Monte-Carlo step, one piece per kept run."""
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

    def _refine(
        self,
        ctx: IidGaussStepContext,
        outside: float,
        inside: float,
        eps: float,
        tau: float,
        xtol: float,
    ) -> float:
        while abs(inside - outside) > xtol:
            mid = 0.5 * (inside + outside)
            if self._pvalues(ctx, np.array([mid]), tau)[0] > eps:
                inside = mid
            else:
                outside = mid
        return inside

    def pvalue(self, ctx: IidGaussStepContext, y: float, tau: float) -> float:
        check_tau(tau)
        return float(self._pvalues(ctx, np.array([float(y)]), tau)[0])

    def observe(self, obs: Observation) -> None:
        self.design.append(obs.x, obs.y)
