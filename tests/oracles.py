"""Reference implementations that tests compare the library against.

None of these is on a library code path: they are the slow, direct
constructions (explicit solves, stacked arrays, one region piece per
probe, grid search plus bisection) that the optimized code must reproduce.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from cpreg import Observation, PredictionRegion
from cpreg.linalg import RANK_RTOL, NumericalError, _as_matrix, _as_vector, spd_solve
from cpreg.predictors.iid_gauss import GRID_POINTS, REFINE_RTOL
from cpreg.regions import Interval, point
from cpreg.studentt import t_upper_point

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]


def ridge_solve(design: Matrix, response: Vector, ridge: float) -> Vector:
    """Ridge coefficients ``(U'U + aI)^{-1} U'y`` via a Cholesky solve.

    Parameters
    ----------
    design : (l, m) matrix U.
    response : (l,) vector y.
    ridge : penalty a; must be > 0 (the regularized Gram is then SPD).
    """
    u = _as_matrix(design, "design")
    y = _as_vector(response, "response")
    if u.shape[0] != y.shape[0]:
        raise ValueError(f"design has {u.shape[0]} rows but response has {y.shape[0]}")
    if not ridge > 0.0:
        raise ValueError(f"ridge coefficient must be positive, got {ridge}")
    gram = u.T @ u
    gram[np.diag_indices_from(gram)] += ridge
    return spd_solve(gram, u.T @ y)


def least_squares(design: Matrix, response: Vector) -> Vector:
    """Ordinary least-squares coefficients of ``response`` on ``design``.

    Solved by QR (numpy ``lstsq``).  Raises :class:`NumericalError` when the
    design is rank deficient relative to :data:`RANK_RTOL`.
    """
    z = _as_matrix(design, "design")
    y = _as_vector(response, "response")
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"design has {z.shape[0]} rows but response has {y.shape[0]}")
    if z.shape[0] < z.shape[1]:
        raise NumericalError(
            f"need at least {z.shape[1]} rows for a unique fit, got {z.shape[0]}"
        )
    coef, _, rank, _ = np.linalg.lstsq(z, y, rcond=RANK_RTOL)
    if rank < z.shape[1]:
        raise NumericalError(f"design is rank deficient (rank {rank} < {z.shape[1]})")
    return coef


def residual_variance(design: Matrix, response: Vector, coef: Vector) -> float:
    """Unbiased residual variance of a fitted regression.

    With l rows and m columns this is ``||y - Z c||^2 / (l - m)``; the
    denominator must be positive, i.e. l >= m + 1.
    """
    z = _as_matrix(design, "design")
    y = _as_vector(response, "response")
    c = _as_vector(coef, "coef")
    dof = z.shape[0] - z.shape[1]
    if dof < 1:
        raise ValueError(
            f"need more than {z.shape[1]} rows to estimate the noise, got {z.shape[0]}"
        )
    resid = y - z @ c
    return float(resid @ resid) / dof


def leverage(design: Matrix, row: Vector) -> float:
    """Leverage ``z'(Z'Z)^{-1}z`` of a candidate row against a past design."""
    z = _as_matrix(design, "design")
    v = _as_vector(row, "row")
    if z.shape[1] != v.shape[0]:
        raise ValueError(f"row has length {v.shape[0]}, design has {z.shape[1]} columns")
    value = float(v @ spd_solve(z.T @ z, v))
    if value < 0.0:
        raise NumericalError(f"negative leverage {value}: design is ill conditioned")
    return value


def stream_arrays(stream: list[Observation]) -> tuple[Matrix, Vector]:
    """Stack a stream into an (n, K) feature matrix and an (n,) response."""
    xs = [obs.x for obs in stream]
    ys = [obs.y for obs in stream]
    if not xs:
        return np.empty((0, 0)), np.empty(0)
    return np.vstack(xs), np.asarray(ys, dtype=float)


def iid_per_probe_region(ctx, eps: float, tau: float) -> PredictionRegion:
    """The iid region as one piece per kept sweep probe, merged by the region.

    Probe layout of ``IidStepContext.sweep``: [left ray, crit_0, gap_01,
    crit_1, ..., crit_last, right ray], or one probe for the whole line.
    """
    ctx.sweep()
    keep = (ctx.greater + tau * ctx.ties) / ctx.n > eps
    crit = ctx.crit
    if crit.size == 0:
        return PredictionRegion.real_line() if keep[0] else PredictionRegion.empty()
    pieces: list[Interval] = []
    if keep[0]:
        pieces.append(Interval(-np.inf, crit[0], False, False))
    for j, t in enumerate(crit):
        if keep[1 + 2 * j]:
            pieces.append(point(t))
        if j + 1 < crit.size and keep[2 + 2 * j]:
            pieces.append(Interval(t, crit[j + 1], False, False))
    if keep[-1]:
        pieces.append(Interval(crit[-1], np.inf, False, False))
    return PredictionRegion(pieces)


def iidgauss_grid_region(pred, ctx, eps: float, tau: float) -> tuple[PredictionRegion, float]:
    """Hull of a Monte-Carlo iid-gauss region by grid search and bisection.

    The 201-point grid spans the classical interval's center +- 8 of its
    half-widths at level 0.05, and each boundary crossing between the
    outermost kept grid point and its outer neighbour is bisected to
    ``REFINE_RTOL`` half-widths.  A kept grid end becomes a +-inf endpoint.
    The classical interval comes from the squared slice radius
    c2*y^2 + c1*y + c0, which is the residual sum of squares of the fit
    including the candidate: its minimum -c1/(2*c2) is the classical center,
    its minimum value the past residual sum of squares, and 1/c2 is one
    plus the new row's leverage.  Returns the region and the half-width.
    """
    c2, c1, c0 = ctx.rad2
    center = -c1 / (2.0 * c2)
    rss = max(c0 - c1 * c1 / (4.0 * c2), 0.0)
    half = t_upper_point(0.025, ctx.n - ctx.k - 2) * np.sqrt(rss / (ctx.n - ctx.k - 2) / c2)
    grid = np.linspace(center - 8.0 * half, center + 8.0 * half, GRID_POINTS)
    keep = pred._pvalues(ctx, grid, tau) > eps
    if not keep.any():
        return PredictionRegion.empty(), half
    if keep.all():
        return PredictionRegion.real_line(), half

    def refine(outside: float, inside: float) -> float:
        while abs(inside - outside) > REFINE_RTOL * half:
            mid = 0.5 * (inside + outside)
            if pred.pvalue(ctx, mid, tau) > eps:
                inside = mid
            else:
                outside = mid
        return inside

    first = int(np.argmax(keep))
    last = GRID_POINTS - 1 - int(np.argmax(keep[::-1]))
    lo = -np.inf if first == 0 else refine(grid[first - 1], grid[first])
    hi = np.inf if last == GRID_POINTS - 1 else refine(grid[last + 1], grid[last])
    return PredictionRegion([Interval(lo, hi, bool(np.isfinite(lo)), bool(np.isfinite(hi)))]), half
