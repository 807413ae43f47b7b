"""Reference implementations that tests compare the library against.

None of these is on a library code path: they are the slow, direct
constructions (explicit solves, stacked arrays, one region piece per
probe, grid search plus bisection) that the optimized code must reproduce.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

from cpreg import (
    AffineResiduals,
    GaussPredictor,
    IidGaussPredictor,
    Observation,
    PredictionRegion,
    RandomStream,
    critical_points,
)
from cpreg.linalg import RANK_RTOL, NumericalError
from cpreg.predictors import check_tau
from cpreg.regions import Interval
from cpreg.residuals import DEFAULT_RIDGE, features_used
from cpreg.studentt import t_upper_point

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Relative slack allowed when the squared slice radius comes out negative
# through rounding.
RADIUS_RTOL = 1e-9
# Grid search of iidgauss_grid_region: grid size, and the bisection stop as
# a fraction of the classical half-width.
GRID_POINTS = 201
REFINE_RTOL = 1e-3
# Relative band of iid_dense_tables for score ties at a critical point,
# where exact ties are structurally expected but float noise perturbs them.
TIE_RTOL = 1e-9


def _as_matrix(a, name: str = "matrix") -> Matrix:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_vector(v, name: str = "vector") -> Vector:
    w = np.asarray(v, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains non-finite entries")
    return w


def spd_solve(gram: Matrix, rhs) -> Vector | Matrix:
    """Solve ``gram @ x = rhs`` for symmetric positive-definite ``gram``.

    Uses a Cholesky factorization; raises :class:`NumericalError` when the
    matrix is not numerically positive definite.
    """
    gram = _as_matrix(gram, "gram")
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix is not positive definite: {exc}") from exc
    diag = np.abs(np.diag(factor[0]))
    if diag.min() < RANK_RTOL * diag.max():
        raise NumericalError("matrix is numerically singular")
    return cho_solve(factor, np.asarray(rhs, dtype=float), check_finite=False)


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


def iid_pvalue(scores, tau: float) -> float:
    """p-value of the last score among all of them, ties by float equality.

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


def exact_iid_pvalues(stream: list[Observation], ridge: float = DEFAULT_RIDGE) -> list[tuple[int, int]]:
    """Greater and tied score counts of every step of an iid run, in rational arithmetic.

    Step n scores the ridge residuals of the first n observations, the last
    one observed, with U'U + aI and the residuals formed and solved in
    ``Fraction`` arithmetic and ``Fraction(ridge)`` exactly the float, so
    ties are decided as in real arithmetic; the p-value at tau is
    (greater + tau * ties) / n.  For small integer streams: n <= 30, K <= 2.
    """
    if len(stream) > 30 or stream[0].x.size > 2:
        raise ValueError("the rational oracle takes n <= 30 and K <= 2")
    if any(float(v) != int(v) for obs in stream for v in (*obs.x, obs.y)):
        raise ValueError("the rational oracle takes integer features and responses")
    a = Fraction(ridge)
    counts = []
    for n in range(1, len(stream) + 1):
        used = features_used(n, stream[0].x.size)
        rows = [[Fraction(1)] + [Fraction(int(v)) for v in obs.x[:used]] for obs in stream[:n]]
        ys = [Fraction(int(obs.y)) for obs in stream[:n]]
        cols = len(rows[0])
        # Gauss-Jordan on [U'U + aI | U'y]
        system = [
            [sum(r[i] * r[j] for r in rows) + (a if i == j else 0) for j in range(cols)]
            + [sum(r[i] * y for r, y in zip(rows, ys))]
            for i in range(cols)
        ]
        for i in range(cols):
            pivot = system[i][i]
            system[i] = [v / pivot for v in system[i]]
            for j in range(cols):
                if j != i:
                    factor = system[j][i]
                    system[j] = [v - factor * w for v, w in zip(system[j], system[i])]
        coef = [row[-1] for row in system]
        scores = [abs(y - sum(u * c for u, c in zip(r, coef))) for r, y in zip(rows, ys)]
        own = scores[-1]
        counts.append((sum(s > own for s in scores), sum(s == own for s in scores)))
    return counts


def iid_dense_tables(
    residuals: AffineResiduals,
) -> tuple[Vector, NDArray[np.int64], NDArray[np.int64]]:
    """``IidStepContext`` sweep tables by scoring every line at every probe.

    Probe layout: [left ray, crit_0, gap_01, crit_1, ..., crit_last,
    right ray], or a single probe at 0 when there are no critical points.
    Ties get the relative band ``TIE_RTOL`` only at the critical points;
    between them the comparison is exact.  Returns (crit, greater, ties),
    the observed line's tie with itself included.
    """
    crit = critical_points(residuals)
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
    scores = np.abs(np.multiply.outer(residuals.slopes, probes) + residuals.intercepts[:, None])
    own, rest = scores[-1], scores[:-1]
    greater = np.empty(2 * m + 1, dtype=np.int64)
    ties = np.empty(2 * m + 1, dtype=np.int64)
    greater[0::2] = np.count_nonzero(rest[:, : m + 1] > own[: m + 1], axis=0)
    ties[0::2] = np.count_nonzero(rest[:, : m + 1] == own[: m + 1], axis=0)
    own_crit = own[m + 1 :]
    tol = TIE_RTOL * np.maximum(1.0, own_crit)
    greater[1::2] = np.count_nonzero(rest[:, m + 1 :] > own_crit + tol, axis=0)
    ties[1::2] = np.count_nonzero(np.abs(rest[:, m + 1 :] - own_crit) <= tol, axis=0)
    return crit, greater, ties + 1


def iid_per_probe_region(ctx, eps: float, tau: float) -> PredictionRegion:
    """The iid region joined probe by probe: each run of kept sweep probes
    is one piece.

    Probe layout of ``IidStepContext.tables``: [left ray, crit_0, gap_01,
    crit_1, ..., crit_last, right ray], or one probe for the whole line.
    Odd probes are the closed critical points, even ones the open gaps.
    """
    crit, greater, ties = ctx.tables
    keep = (greater + tau * ties) / ctx.n > eps
    bounds = [-np.inf, *crit.tolist(), np.inf]
    pieces: list[Interval] = []
    start = None  # (lo, lo_closed) of the run being joined
    for i, kept in enumerate(keep):
        is_point = i % 2 == 1
        left = bounds[(i + 1) // 2]
        if kept and start is None:
            start = (left, is_point)
        elif not kept and start is not None:
            # the run ends open at a point probe, closed at the point before a gap
            pieces.append(Interval(start[0], left, start[1], not is_point))
            start = None
    if start is not None:
        pieces.append(Interval(start[0], np.inf, start[1], False))
    return PredictionRegion(pieces)


def iidgauss_draw_scores(ctx, ys) -> Matrix:
    """Monte-Carlo scores |a + b*u + m*r(u)| of an iid-gauss step, event-major.

    ``ys`` has shape (P, 1), one candidate per row, or (P, mc), one per
    draw; column i of the (P, mc) result is draw i.  u = y - center, and
    r(u) is the slice radius sqrt(c2*u*u + floor).
    """
    c2, center, floor = ctx.rad2
    us = ys - center
    radius = np.sqrt(c2 * us * us + floor)
    return np.abs(ctx.slot_base + ctx.slot_slope * us + ctx.slot_mix * radius)


def iidgauss_pvalues(ctx, ys, tau: float) -> Vector:
    """Monte-Carlo p-value of an iid-gauss step at every candidate in ``ys``,
    all draws scored at all candidates in one array.

    The observed score is one of mc + 1 exchangeable scores and ties itself:
    p = (greater + tau * (ties + 1)) / (mc + 1).
    """
    ys = np.asarray(ys, dtype=float)[:, None]
    obs = np.abs(ctx.ea[0] * (ys - ctx.rad2[1]) + ctx.ea[1])
    vals = iidgauss_draw_scores(ctx, ys)
    greater = np.count_nonzero(vals > obs, axis=1)
    ties = np.count_nonzero(vals == obs, axis=1)
    return (greater + tau * (ties + 1)) / (vals.shape[1] + 1)


def iidgauss_slot_draws(
    rng: RandomStream, leverage: Vector, lines: Matrix, mc: int, d: int
) -> tuple[Vector, Vector, Vector]:
    """The draws of an iid-gauss Monte-Carlo step, every slot value gathered per draw first.

    ``rng`` is a copy of the predictor's stream as it stood before
    ``begin_step``, ``leverage`` the step's n slot leverages, ``lines`` its
    (n, 2) slot residual lines (intercept, slope) and ``d >= 2`` the slice
    dimension.  Draws ``mc`` slots, then ``mc`` normal g and ``mc``
    chi-square(d - 1) variates c, and returns each draw's intercept, slope
    and null-space coordinate sqrt(max(1 - h, 0)) * g / sqrt(g^2 + c), h the
    leverage of its slot.
    """
    slots = rng.integers(0, leverage.size, mc)
    h = leverage[slots]
    g = rng.gaussian(mc)
    rest = rng.chisquare(d - 1, mc)
    mix = np.sqrt(np.maximum(1.0 - h, 0.0)) * g / np.sqrt(g * g + rest)
    return lines[slots, 0], lines[slots, 1], mix


_SIGNS = np.array([[1.0], [-1.0]])


def iidgauss_crossings(ctx) -> tuple[Vector, NDArray[np.int64], NDArray[np.int64]]:
    """``IidGaussStepContext.crossings`` by the array passes it was first built with.

    Every draw's six candidates (two roots of each squared crossing
    quadratic in u = y - center, and the zero of each right-hand side),
    taken to y, are sorted by ``np.sort``, its comparison is read at a
    probe inside every gap, taken back to u, the
    left state of each point is propagated across equal candidates to find
    the first flip of a draw there, and all flips are ordered by one
    argsort and summed per event by running sums of three flag rows.
    """
    a, b, m = ctx.slot_base, ctx.slot_slope, ctx.slot_mix
    e0, e1 = ctx.ea
    c2, center, floor = ctx.rad2
    m2 = m * m
    p = _SIGNS * e0 - b
    q = _SIGNS * e1 - a
    qa, qb, qc = m2 * c2 - p * p, -2.0 * p * q, m2 * floor - q * q
    disc = qb * qb - 4.0 * qa * qc
    with np.errstate(divide="ignore", invalid="ignore"):
        half = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        cand = np.concatenate((half / qa, qc / half, -q / p)) + center
    missing = ~np.isfinite(cand)
    top = np.max(cand, where=~missing, initial=0.0)
    np.copyto(cand, 2.0 * top + 1.0, where=missing)
    cand = np.sort(cand, axis=0)
    probes = np.empty((cand.shape[0] + 1, cand.shape[1]))
    probes[0] = cand[0] - (1.0 + np.abs(cand[0]))
    probes[1:-1] = (cand[:-1] + cand[1:]) * 0.5
    probes[-1] = cand[-1] + (1.0 + np.abs(cand[-1]))
    us = probes - center
    radius = np.sqrt(us * c2 * us + floor)
    above = np.abs(us * b + a + radius * m) >= np.abs(us * e0 + e1)
    flips = above[1:] != above[:-1]
    left = above[:-1].copy()
    same = cand[1:] == cand[:-1]
    for row in range(1, cand.shape[0]):
        np.copyto(left[row], left[row - 1], where=same[row - 1])
    first = flips & (left == above[:-1])
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
    greater[2::2] = greater[0] + 2 * rises - (ends + 1)
    greater[1::2] = greater[0:-1:2] - falls
    ties = np.zeros(2 * m + 1, dtype=np.int64)
    ties[1::2] = tied
    return events, greater, ties


def super_level_sets(points, greater, ties, denominator, levels, tau) -> list[PredictionRegion]:
    """``cpreg.regions.super_level_sets`` by array passes over every level.

    The kept cells of all levels are padded with a dropped cell on each
    side, every run edge is found at once, and the piece bounds are looked
    up in a copy of ``points`` padded with -inf and +inf.
    """
    pvalue = (greater + tau * ties) / denominator
    cells = pvalue.size
    keep = np.zeros((len(levels), cells + 2), dtype=bool)
    np.greater(pvalue, np.asarray(levels, dtype=float)[:, None], out=keep[:, 1:-1])
    row, cell = np.divmod(np.flatnonzero(keep[:, 1:] != keep[:, :-1]), cells + 1)
    first, last = cell[0::2], cell[1::2] - 1
    bounds = np.concatenate(([-np.inf], points, [np.inf]))
    lo, hi = bounds[(first + 1) // 2].tolist(), bounds[last // 2 + 1].tolist()
    lo_closed, hi_closed = (first % 2 == 1).tolist(), (last % 2 == 1).tolist()
    pieces = list(map(Interval, lo, hi, lo_closed, hi_closed))
    ends = np.cumsum(np.bincount(row[0::2], minlength=len(levels))).tolist()
    return [PredictionRegion(pieces[a:b]) for a, b in zip([0] + ends, ends)]


def iidgauss_grid_region(pred, ctx, eps: float, tau: float) -> tuple[PredictionRegion, float]:
    """Hull of a Monte-Carlo iid-gauss region by grid search and bisection.

    The 201-point grid spans the classical interval's center +- 8 of its
    half-widths at level 0.05, and each boundary crossing between the
    outermost kept grid point and its outer neighbour is bisected to
    ``REFINE_RTOL`` half-widths.  A kept grid end becomes a +-inf endpoint.
    The classical interval comes from the squared slice radius
    c2*(y - center)^2 + rss, which is the residual sum of squares of the fit
    including the candidate: its minimum lies at the classical center, its
    minimum value is the past residual sum of squares, and 1/c2 is one plus
    the new row's leverage.  Returns the region and the half-width.
    """
    c2, center, rss = ctx.rad2
    half = t_upper_point(0.025, ctx.n - ctx.k - 2) * np.sqrt(rss / (ctx.n - ctx.k - 2) / c2)
    grid = np.linspace(center - 8.0 * half, center + 8.0 * half, GRID_POINTS)
    keep = iidgauss_pvalues(ctx, grid, tau) > eps
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


def exact_rss(rows, ys) -> Fraction:
    """Residual sum of squares of the least-squares fit of ys on [1, rows], in exact arithmetic."""
    design = [[Fraction(1)] + [Fraction(v) for v in row] for row in rows]
    ys = [Fraction(v) for v in ys]
    cols = len(design[0])
    # the normal equations, augmented with Z'y, by Gauss-Jordan elimination
    system = [
        [sum(z[i] * z[j] for z in design) for j in range(cols)]
        + [sum(z[i] * y for z, y in zip(design, ys))]
        for i in range(cols)
    ]
    for i in range(cols):
        system[i] = [v / system[i][i] for v in system[i]]
        for r in range(cols):
            if r != i:
                system[r] = [v - system[r][i] * w for v, w in zip(system[r], system[i])]
    beta = [row[-1] for row in system]
    fitted = [sum(b * z for b, z in zip(beta, row)) for row in design]
    return sum((y - f) ** 2 for y, f in zip(ys, fitted))


def exchangeability_identity(factory, bag: list[Observation], eps) -> Fraction:
    """Average over slots of the smoothed error probability at ``eps``, exactly.

    Under exchangeability a smoothed conformal p-value has, for every bag,
    (1/n) * sum_s P_tau(p_s <= eps) = eps, with p_s the p-value of slot s
    when it comes last; this returns the left-hand side.  For each slot a
    fresh ``factory()`` predictor observes the rest of ``bag`` in order and
    scores slot s.  Its p-value must be (g_s + tau * t_s) / n with integer
    counts, which p(., 0) and p(., 1) give, and P_tau(p_s <= eps) is
    clip((eps * n - g_s) / t_s, 0, 1), summed in ``Fraction`` arithmetic.
    ``eps`` is taken exactly: pass ``Fraction("0.1")`` for the decimal level.
    """
    n, level = len(bag), Fraction(eps)
    total = Fraction(0)
    for s in range(n):
        pred = factory()
        for obs in bag[:s] + bag[s + 1 :]:
            pred.observe(obs)
        ctx = pred.begin_step(bag[s].x)
        low, high = (Fraction(pred.pvalue(ctx, bag[s].y, tau)) * n for tau in (0.0, 1.0))
        greater, tied = round(low), round(high - low)
        if abs(low - greater) > 1e-9 or abs(high - low - tied) > 1e-9 or tied < 1:
            raise ValueError(f"slot {s}: p-values {low / n}, {high / n} are not counts over {n}")
        total += min(max((level * n - greater) / tied, Fraction(0)), Fraction(1))
    return total / n


def running_median(values) -> float:
    """Median of ``values`` under the ledger's upper-median convention."""
    n = len(values)
    if n == 0:
        raise ValueError("median of an empty sequence")
    return sorted(values)[n // 2]


def t_density(x: float, df: float) -> float:
    """Student-t density at ``x``."""
    if not df > 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    ln = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1.0) * math.log1p(x * x / df)
    )
    return math.exp(ln)


def gauss_tstat(state: GaussPredictor, x_new, y_new: float) -> float:
    """Studentized prediction residual of (x_new, y_new) against the state.

    Requires n >= K + 3 counting the new pair and a positive residual scale;
    the value is t-distributed with n - K - 2 degrees of freedom under the
    Gaussian linear model.
    """
    ctx = state.begin_step(x_new)
    if not ctx.informative:
        raise ValueError(
            f"need at least {np.asarray(x_new).size + 2} past observations, have {state.design.count}"
        )
    if ctx.scale == 0.0:
        raise NumericalError("residual scale is zero (exact fit): statistic undefined")
    return (float(y_new) - ctx.center) / ctx.scale


def ridge_design(features: Matrix, step: int) -> Matrix:
    """The ridge design U of ``step``: a ones column stacked before its ``features_used`` columns."""
    features = np.asarray(features, dtype=float)
    used = features_used(step, features.shape[1])
    return np.column_stack((np.ones(features.shape[0]), features[:, :used]))


def ridge_residual_affine(
    x_history: Matrix, y_history: Vector, x_new: Vector, ridge: float = DEFAULT_RIDGE
) -> AffineResiduals:
    """Affine residual coefficients for history plus one new feature row."""
    x_history = np.asarray(x_history, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if x_history.ndim != 2:
        x_history = x_history.reshape(len(y_history), -1)
    rows = np.vstack([x_history, x_new[None, :]]) if x_history.shape[0] else x_new[None, :]
    step = rows.shape[0]
    rhs = np.zeros((step, 2))
    rhs[:-1, 0] = y_history
    rhs[-1, 1] = 1.0
    both = ridge_residuals_qr(ridge_design(rows, step), rhs, ridge)
    return AffineResiduals(slopes=both[:, 1], intercepts=both[:, 0])


def ridge_residuals_qr(design: Matrix, columns: Matrix, ridge: float = DEFAULT_RIDGE) -> Matrix:
    """``columns`` less their ridge fit on ``design`` U, with no normal equations.

    The ridge coefficients minimise |U c - v|^2 + a |c|^2, the least-squares
    problem of the augmented design [U; sqrt(a) I] against (v, 0), which
    ``np.linalg.lstsq`` solves from an SVD of that design (LAPACK's gelsd):
    it never forms U'U + aI, so it loses kappa(U) where the library's
    Cholesky solve loses kappa(U)^2.
    """
    cols = design.shape[1]
    augmented = np.vstack((design, math.sqrt(ridge) * np.eye(cols)))
    padded = np.vstack((columns, np.zeros((cols,) + columns.shape[1:])))
    coef = np.linalg.lstsq(augmented, padded, rcond=None)[0]
    return columns - design @ coef


def slice_geometry(constraints: Matrix, rhs: Vector) -> tuple[Vector, Matrix]:
    """Minimum-norm solution and null-space basis of ``Z'v = b``.

    Returns ``(v0, basis)`` where ``v0`` is the least-norm vector with
    ``Z'v0 = b`` and ``basis`` is an orthonormal (n, d) basis of the null
    space of ``Z'``; the solution set is ``{v0 + basis @ w}``.
    """
    z = _as_matrix(constraints, "constraints")
    b = _as_vector(rhs, "rhs")
    n, m = z.shape
    if b.shape[0] != m:
        raise ValueError(f"rhs has length {b.shape[0]}, expected {m}")
    # One full SVD Z = L S R' serves both needs: with v = L c the system
    # Z'v = b reads S c = R'b, so the least-norm solution uses the leading
    # singular directions and the null space of Z' is the remaining ones.
    left, sing, right_t = np.linalg.svd(z, full_matrices=True)
    cutoff = RANK_RTOL * (sing[0] if sing.size else 0.0)
    rank = int(np.sum(sing > cutoff))
    if rank == 0:
        v0 = np.zeros(n)
    else:
        v0 = left[:, :rank] @ ((right_t[:rank] @ b) / sing[:rank])
    residual = z.T @ v0 - b
    scale = max(1.0, float(np.linalg.norm(b)))
    if np.linalg.norm(residual) > 1e-8 * scale:
        raise ValueError("constraint system Z'v = b is inconsistent")
    return v0, left[:, rank:]


def sample_sphere_in_affine_slice(
    rng: RandomStream, constraints: Matrix, rhs: Vector, squared_norm: float
) -> Vector:
    """Uniform draw from ``{v : Z'v = b, v'v = squared_norm}``.

    The slice is parametrized isometrically as ``v0 + Q w`` with ``v0`` the
    least-norm solution and ``Q`` an orthonormal null-space basis, so a
    uniformly random direction on the ``d``-sphere of radius
    ``sqrt(squared_norm - ||v0||^2)`` maps to a uniform point on the slice.
    Raises ``ValueError`` if the constraints are inconsistent or the slice
    is empty (``squared_norm`` materially below ``||v0||^2``, or the null
    space is trivial while ``squared_norm`` differs from ``||v0||^2``).
    """
    v0, basis = slice_geometry(constraints, rhs)
    norm0 = float(v0 @ v0)
    scale = max(1.0, abs(squared_norm), norm0)
    r2 = squared_norm - norm0
    if r2 < -RADIUS_RTOL * scale:
        raise ValueError(f"empty slice: squared norm {squared_norm} below minimum {norm0}")
    r2 = max(r2, 0.0)
    d = basis.shape[1]
    if d == 0:
        if r2 > RADIUS_RTOL * scale:
            raise ValueError("empty slice: constraints pin a single point with the wrong norm")
        return v0
    direction = rng.gaussian(d)
    length = float(np.linalg.norm(direction))
    while length == 0.0:  # pragma: no cover - probability zero
        direction = rng.gaussian(d)
        length = float(np.linalg.norm(direction))
    return v0 + basis @ (direction * (np.sqrt(r2) / length))


def iidgauss_sample_conditional(state: IidGaussPredictor, rng: RandomStream) -> tuple[Matrix, Vector]:
    """Draw one synthetic data set consistent with the predictor's summary.

    Returns (x rows in permuted order, response vector): a uniformly random
    permutation of the x-bag and a uniform draw from the response
    sphere-slice pinned by (sum y, sum y*x, sum y^2) of the stored rows.
    """
    n = state.design.count
    if n < 1:
        raise ValueError("need at least one stored observation to sample")
    bag, ys = state.design.x, state.design.y
    rhs = np.concatenate(([ys.sum()], bag.T @ ys))
    xs = bag[np.argsort(rng.gaussian(n))]  # the order of iid draws: a uniform permutation
    constraints = np.column_stack((np.ones(n), xs))
    return xs, sample_sphere_in_affine_slice(rng, constraints, rhs, float(ys @ ys))
