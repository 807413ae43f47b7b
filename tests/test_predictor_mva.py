"""Cross-moment predictor: quadratic regions from the studentized residual gap."""

import math

import numpy as np
import pytest
import scipy.stats
from oracles import ridge_residual_affine

from cpreg import (
    MvaPredictor,
    NumericalError,
    Observation,
    PredictionRegion,
    RunConfig,
    open_solution_set,
    point,
    run_online,
    t_sf,
)


def feed(predictor, xs, ys):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    for x, y in zip(xs, ys):
        predictor.observe(Observation(x, float(y)))


def stat_from_history(xs, ys, x_new, y_new):
    """Recompute the statistic from raw histories via the residual sweep.

    The predictor itself only sees the cross-moment sums; this route rebuilds
    the full design every time.
    """
    res = ridge_residual_affine(xs, ys, x_new)
    e = res.at(y_new)
    rest, last = e[:-1], e[-1]
    n = e.size
    ss = float(((rest - rest.mean()) ** 2).sum())
    return math.sqrt((n - 1.0) * (n - 2.0) / n) * (last - rest.mean()) / math.sqrt(ss)


def test_open_solution_set_cases():
    # upward parabola with real roots: open interval between them
    region = open_solution_set(1.0, 0.0, -1.0, 0.0)
    piece, = region.pieces
    assert (piece.lo, piece.hi, piece.lo_closed, piece.hi_closed) == (-1.0, 1.0, False, False)
    assert region.contains(0.0) and not region.contains(1.0)
    # upward, no real roots (or a double root): empty either way
    assert open_solution_set(1.0, 0.0, 1.0, 0.0) == PredictionRegion.empty()
    assert open_solution_set(1.0, -2.0, 1.0, 0.0) == PredictionRegion.empty()
    # downward parabola: complement of the closed interval between the roots
    region = open_solution_set(-1.0, 0.0, 1.0, 0.0)
    assert len(region.pieces) == 2
    assert region.contains(-1.5) and region.contains(1.5)
    assert not region.contains(0.0) and not region.contains(1.0)
    # downward, no real roots: everything
    assert open_solution_set(-1.0, 0.0, -1.0, 0.0) == PredictionRegion.real_line()
    # downward double root: the line minus one point
    region = open_solution_set(-1.0, 2.0, -1.0, 0.0)
    assert not region.contains(1.0)
    assert region.contains(1.0 + 1e-9) and region.contains(1.0 - 1e-9)
    # linear pieces keep the correct side
    assert open_solution_set(0.0, 2.0, -4.0, 0.0).contains(1.9)
    assert not open_solution_set(0.0, 2.0, -4.0, 0.0).contains(2.1)
    assert open_solution_set(0.0, -2.0, -4.0, 0.0).contains(-1.9)
    assert not open_solution_set(0.0, -2.0, -4.0, 0.0).contains(-2.1)
    # constants
    assert open_solution_set(0.0, 0.0, -3.0, 0.0) == PredictionRegion.real_line()
    assert open_solution_set(0.0, 0.0, 2.0, 0.0) == PredictionRegion.empty()
    assert open_solution_set(0.0, 0.0, 0.0, 0.0) == PredictionRegion.empty()
    # the coefficients are in t = y - center, the region in y
    piece, = open_solution_set(1.0, 0.0, -1.0, 5.0).pieces
    assert (piece.lo, piece.hi, piece.lo_closed, piece.hi_closed) == (4.0, 6.0, False, False)
    low, high = open_solution_set(-1.0, 2.0, 3.0, -5.0).pieces
    assert (low.lo, low.hi, low.hi_closed) == (-np.inf, -6.0, False)
    assert (high.lo, high.hi, high.lo_closed) == (-2.0, np.inf, False)


def test_open_solution_set_roots_that_round_to_one_float():
    # the roots 1e12 -+ 1e-5 both round to 1e12, where the quadratic is -1e-10
    assert open_solution_set(1.0, 0.0, -1e-10, 1e12) == PredictionRegion([point(1e12)])
    # the roots 1e12 + 3e-5 -+ 1e-6 do too, and there it is +9e-10
    assert open_solution_set(1.0, -6e-5, 8.99e-10, 1e12) == PredictionRegion.empty()
    # a tiny but nonzero coefficient is a coefficient: no cutoff relative to the others
    piece, = open_solution_set(1e-20, 0.0, -1.0, 0.0).pieces
    assert (piece.lo, piece.hi) == (-1e10, 1e10)


def test_two_observations_are_not_informative():
    pred = MvaPredictor()
    ctx = pred.begin_step(np.array([1.0]))
    assert not ctx.informative
    assert pred.raw_region(ctx, 0.05, 1.0) == PredictionRegion.real_line()
    assert pred.pvalue(ctx, 3.3, 0.7) == 0.7
    pred.observe(Observation(np.array([1.0]), 2.0))
    ctx = pred.begin_step(np.array([0.0]))
    assert not ctx.informative
    pred.observe(Observation(np.array([0.0]), 1.0))
    assert pred.begin_step(np.array([2.0])).informative


def test_dummy_only_three_observations_closed_form():
    """Responses 1 and 2 with no explanatory variables at all.

    Every slot residual is y_i minus the same ridge mean, so the mean shift
    cancels from both the gap and the spread: the statistic reduces to
    2 (y - 3/2) / sqrt(3) with one degree of freedom, independent of the
    ridge constant.
    """
    pred = MvaPredictor()
    pred.observe(Observation(np.empty(0), 1.0))
    pred.observe(Observation(np.empty(0), 2.0))
    ctx = pred.begin_step(np.empty(0))
    assert ctx.informative and ctx.n == 3
    for y in (-2.0, 1.5, 4.25):
        stat = 2.0 * (y - 1.5) / math.sqrt(3.0)
        want = 1.0 - (2.0 / math.pi) * math.atan(abs(stat))  # Cauchy two-sided tail
        assert pred.pvalue(ctx, y, 1.0) == pytest.approx(want, rel=1e-10)
    # level 1/2: half-width (sqrt(3)/2) tan(pi/4)
    region = pred.raw_region(ctx, 0.5, 1.0)
    piece = region.pieces[0]
    assert piece.lo == pytest.approx(1.5 - math.sqrt(3.0) / 2.0, rel=1e-9)
    assert piece.hi == pytest.approx(1.5 + math.sqrt(3.0) / 2.0, rel=1e-9)
    assert not piece.lo_closed and not piece.hi_closed


def test_pvalue_matches_residual_sweep_route():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = rng.integers(3, 10)
        k = rng.integers(0, 3)
        xs = rng.normal(size=(m, k))
        ys = rng.normal(size=m) * 2.0 + 1.0
        x_new = rng.normal(size=k)
        pred = MvaPredictor()
        feed(pred, xs, ys) if k else [pred.observe(Observation(np.empty(0), y)) for y in ys]
        ctx = pred.begin_step(x_new)
        for y in (-2.0, 0.4, 3.1):
            stat = stat_from_history(xs, ys, x_new, y)
            want = 2.0 * t_sf(abs(stat), ctx.n - 2)
            assert pred.pvalue(ctx, y, 1.0) == pytest.approx(want, rel=1e-8)


def test_region_is_the_pvalue_super_level_set():
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(7, 1))
    ys = 1.0 + 2.0 * xs[:, 0] + 0.3 * rng.normal(size=7)
    pred = MvaPredictor()
    feed(pred, xs, ys)
    ctx = pred.begin_step(np.array([0.5]))
    grid = np.linspace(-50.0, 50.0, 10_001)
    for eps in (0.02, 0.1, 0.4):
        region = pred.raw_region(ctx, eps, 1.0)
        edges = [v for p in region.pieces for v in (p.lo, p.hi) if np.isfinite(v)]
        for y in grid:
            if edges and min(abs(y - e) for e in edges) < 1e-7:
                continue
            assert region.contains(y) == (pred.pvalue(ctx, y, 1.0) > eps), (eps, y)
    # nesting across levels, including the unbounded low-level shapes
    regions = [pred.raw_region(ctx, eps, 1.0) for eps in (0.001, 0.05, 0.2, 0.6)]
    for tight, loose in zip(regions[1:], regions):
        assert tight.issubset(loose)


def test_rotation_of_the_history_changes_nothing():
    # any orthogonal map fixing the all-ones vector preserves every stored sum
    rng = np.random.default_rng(99)
    m, k = 6, 2
    seed = np.column_stack((np.ones(m) / math.sqrt(m), rng.normal(size=(m, m - 1))))
    q_full, _ = np.linalg.qr(seed)
    inner = np.eye(m)
    inner[1:, 1:], _ = np.linalg.qr(rng.normal(size=(m - 1, m - 1)))
    rot = q_full @ inner @ q_full.T
    assert np.allclose(rot @ np.ones(m), np.ones(m), atol=1e-12)
    xs = rng.normal(size=(m, k))
    ys = rng.normal(size=m)
    x_new = rng.normal(size=k)
    a, b = MvaPredictor(), MvaPredictor()
    feed(a, xs, ys)
    feed(b, rot @ xs, rot @ ys)
    ca, cb = a.begin_step(x_new), b.begin_step(x_new)
    for y in (-3.0, 0.7, 4.0):
        assert a.pvalue(ca, y, 1.0) == pytest.approx(b.pvalue(cb, y, 1.0), rel=1e-8)
    for eps in (0.05, 0.2):
        ra, rb = a.raw_region(ca, eps, 1.0), b.raw_region(cb, eps, 1.0)
        assert len(ra.pieces) == len(rb.pieces)
        for pa, pb in zip(ra.pieces, rb.pieces):
            assert pa.lo == pytest.approx(pb.lo, rel=1e-7, abs=1e-9)
            assert pa.hi == pytest.approx(pb.hi, rel=1e-7, abs=1e-9)


def test_pvalue_is_uniform_under_the_model():
    # bivariate Gaussian pairs: the smoothed and plain p-values coincide and
    # should look U(0,1) across independent repetitions
    rng = np.random.default_rng(5151)
    reps, m = 2000, 10
    pvals = np.empty(reps)
    for r in range(reps):
        x = rng.normal(size=m + 1)
        y = 2.0 + 3.0 * x + 0.5 * rng.normal(size=m + 1)
        pred = MvaPredictor()
        feed(pred, x[:m], y[:m])
        ctx = pred.begin_step(np.array([x[m]]))
        pvals[r] = pred.pvalue(ctx, y[m], 1.0)
    assert scipy.stats.kstest(pvals, "uniform").pvalue > 1e-3


def test_dimension_bookkeeping():
    pred = MvaPredictor()
    pred.observe(Observation(np.array([1.0]), 0.0))
    with pytest.raises(ValueError):
        pred.observe(Observation(np.array([1.0, 2.0]), 0.0))
    with pytest.raises(ValueError):
        pred.begin_step(np.array([[1.0]]))
    pred.observe(Observation(np.array([2.0]), 1.0))
    with pytest.raises(ValueError):
        pred.begin_step(np.array([1.0, 2.0]))
    assert pred.design.count == 2


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowing_ridge_gram_is_refused_before_it_is_factored():
    # the new row's square overflows U'U at step 5; the ridge system's one
    # builder refuses it by name instead of factoring an infinite matrix
    stream = [Observation([0.1 * i], i) for i in range(4)] + [Observation([1e200], 1)]
    with pytest.raises(
        NumericalError, match=r"^mva step 5: ridge Gram matrix U'U has non-finite entries"
    ):
        run_online(RunConfig(predictor="mva"), stream)
