"""Gaussian-model predictor: studentized intervals from the running summary."""

import numpy as np
import pytest
from oracles import gauss_tstat, least_squares, leverage, residual_variance

from cpreg import (
    GaussPredictor,
    NumericalError,
    Observation,
    PredictionRegion,
    RunConfig,
    point,
    run_online,
    t_sf,
    t_upper_point,
)
from cpreg.predictors.gauss import _solve_centred


def feed(predictor, xs, ys):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    for x, y in zip(xs, ys):
        predictor.observe(Observation(x, float(y)))


def tstat_from_scratch(xs, ys, x_new, y_new):
    """Recompute the studentized prediction residual from the raw matrices.

    The predictor only ever sees the accumulated (Z'Z, Z'y, y'y) summary, so
    agreement with this QR-based route checks the summary bookkeeping.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    z_past = np.column_stack((np.ones(len(ys)), xs))
    z_new = np.concatenate(([1.0], np.atleast_1d(x_new)))
    coef = least_squares(z_past, ys)
    sig2 = residual_variance(z_past, ys, coef)
    lev = leverage(z_past, z_new)
    return (y_new - z_new @ coef) / np.sqrt(sig2 * (1.0 + lev))


def test_tstat_matches_raw_matrix_route():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.integers(5, 12)
        k = rng.integers(1, 3)
        xs = rng.normal(size=(m, k))
        ys = rng.normal(size=m) * 3.0 + 1.0
        x_new = rng.normal(size=k)
        y_new = float(rng.normal()) * 5.0
        pred = GaussPredictor()
        feed(pred, xs, ys)
        got = gauss_tstat(pred, x_new, y_new)
        want = tstat_from_scratch(xs, ys, x_new, y_new)
        assert got == pytest.approx(want, rel=1e-9)


def test_tstat_small_instance_by_hand():
    # five points on a noisy line, one explanatory variable
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ys = np.array([0.1, 0.9, 2.2, 2.8, 4.1])
    pred = GaussPredictor()
    feed(pred, xs, ys)
    ctx = pred.begin_step(np.array([2.0]))
    assert ctx.informative
    assert ctx.df == 3  # n=6 minus one feature minus two
    # statistic vanishes at the fitted value and is odd around it
    assert gauss_tstat(pred, np.array([2.0]), ctx.center) == pytest.approx(0.0, abs=1e-12)
    up = gauss_tstat(pred, np.array([2.0]), ctx.center + 0.7)
    down = gauss_tstat(pred, np.array([2.0]), ctx.center - 0.7)
    assert up == pytest.approx(-down, rel=1e-12)
    assert up == pytest.approx(tstat_from_scratch(xs, ys, 2.0, ctx.center + 0.7), rel=1e-9)


def test_uninformative_until_k_plus_3():
    # one feature: real line for the first three steps, interval from the fourth
    pred = GaussPredictor()
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.3, 1.1, 1.8, 3.4]
    for i in range(3):
        ctx = pred.begin_step(np.array([xs[i]]))
        assert not ctx.informative
        assert pred.raw_region(ctx, 0.05, 1.0) == PredictionRegion.real_line()
        assert pred.pvalue(ctx, ys[i], 1.0) == 1.0
        assert pred.pvalue(ctx, ys[i], 0.25) == 0.25
        pred.observe(Observation(np.array([xs[i]]), ys[i]))
    ctx = pred.begin_step(np.array([xs[3]]))
    assert ctx.informative
    region = pred.raw_region(ctx, 0.05, 1.0)
    assert region.is_bounded
    with pytest.raises(ValueError):
        gauss_tstat(GaussPredictor(), np.array([0.0]), 0.0)


def test_wide_design_predicts_real_line():
    # 100 features, 101 past observations: one short of any degrees of freedom
    rng = np.random.default_rng(11)
    pred = GaussPredictor()
    feed(pred, rng.normal(size=(101, 100)), rng.normal(size=101))
    ctx = pred.begin_step(rng.normal(size=100))
    assert ctx.n == 102
    assert not ctx.informative
    for eps in (0.005, 0.05, 0.5):
        assert pred.raw_region(ctx, eps, 1.0) == PredictionRegion.real_line()
    assert pred.pvalue(ctx, 0.0, 0.6) == 0.6


def test_exact_fit_collapses_to_a_point():
    pred = GaussPredictor()
    feed(pred, [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
    ctx = pred.begin_step(np.array([4.0]))
    assert ctx.informative
    assert ctx.scale == 0.0
    assert ctx.center == pytest.approx(4.0, abs=1e-9)
    for eps in (0.005, 0.05, 0.5):
        region = pred.raw_region(ctx, eps, 1.0)
        assert len(region.pieces) == 1
        piece = region.pieces[0]
        assert piece.lo == piece.hi == ctx.center
    assert pred.pvalue(ctx, ctx.center, 1.0) == 1.0
    assert pred.pvalue(ctx, ctx.center + 1e-6, 1.0) == 0.0
    with pytest.raises(NumericalError):
        gauss_tstat(pred, np.array([4.0]), 4.0)


def test_numerically_singular_co_moments_are_refused():
    # both matrices factor; the first's pivot ratio 1e-11 is below RANK_RTOL
    rhs = np.array([1.0, 1.0])
    with pytest.raises(NumericalError, match="numerically singular"):
        _solve_centred(np.diag([1.0, 1e-22]), rhs)
    assert np.allclose(_solve_centred(np.diag([1.0, 1e-18]), rhs), [1.0, 1e18])


def test_region_is_the_pvalue_super_level_set():
    rng = np.random.default_rng(23)
    xs = rng.normal(size=(8, 1))
    ys = 2.0 + 1.5 * xs[:, 0] + rng.normal(size=8)
    pred = GaussPredictor()
    feed(pred, xs, ys)
    ctx = pred.begin_step(np.array([0.4]))
    for eps in (0.02, 0.1, 0.3):
        region = pred.raw_region(ctx, eps, 1.0)
        lo, hi = region.pieces[0].lo, region.pieces[0].hi
        # open interval: endpoints have p-value exactly eps and are excluded
        assert pred.pvalue(ctx, lo, 1.0) == pytest.approx(eps, rel=1e-10)
        assert not region.contains(lo) and not region.contains(hi)
        for y in np.linspace(lo - 3.0, hi + 3.0, 97):
            if min(abs(y - lo), abs(y - hi)) < 1e-9:
                continue
            assert region.contains(y) == (pred.pvalue(ctx, y, 1.0) > eps)


def test_interval_geometry_and_nesting():
    rng = np.random.default_rng(3)
    pred = GaussPredictor()
    feed(pred, rng.normal(size=(10, 2)), rng.normal(size=10))
    ctx = pred.begin_step(np.array([0.2, -0.5]))
    widths = []
    for eps in (0.01, 0.05, 0.2, 0.5):
        region = pred.raw_region(ctx, eps, 1.0)
        piece = region.pieces[0]
        assert piece.lo + piece.hi == pytest.approx(2.0 * ctx.center, rel=1e-12)
        half = t_upper_point(eps / 2.0, ctx.df) * ctx.scale
        assert piece.hi - piece.lo == pytest.approx(2.0 * half, rel=1e-12)
        widths.append(piece.hi - piece.lo)
    assert widths == sorted(widths, reverse=True)
    # two-sided tail probability at a known offset
    t = 1.3
    y = ctx.center + t * ctx.scale
    assert pred.pvalue(ctx, y, 1.0) == pytest.approx(2.0 * t_sf(t, ctx.df), rel=1e-12)


def test_an_interval_below_the_float_spacing_is_its_center():
    # ys sit at 1e8 to within a float step: at step 21 the interval's
    # half-width at the widest level rounds away on both sides
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((40, 1))
    ys = 1e8 + 4e-9 * rng.standard_normal(40)
    stream = [Observation(x, float(y)) for x, y in zip(xs, ys)]
    levels = (0.05, 0.01, 0.005)
    ledger, _ = run_online(RunConfig(predictor="gauss", epsilons=levels, smoothed=False), stream)
    assert ledger.steps == 40
    pred = GaussPredictor()
    feed(pred, xs[:20], ys[:20])
    ctx = pred.begin_step(xs[20])
    assert ctx.center == 1e8 and 0.0 < ctx.scale < 1e-8
    raws = pred.raw_regions(ctx, levels, 1.0)
    assert raws[0] == PredictionRegion([point(ctx.center)])
    for eps, raw in zip(levels, raws):
        assert raw.contains(ys[20]) == (pred.pvalue(ctx, ys[20], 1.0) > eps), eps


def test_dimension_bookkeeping():
    pred = GaussPredictor()
    pred.observe(Observation(np.array([1.0, 2.0]), 0.5))
    with pytest.raises(ValueError):
        pred.observe(Observation(np.array([1.0]), 0.5))
    with pytest.raises(ValueError):
        pred.begin_step(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        pred.begin_step(np.eye(2))
    assert pred.design.count == 1
    assert pred.design.dim == 2


def test_observation_order_does_not_matter():
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(9, 2))
    ys = rng.normal(size=9)
    a, b = GaussPredictor(), GaussPredictor()
    feed(a, xs, ys)
    perm = rng.permutation(9)
    feed(b, xs[perm], ys[perm])
    ca = a.begin_step(np.array([0.3, 0.3]))
    cb = b.begin_step(np.array([0.3, 0.3]))
    assert ca.center == pytest.approx(cb.center, rel=1e-10)
    assert ca.scale == pytest.approx(cb.scale, rel=1e-10)


def test_no_features_gives_the_one_sample_prediction_interval():
    ys = np.array([1.0, 2.5, 0.5, 3.0, 2.0])
    pred = GaussPredictor()
    for y in ys:
        pred.observe(Observation(np.empty(0), y))
    ctx = pred.begin_step(np.empty(0))
    assert ctx.informative and ctx.df == 4
    assert ctx.center == pytest.approx(ys.mean(), rel=1e-12)
    assert ctx.scale == pytest.approx(ys.std(ddof=1) * np.sqrt(1.0 + 1.0 / ys.size), rel=1e-12)
