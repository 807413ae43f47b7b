"""Order-statistic predictor: exact two-sided rank intervals."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from oracles import exchangeability_identity

from cpreg import Observation, PredictionRegion, SyntheticSpec, WilksPredictor, generate


def feed(predictor, ys):
    for y in ys:
        predictor.observe(Observation(np.empty(0), float(y)))


def test_interval_and_level_small_cases():
    # at tau = 1 and eps = 2r/n the region is the open depth-r interval, and
    # its endpoints are where the p-value falls to the level 2r/n
    pred = WilksPredictor()
    feed(pred, range(1, 21))  # n = 21 at the next step
    ctx = pred.begin_step(np.empty(0))
    piece, = pred.raw_region(ctx, 2.0 / 21.0, 1.0).pieces
    assert (piece.lo, piece.hi, piece.lo_closed, piece.hi_closed) == (1.0, 20.0, False, False)
    assert pred.pvalue(ctx, 1.0, 1.0) == pred.pvalue(ctx, 20.0, 1.0) == pytest.approx(2.0 / 21.0)
    # deeper trim: third from each end
    piece, = pred.raw_region(ctx, 6.0 / 21.0, 1.0).pieces
    assert (piece.lo, piece.hi) == (3.0, 18.0)
    assert pred.pvalue(ctx, 3.0, 1.0) == pred.pvalue(ctx, 18.0, 1.0) == pytest.approx(6.0 / 21.0)
    pair = WilksPredictor()
    feed(pair, [4.0, -1.5])
    ctx_pair = pair.begin_step(np.empty(0))
    piece, = pair.raw_region(ctx_pair, 2.0 / 3.0, 1.0).pieces
    assert (piece.lo, piece.hi) == (-1.5, 4.0)
    # tied order statistics leave nothing strictly inside
    tied = WilksPredictor()
    feed(tied, [2.0, 2.0])
    assert tied.raw_region(tied.begin_step(np.empty(0)), 0.7, 1.0) == PredictionRegion.empty()


def test_raw_region_depth_mapping():
    pred = WilksPredictor()
    feed(pred, range(1, 21))  # n = 21 at the next step
    ctx = pred.begin_step(np.empty(0))
    # at eps = 2r/n the deterministic region is exactly the depth-r interval
    region = pred.raw_region(ctx, 6.0 / 21.0, 1.0)
    assert (region.pieces[0].lo, region.pieces[0].hi) == (3.0, 18.0)
    # the smoothed draw can only trim deeper, never widen
    region0 = pred.raw_region(ctx, 6.0 / 21.0, 0.0)
    assert (region0.pieces[0].lo, region0.pieces[0].hi) == (4.0, 17.0)
    assert region0.issubset(region)
    # level too small for even one trim: everything
    assert pred.raw_region(ctx, 0.05, 1.0) == PredictionRegion.real_line()
    # tiny sample at a huge level: the trim consumes the whole history
    small = WilksPredictor()
    feed(small, [1.0, 2.0])
    ctx_small = small.begin_step(np.empty(0))
    assert small.raw_region(ctx_small, 0.9, 0.0) == PredictionRegion.empty()


def test_pvalue_counting():
    pred = WilksPredictor()
    feed(pred, [3.0, 1.0, 4.0, 2.0])  # arrives unsorted
    ctx = pred.begin_step(np.empty(0))
    assert ctx.sorted_history == (1.0, 2.0, 3.0, 4.0)
    assert pred.pvalue(ctx, 2.5, 0.0) == pytest.approx(0.8)
    assert pred.pvalue(ctx, 2.5, 1.0) == 1.0  # clamped at one
    assert pred.pvalue(ctx, 0.0, 0.0) == 0.0
    assert pred.pvalue(ctx, 0.0, 0.5) == pytest.approx(0.2)
    assert pred.pvalue(ctx, 2.0, 0.25) == pytest.approx(2.0 * 1.25 / 5.0)


def test_region_is_the_pvalue_super_level_set():
    rng = np.random.default_rng(4)
    # a continuous history, and an integer one in which many responses tie
    for ys in (rng.normal(size=29), rng.integers(0, 4, 29).astype(float)):
        pred = WilksPredictor()
        feed(pred, ys)
        ctx = pred.begin_step(np.empty(0))
        probes = np.concatenate((ys, np.linspace(-3.5, 3.5, 211)))
        for eps in (0.1, 0.3, 0.62):
            for tau in (0.0, 0.4, 1.0):
                region = pred.raw_region(ctx, eps, tau)
                for y in probes:
                    assert region.contains(y) == (pred.pvalue(ctx, y, tau) > eps), (ys, eps, tau, y)


def test_step_context_is_a_snapshot():
    # responses observed after begin_step must not reach the step's answers
    pred = WilksPredictor()
    feed(pred, [0.5, -2.0, 3.0, 1.0, -0.25, 2.0, 0.0])
    ctx = pred.begin_step(np.empty(0))
    history = ctx.sorted_history
    probes = (-3.0, -2.0, 0.1, 1.0, 2.5, 4.0)
    pvalues = [pred.pvalue(ctx, y, 0.3) for y in probes]
    levels = [0.2, 0.3, 0.5, 0.8]
    regions = pred.raw_regions(ctx, levels, 0.0)
    feed(pred, [0.2, 0.3])
    assert ctx.sorted_history == history == (-2.0, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0)
    assert [pred.pvalue(ctx, y, 0.3) for y in probes] == pvalues
    assert pred.raw_regions(ctx, levels, 0.0) == regions
    assert pred.begin_step(np.empty(0)).n == ctx.n + 2


def test_smoothed_pvalue_is_uniform_under_continuity():
    rng = np.random.default_rng(2718)
    reps = 3000
    pvals = np.empty(reps)
    for r in range(reps):
        ys = rng.normal(size=8)
        pred = WilksPredictor()
        feed(pred, ys[:7])
        ctx = pred.begin_step(np.empty(0))
        pvals[r] = pred.pvalue(ctx, ys[7], rng.uniform())
    assert scipy.stats.kstest(pvals, "uniform").pvalue > 1e-3


def test_explanatory_variables_are_ignored():
    a, b = WilksPredictor(), WilksPredictor()
    ys = [0.3, -1.0, 2.2, 0.9]
    feed(a, ys)
    for y in ys:
        b.observe(Observation(np.array([y * 10.0, -y]), float(y)))
    ctx_a = a.begin_step(np.empty(0))
    ctx_b = b.begin_step(np.array([9.9, 9.9]))
    assert np.array_equal(ctx_a.sorted_history, ctx_b.sorted_history)
    assert a.raw_region(ctx_a, 0.5, 1.0) == b.raw_region(ctx_b, 0.5, 1.0)


def test_exchangeability_identity_holds_on_every_prefix_of_a_continuous_stream():
    # the average error probability over which slot comes last is eps exactly
    stream = generate(SyntheticSpec(k=2, n=40, seed=4))
    for n in range(5, 41):
        for eps in (Fraction("0.3"), Fraction("0.1"), Fraction("0.05")):
            assert exchangeability_identity(WilksPredictor, stream[:n], eps) == eps, (n, eps)
