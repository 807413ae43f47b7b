"""Exchangeability predictor: counting p-values and the critical-point sweep."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from oracles import iid_dense_tables, iid_per_probe_region, ridge_design, ridge_residual_affine

from cpreg import (
    AffineResiduals,
    FeatureSchedule,
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    Observation,
    PredictionRegion,
    RandomStream,
    RidgeResidualMap,
    RunConfig,
    SyntheticSpec,
    critical_points,
    generate,
    iid_pvalue,
    run_online,
)
from cpreg.design import DesignState
from cpreg.predictors.iid import PARALLEL_TOL, IidStepContext


def test_pvalue_counting_rules():
    # ties always include the last score itself
    assert iid_pvalue([1.0, 2.0, 3.0], 1.0) == pytest.approx(1.0 / 3.0)
    assert iid_pvalue([5.0, 5.0, 5.0, 5.0], 1.0) == 1.0
    assert iid_pvalue([5.0, 5.0, 5.0, 5.0], 0.25) == 0.25
    # one greater, one tie, tau = 0.5: (1 + 0.5*1)/4
    assert iid_pvalue([2.0, 1.0, 4.0, 3.0], 0.5) == pytest.approx(0.375)
    assert iid_pvalue([9.0], 1.0) == 1.0
    assert type(iid_pvalue([2.0, 1.0, 4.0, 3.0], 0.5)) is float
    with pytest.raises(ValueError):
        iid_pvalue([], 1.0)
    with pytest.raises(ValueError):
        iid_pvalue([1.0, 2.0], 1.5)


def feed(predictor, xs, ys):
    for x, y in zip(xs, ys):
        predictor.observe(Observation(np.atleast_1d(np.asarray(x, dtype=float)), float(y)))


def test_first_step_region_is_all_or_nothing():
    pred = IidPredictor()
    ctx = pred.begin_step(np.array([0.7]))
    # single score always ties itself: p = tau everywhere
    assert pred.pvalue(ctx, 123.4, 1.0) == 1.0
    assert pred.raw_region(ctx, 0.05, 1.0) == PredictionRegion.real_line()
    assert pred.raw_region(ctx, 0.05, 0.03) == PredictionRegion.empty()


def test_degenerate_point_region_survives():
    """With one stored zero response the two score lines cross only at 0.

    There the scores tie and the p-value jumps to 1, so at a level between
    1/2 and 1 the region is exactly the closed point {0}.
    """
    pred = IidPredictor()
    pred.observe(Observation(np.empty(0), 0.0))
    ctx = pred.begin_step(np.empty(0))
    assert pred.pvalue(ctx, 0.0, 1.0) == 1.0
    assert pred.pvalue(ctx, 5.0, 1.0) == 0.5
    region = pred.raw_region(ctx, 0.7, 1.0)
    assert len(region.pieces) == 1
    piece = region.pieces[0]
    assert piece.lo == piece.hi == pytest.approx(0.0, abs=1e-12)
    assert pred.raw_region(ctx, 0.3, 1.0) == PredictionRegion.real_line()


def test_critical_points_skip_parallel_lines():
    aff = ridge_residual_affine(np.empty((1, 0)), np.array([2.0]), np.empty(0), FeatureSchedule())
    pts = critical_points(aff)
    # slopes -100/201 and 101/201: both sign equations have solutions
    assert pts.size == 2
    direct = sorted(
        [
            (s * aff.intercepts[-1] - aff.intercepts[0]) / (aff.slopes[0] - s * aff.slopes[-1])
            for s in (1.0, -1.0)
        ]
    )
    assert pts == pytest.approx(direct, rel=1e-12)


def oracle_membership(xs, ys, x_new, y, eps, tau, sched):
    """From-scratch ridge recompute + direct counting, no shared code path."""
    n = len(ys) + 1
    stacked = np.vstack((np.asarray(xs, dtype=float), np.asarray(x_new, dtype=float)[None, :]))
    kd = sched.features_used(n, stacked.shape[1])
    design = np.column_stack((np.ones(n), stacked[:, :kd]))
    v = np.concatenate((ys, [y]))
    coef = np.linalg.solve(design.T @ design + sched.ridge * np.eye(kd + 1), design.T @ v)
    scores = np.abs(v - design @ coef)
    p = (np.sum(scores[:-1] > scores[-1]) + tau * (np.sum(scores[:-1] == scores[-1]) + 1)) / n
    return p > eps


def test_region_matches_dense_grid_oracle():
    rng = np.random.default_rng(100)
    sched = FeatureSchedule()
    for _ in range(30):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 3))
        xs = rng.standard_normal((n - 1, k))
        ys = rng.standard_normal(n - 1) * 3.0
        x_new = rng.standard_normal(k)
        eps = float(rng.uniform(0.05, 0.6))
        pred = IidPredictor(sched)
        feed(pred, xs, ys)
        ctx = pred.begin_step(x_new)
        region = pred.raw_region(ctx, eps, 1.0)
        endpoints = [b for piece in region.pieces for b in (piece.lo, piece.hi) if np.isfinite(b)]
        grid = np.linspace(-50.0, 50.0, 2001)
        for y in grid:
            if any(abs(y - e) < 1e-9 for e in endpoints):
                continue  # membership at the boundary is resolution-limited
            want = oracle_membership(xs, ys, x_new, float(y), eps, 1.0, sched)
            assert region.contains(float(y)) == want, (n, k, eps, y)


def test_pvalue_agrees_with_region_thresholding():
    rng = np.random.default_rng(55)
    pred = IidPredictor()
    feed(pred, rng.standard_normal((8, 2)), rng.standard_normal(8))
    ctx = pred.begin_step(rng.standard_normal(2))
    for eps in (0.1, 0.3, 0.6):
        region = pred.raw_region(ctx, eps, 1.0)
        endpoints = [b for piece in region.pieces for b in (piece.lo, piece.hi) if np.isfinite(b)]
        for y in np.linspace(-6, 6, 301):
            if any(abs(y - e) < 1e-9 for e in endpoints):
                continue
            assert (pred.pvalue(ctx, float(y), 1.0) > eps) == region.contains(float(y))


def test_nested_regions_across_levels():
    rng = np.random.default_rng(9)
    pred = IidPredictor()
    feed(pred, rng.standard_normal((25, 1)), rng.standard_normal(25))
    ctx = pred.begin_step(rng.standard_normal(1))
    r_wide = pred.raw_region(ctx, 0.01, 1.0)
    r_mid = pred.raw_region(ctx, 0.1, 1.0)
    r_narrow = pred.raw_region(ctx, 0.4, 1.0)
    assert r_narrow.issubset(r_mid) and r_mid.issubset(r_wide)
    # hulls preserve the nesting
    assert r_narrow.convex_hull().issubset(r_wide.convex_hull())


def test_bounded_needs_enough_observations():
    """A bounded region at level eps requires at least 1/eps observations."""
    rng = np.random.default_rng(77)
    pred = IidPredictor()
    xs, ys = rng.standard_normal((40, 1)), rng.standard_normal(40)
    for i in range(40):
        ctx = pred.begin_step(xs[i])
        region = pred.raw_region(ctx, 0.2, 1.0)
        n = i + 1
        if np.isfinite(region.convex_hull().length):
            assert n >= 5  # ceil(1/0.2)
        pred.observe(Observation(xs[i], float(ys[i])))


def test_observe_rejects_dimension_change():
    pred = IidPredictor()
    pred.observe(Observation(np.array([1.0, 2.0]), 0.0))
    with pytest.raises(ValueError):
        pred.observe(Observation(np.array([1.0]), 0.0))


def tie_heavy_stream(n=40):
    """Three distinct x rows and two y values: repeated residual lines give
    merged critical points and isolated closed points in the regions."""
    rng = np.random.default_rng(1)
    rows = rng.integers(-1, 2, (3, 2)).astype(float)
    xs = rows[rng.integers(0, 3, n)]
    ys = rng.integers(0, 2, n).astype(float)
    return [Observation(xs[i], float(ys[i])) for i in range(n)]


def run_digest(config, stream):
    """sha256 of a run's ledger and trace, every number as ``float.hex``."""
    ledger, trace = run_online(config, stream)
    h = hashlib.sha256()
    for eps in config.epsilons:
        for seq in (
            ledger.errors(eps),
            ledger.raw_errors(eps),
            ledger.widths(eps),
            ledger.medians(eps),
        ):
            h.update(" ".join(float(v).hex() for v in seq).encode() + b"\n")
    for seq in (trace.pvalues, trace.taus):
        h.update(" ".join(float(v).hex() for v in seq).encode() + b"\n")
    return h.hexdigest()


GOLDEN_RUNS = [
    (
        RunConfig(predictor="iid", smoothed=False, seed=0),
        lambda: generate(SyntheticSpec(k=20, n=120, seed=0)),
        "c6c80d19b49730c3baf690cfd0f95213a0b940c1994498b159968d716e6fef89",
    ),
    (
        RunConfig(predictor="iid", smoothed=True, seed=1),
        lambda: generate(SyntheticSpec(k=20, n=120, seed=1)),
        "59d316d9b27c3f316d0dc3db37157846ac02407828febf3c6c6e44451cb2bb80",
    ),
    (
        RunConfig(predictor="iid", epsilons=(0.3, 0.05, 0.01), smoothed=True, seed=2),
        tie_heavy_stream,
        "cb9728415a5a96c98ce2d5b5a70bb8e3a91cb4e9cb50de1b94227ebcd9e71ce0",
    ),
]


@pytest.mark.parametrize(
    "config, make_stream, digest",
    GOLDEN_RUNS,
    ids=["k20-seed0-deterministic", "k20-seed1-smoothed", "tie-heavy-smoothed"],
)
def test_golden_ledger_and_trace(config, make_stream, digest):
    """Ledgers and traces pinned bit for bit on three streams."""
    assert run_digest(config, make_stream()) == digest


def test_tie_heavy_stream_exercises_merges_and_points():
    pred = IidPredictor()
    merged = points = 0
    for obs in tie_heavy_stream():
        ctx = pred.begin_step(obs.x)
        b, c = ctx.residuals.slopes, ctx.residuals.intercepts
        crossing = [np.abs(b[:-1] - s * b[-1]) >= PARALLEL_TOL for s in (1.0, -1.0)]
        merged += sum(map(np.count_nonzero, crossing)) - critical_points(ctx.residuals).size
        for eps in (0.3, 0.05, 0.01):
            for tau in (0.0, 0.37, 1.0):
                region = pred.raw_region(ctx, eps, tau)
                points += sum(p.lo == p.hi for p in region.pieces)
        pred.observe(obs)
    assert merged > 0 and points > 0


def degenerate_point_steps():
    """The one-zero-response setup of test_degenerate_point_region_survives."""
    pred = IidPredictor()
    pred.observe(Observation(np.empty(0), 0.0))
    yield pred, pred.begin_step(np.empty(0))


def stream_steps(stream):
    pred = IidPredictor()
    for obs in stream:
        yield pred, pred.begin_step(obs.x)
        pred.observe(obs)


@pytest.mark.parametrize(
    "steps",
    [
        degenerate_point_steps,
        lambda: stream_steps(tie_heavy_stream()),
        lambda: stream_steps(generate(SyntheticSpec(k=3, n=60, seed=4))),
        lambda: stream_steps(generate(SyntheticSpec(k=20, n=40, seed=5))),
    ],
    ids=["degenerate-point", "tie-heavy", "k3", "k20-leading-block"],
)
def test_region_equals_per_probe_oracle(steps):
    for pred, ctx in steps():
        for eps in (0.3, 0.05, 0.01):
            for tau in (0.0, 0.37, 1.0):
                got = pred.raw_region(ctx, eps, tau)
                want = iid_per_probe_region(ctx, eps, tau)
                assert got == want, (ctx.n, eps, tau)


def assert_dense_tables(ctx):
    for got, want in zip(ctx.tables, iid_dense_tables(ctx.residuals)):
        assert got.dtype == want.dtype and np.array_equal(got, want), ctx.n


@pytest.mark.parametrize(
    "make_stream",
    [make_stream for _, make_stream, _ in GOLDEN_RUNS]
    + [
        lambda: generate(SyntheticSpec(k=3, n=60, seed=4)),
        lambda: generate(SyntheticSpec(k=2, n=210, seed=0)),
    ],
    ids=["k20-seed0", "k20-seed1", "tie-heavy", "k3", "k2-n210"],
)
def test_sweep_tables_equal_the_dense_oracle(make_stream):
    """The event sweep counts exactly what scoring every line at every probe does."""
    for _, ctx in stream_steps(make_stream()):
        assert_dense_tables(ctx)


def test_iidgauss_exact_step_tables_equal_the_dense_oracle():
    pred = IidGaussPredictor(rng=RandomStream(0, substream=1))
    slices = set()  # slice dimensions d of the exact steps
    for obs in generate(SyntheticSpec(k=20, n=120, seed=0)):
        ctx = pred.begin_step(obs.x)
        if ctx.exact:
            assert_dense_tables(ctx.atoms)
            slices.add(ctx.atoms.n // ctx.n - 1)
        pred.observe(obs)
    assert slices == {0, 1}


def test_sweep_tables_equal_the_dense_oracle_on_small_integer_lines():
    """Integer slopes and intercepts in -2..2 make every structural edge case
    common: lines equal to +-e_n, a line with both roots at one point, lines
    parallel to +-e_n, and steps without any critical point."""
    rng = np.random.default_rng(2009)
    seen = Counter()
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        b, c = rng.integers(-2, 3, (2, n)).astype(float)
        ctx = IidStepContext(n=n, residuals=AffineResiduals(slopes=b, intercepts=c))
        assert_dense_tables(ctx)
        bp, cp, bn, cn = b[:-1], c[:-1], b[-1], c[-1]
        copy = ((bp == bn) & (cp == cn)) | ((bp == -bn) & (cp == -cn))
        parallel = (np.abs(bp - bn) < PARALLEL_TOL) | (np.abs(bp + bn) < PARALLEL_TOL)
        # e_i and e_n vanish at the same point: both roots of line i are there
        double = (bp != bn) & (bp != -bn) & ((cn - cp) * (bp + bn) == (-cn - cp) * (bp - bn))
        seen["signed copy of e_n"] += bool(np.any(copy))
        seen["parallel, not a copy"] += bool(np.any(parallel & ~copy))
        seen["double root"] += bool(np.any(double))
        seen["no critical point"] += n > 1 and ctx.tables[0].size == 0
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


def test_iid_keeps_only_its_rows(monkeypatch):
    # no moment fold, no moments, and each step's design U is a view of the
    # row buffer rather than a stacked copy
    folds, designs = [], []
    fold, init = DesignState.append, RidgeResidualMap.__init__

    def spy_fold(state, x, y):
        folds.append(state)
        fold(state, x, y)

    def spy_init(rmap, design, gram, ridge):
        designs.append(design)
        init(rmap, design, gram, ridge)

    monkeypatch.setattr(DesignState, "append", spy_fold)
    monkeypatch.setattr(RidgeResidualMap, "__init__", spy_init)
    k, schedule = 20, FeatureSchedule()
    stream = generate(SyntheticSpec(k=k, n=40, seed=0))
    pred = IidPredictor(schedule)
    for n, obs in enumerate(stream, start=1):
        pred.begin_step(obs.x)
        design = designs[-1]
        assert np.shares_memory(design, pred.design.with_row(obs.x))
        assert design.strides == (8 * (k + 1), 8)  # the buffer's rows, read in place
        xs = np.array([o.x for o in stream[:n]])
        assert np.array_equal(design, ridge_design(xs, n, schedule))
        pred.observe(obs)
    assert folds == []
    assert not hasattr(pred.design, "comoment") and not hasattr(pred.design, "mean")
    # the spy does see the fold of a predictor that reads moments
    gauss = GaussPredictor()
    gauss.observe(stream[0])
    assert folds == [gauss.design]
