"""Exchangeability predictor: counting p-values and the critical-point sweep."""

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    exact_iid_pvalues,
    exchangeability_identity,
    iid_dense_tables,
    iid_per_probe_region,
    iid_pvalue,
    ridge_design,
    ridge_residual_affine,
)

from cpreg import (
    AffineResiduals,
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    Observation,
    PredictionRegion,
    RandomStream,
    RunConfig,
    SyntheticSpec,
    critical_points,
    generate,
    residuals,
    run_online,
)
from cpreg.design import DesignState
from cpreg.predictors.iid import PARALLEL_TOL, IidStepContext
from cpreg.residuals import DEFAULT_RIDGE, features_used


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
    aff = ridge_residual_affine(np.empty((1, 0)), np.array([2.0]), np.empty(0))
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


def oracle_membership(xs, ys, x_new, y, eps, tau):
    """From-scratch ridge recompute + direct counting, no shared code path."""
    n = len(ys) + 1
    stacked = np.vstack((np.asarray(xs, dtype=float), np.asarray(x_new, dtype=float)[None, :]))
    kd = features_used(n, stacked.shape[1])
    design = np.column_stack((np.ones(n), stacked[:, :kd]))
    v = np.concatenate((ys, [y]))
    coef = np.linalg.solve(design.T @ design + DEFAULT_RIDGE * np.eye(kd + 1), design.T @ v)
    scores = np.abs(v - design @ coef)
    p = (np.sum(scores[:-1] > scores[-1]) + tau * (np.sum(scores[:-1] == scores[-1]) + 1)) / n
    return p > eps


def test_region_matches_dense_grid_oracle():
    rng = np.random.default_rng(100)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 3))
        xs = rng.standard_normal((n - 1, k))
        ys = rng.standard_normal(n - 1) * 3.0
        x_new = rng.standard_normal(k)
        eps = float(rng.uniform(0.05, 0.6))
        pred = IidPredictor()
        feed(pred, xs, ys)
        ctx = pred.begin_step(x_new)
        region = pred.raw_region(ctx, eps, 1.0)
        endpoints = [b for piece in region.pieces for b in (piece.lo, piece.hi) if np.isfinite(b)]
        grid = np.linspace(-50.0, 50.0, 2001)
        for y in grid:
            if any(abs(y - e) < 1e-9 for e in endpoints):
                continue  # membership at the boundary is resolution-limited
            want = oracle_membership(xs, ys, x_new, float(y), eps, 1.0)
            assert region.contains(float(y)) == want, (n, k, eps, y)


def test_pvalue_agrees_with_region_thresholding():
    rng = np.random.default_rng(55)
    pred = IidPredictor()
    feed(pred, rng.standard_normal((8, 2)), rng.standard_normal(8))
    ctx = pred.begin_step(rng.standard_normal(2))
    for eps in (0.1, 0.3, 0.6):
        region = pred.raw_region(ctx, eps, 1.0)
        for y in np.linspace(-6, 6, 301):
            assert (pred.pvalue(ctx, float(y), 1.0) > eps) == region.contains(float(y))


@pytest.mark.parametrize(
    "make_stream",
    [
        lambda: tie_heavy_stream(),  # defined further down
        lambda: generate(SyntheticSpec(k=20, n=50, seed=4)),
        lambda: generate(SyntheticSpec(k=3, n=80, seed=0)),
    ],
    ids=["tie-heavy", "k20", "k3"],
)
def test_pvalue_agrees_with_region_thresholding_at_every_endpoint(make_stream):
    # an endpoint is a critical point, where the p-value counts the lines of
    # its group as ties, as the sweep does
    for pred, ctx in stream_steps(make_stream()):
        for tau in (0.0, 0.37, 1.0):
            for eps in (0.3, 0.1, 0.05):
                raw = pred.raw_region(ctx, eps, tau)
                ends = [e for p in raw.pieces for e in (p.lo, p.hi) if np.isfinite(e)]
                for end in ends:
                    assert raw.contains(end) == (pred.pvalue(ctx, end, tau) > eps), (ctx.n, eps, tau)


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


def integer_stream(size=80):
    """Integer features and responses with repeated rows (ROADMAP item 1)."""
    rng = np.random.default_rng(5)
    return [
        Observation(rng.integers(-2, 3, 1).astype(float), float(rng.integers(0, 3)))
        for _ in range(size)
    ]


def tie_heavy_stream(n=40):
    """Three distinct x rows and two y values: repeated residual lines give
    merged critical points, and closed points that are whole one-point
    regions.  iid's raw regions on it never have two pieces; for split
    regions use ``SyntheticSpec(k=1, n=60, seed=5)``."""
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
        "7c1b458647e0b9fdf79b6c392b2a36f6ba4a4142f7b13727162d8980973b020c",
    ),
]


# Every other predictor, deterministic (seed 0) and smoothed (seed 1), on the
# paper's n/K = 6 and on a stream with more features than steps (K >= n).
OTHER_DIGESTS = {
    ("gauss", 20, 120, False): "8422b7c7b157491dce4d0882ffb074f1f49ca4f74d114d02223326002c1f9d26",
    ("gauss", 20, 120, True): "0cced03c24875af7412134f04fdf8cd48c7caf9368e40aae0096491a1cab711c",
    ("gauss", 30, 25, False): "2013edead6ad40945868518979538e9330c171fea6ba2140784a9573c2b030c8",
    ("gauss", 30, 25, True): "7e77150a72856c1af5ee083b67df25adb643f4ff1be842feea1d4c7be800f978",
    ("mva", 20, 120, False): "9ce215a213e502eb438c3c8d0d0980103becd8dccb23f9c5a3d39538e2aedd8a",
    ("mva", 20, 120, True): "5ba5c91e76db84896d2540bcabbdbfb17688b72d9a3bce54a69d8dd7a5df8325",
    ("mva", 30, 25, False): "17b704237031db52d8620afd756a3598742e08f36f246b1e78b3406a5ce3c2ad",
    ("mva", 30, 25, True): "885ced84e15daf09474a59bf34e160e0910475ec07768ea41b5e3e6902364e73",
    ("iid-gauss", 20, 120, False): "550a28329fb085d5bf60ac13f217178717f413dc49015940f301490a1320e72b",
    ("iid-gauss", 20, 120, True): "df874eb66e0e9b13d1847da267b6c28f289f7a769deb02a979ad944e37f3ef27",
    ("iid-gauss", 30, 25, False): "08e3cbb1accb38b13a4ad45e7ce8e1c5c10406d32b7f605c5b95324c737adc38",
    ("iid-gauss", 30, 25, True): "cc7afc66099423db80ff15a16687683d8fea9be913a8dbb0b5b8a005ec2ad3f5",
    ("wilks", 20, 120, False): "5b619db21c6be89b0331263e16ac68afeae98f51052c80c60def3f0db3b5e9fa",
    ("wilks", 20, 120, True): "fd26cdb206fb5a1f0d62fc7ff4cb4e00f1422b749dd37ec563a0a5b00623b36e",
    ("wilks", 30, 25, False): "ac50e280019d16722031dcb4624b3868a85161e1bf81434064ef82d6c5bcae3d",
    ("wilks", 30, 25, True): "c15f5095b233c40ba446a0442d2aba0876b381d6653509b2fdc86bd4310fcde8",
}
OTHER_RUNS = [
    pytest.param(
        RunConfig(predictor=kind, smoothed=smoothed, seed=int(smoothed)),
        lambda k=k, n=n: generate(SyntheticSpec(k=k, n=n, seed=0)),
        digest,
        id=f"{kind}-k{k}-n{n}-{'smoothed' if smoothed else 'deterministic'}",
    )
    for (kind, k, n, smoothed), digest in OTHER_DIGESTS.items()
]


@pytest.mark.parametrize(
    "config, make_stream, digest",
    [
        pytest.param(*run, id=name)
        for run, name in zip(
            GOLDEN_RUNS, ["k20-seed0-deterministic", "k20-seed1-smoothed", "tie-heavy-smoothed"]
        )
    ]
    + OTHER_RUNS,
)
def test_golden_ledger_and_trace(config, make_stream, digest):
    """Ledgers and traces of every predictor pinned bit for bit."""
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
    """One level per call, and all levels in one call: there a level below
    tau/n keeps the real line without the table while the others use it."""
    levels = (0.3, 0.05, 0.01)
    for pred, ctx in steps():
        for tau in (0.0, 0.37, 1.0):
            together = pred.raw_regions(ctx, levels, tau)
            for eps, joint in zip(levels, together):
                want = iid_per_probe_region(ctx, eps, tau)
                assert joint == want, (ctx.n, eps, tau)
                assert pred.raw_region(ctx, eps, tau) == want, (ctx.n, eps, tau)


def test_region_builds_no_table_where_every_level_keeps_the_line():
    """p >= tau/n on every cell, so where tau/n exceeds every level the step
    never builds its table; at tau/n = eps (n = 20, eps = 0.05) it must."""
    levels = (0.3, 0.05, 0.01)
    built = []
    for pred, ctx in stream_steps(generate(SyntheticSpec(k=20, n=20, seed=5))):
        regions = pred.raw_regions(ctx, levels, 1.0)
        built.append("tables" in vars(ctx))  # the cached_property's slot
        if ctx.n <= 3:  # 1/n > 0.3
            assert regions == [PredictionRegion.real_line()] * 3
        elif ctx.n == 20:
            assert 1.0 / ctx.n == 0.05
            region = pred.raw_region(ctx, 0.05, 1.0)
            assert region == iid_per_probe_region(ctx, 0.05, 1.0)
            assert region != PredictionRegion.real_line()
    assert built == [n > 3 for n in range(1, 21)]


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
    # no moment fold, no moments, and each step's design U, as
    # ridge_residuals receives it, is a view of the row buffer rather than
    # a stacked copy
    folds, designs = [], []
    fold, project = DesignState.append, residuals.ridge_residuals

    def spy_fold(state, x, y):
        folds.append(state)
        fold(state, x, y)

    def spy_project(u, gram, ridge, *columns):
        designs.append(u)
        return project(u, gram, ridge, *columns)

    monkeypatch.setattr(DesignState, "append", spy_fold)
    monkeypatch.setattr(residuals, "ridge_residuals", spy_project)
    k = 20
    stream = generate(SyntheticSpec(k=k, n=40, seed=0))
    pred = IidPredictor()
    for n, obs in enumerate(stream, start=1):
        pred.begin_step(obs.x)
        design = designs[-1]
        assert np.shares_memory(design, pred.design.with_row(obs.x))
        assert design.strides == (8 * (k + 1), 8)  # the buffer's rows, read in place
        xs = np.array([o.x for o in stream[:n]])
        assert np.array_equal(design, ridge_design(xs, n))
        pred.observe(obs)
    assert folds == []
    assert not hasattr(pred.design, "comoment") and not hasattr(pred.design, "mean")
    # the spy does see the fold of a predictor that reads moments
    gauss = GaussPredictor()
    gauss.observe(stream[0])
    assert folds == [gauss.design]


IDENTITY_LEVELS = (Fraction("0.3"), Fraction("0.1"), Fraction("0.05"))


def test_exchangeability_identity_holds_on_every_prefix():
    # the average error probability over which slot comes last is eps exactly,
    # with ties as real arithmetic has them: repeated rows, at any response offset
    streams = {
        "continuous": generate(SyntheticSpec(k=2, n=40, seed=4)),
        "integer": integer_stream(),
        "tie-heavy": tie_heavy_stream(),
        "integer-y-offset-1e6": [Observation(obs.x, obs.y + 1e6) for obs in integer_stream()],
    }
    for name, stream in streams.items():
        for n in range(5, 41):
            for eps in IDENTITY_LEVELS:
                assert exchangeability_identity(IidPredictor, stream[:n], eps) == eps, (name, n, eps)


@pytest.mark.parametrize("make_stream", [integer_stream, tie_heavy_stream], ids=["integer", "tie-heavy"])
def test_realized_pvalues_count_ties_as_rational_arithmetic_does(make_stream):
    stream = make_stream()[:30]
    want = exact_iid_pvalues(stream)
    for n, ((pred, ctx), obs) in enumerate(zip(stream_steps(stream), stream), start=1):
        low, high = (pred.pvalue(ctx, obs.y, tau) * n for tau in (0.0, 1.0))
        assert (round(low), round(high - low)) == want[n - 1], n
