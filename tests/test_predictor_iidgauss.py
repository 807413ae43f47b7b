"""Joint exchangeability/Gaussian predictor: conditional atoms and Monte Carlo."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cpreg import (
    IidGaussPredictor,
    IidPredictor,
    Observation,
    PredictionRegion,
    RunConfig,
    SyntheticSpec,
    generate,
    make_predictor,
)
from cpreg.predictors.iid_gauss import REFINE_RTOL, null_slot_coordinates
from cpreg.randomness import RandomStream
from cpreg.regions import check_nested

from oracles import iidgauss_grid_region, iidgauss_sample_conditional


def feed(predictor, xs, ys):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    for x, y in zip(xs, ys):
        predictor.observe(Observation(x, float(y)))


def fresh(seed=1, substream=1, **kwargs) -> IidGaussPredictor:
    return IidGaussPredictor(rng=RandomStream(seed, substream=substream), **kwargs)


def test_mc_sample_count_validation():
    with pytest.raises(ValueError):
        IidGaussPredictor(mc_samples=0)
    with pytest.raises(ValueError):
        IidGaussPredictor(mc_samples=-5)


def test_summary_bookkeeping():
    rng = np.random.default_rng(14)
    xs = rng.normal(size=(6, 2))
    ys = rng.normal(size=6)
    pred = fresh()
    feed(pred, xs, ys)
    assert pred.count == 6
    assert np.array_equal(pred.design.x, xs)
    raw = pred.design.raw_moments()
    sy, sxy, syy = raw[0, -1], raw[1:-1, -1], raw[-1, -1]
    assert sy == pytest.approx(ys.sum(), rel=1e-12)
    assert sxy == pytest.approx(xs.T @ ys, rel=1e-12)
    assert syy == pytest.approx(ys @ ys, rel=1e-12)


def test_first_step_pvalue_is_pure_tie_breaking():
    pred = fresh()
    ctx = pred.begin_step(np.empty(0))
    for y in (-5.0, 0.0, 2.0):
        assert pred.pvalue(ctx, y, 0.37) == pytest.approx(0.37, rel=1e-12)
    assert pred.raw_region(ctx, 0.5, 1.0) == PredictionRegion.real_line()


def test_matches_plain_iid_predictor_while_slice_is_a_point():
    # with n <= K+1 the response sums pin the responses exactly, so the
    # conditional atoms are the plain exchangeability scores
    rng = np.random.default_rng(77)
    xs = rng.normal(size=(2, 2))
    ys = rng.normal(size=2)
    x_new = rng.normal(size=2)
    a, b = fresh(2), IidPredictor()
    feed(a, xs, ys)
    feed(b, xs, ys)
    ca, cb = a.begin_step(x_new), b.begin_step(x_new)
    assert ca.exact and ca.null_dir is None
    for y in (-3.0, 0.2, 4.4):
        for tau in (1.0, 0.41):
            assert a.pvalue(ca, y, tau) == pytest.approx(b.pvalue(cb, y, tau), rel=1e-12)


def test_slice_radius_matches_null_direction_projection():
    # one-dimensional slice: the actual response vector lies on it, so the
    # squared radius must equal the squared projection onto the null direction
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 1))
    ys = 1.0 + 2.0 * xs[:, 0] + 0.4 * rng.normal(size=2)
    x_new = rng.normal(size=1)
    pred = fresh(3)
    feed(pred, xs, ys)
    ctx = pred.begin_step(x_new)
    assert ctx.exact and ctx.null_dir is not None
    c2, c1, c0 = ctx.rad2
    u = ctx.null_dir
    for y in (-3.0, 0.0, 2.0, 5.5):
        rad2 = c2 * y * y + c1 * y + c0
        proj = (u[0] * ys[0] + u[1] * ys[1] + u[2] * y) ** 2
        assert rad2 == pytest.approx(proj, rel=1e-9, abs=1e-12)


def test_atomic_steps_are_uninformative_below_the_level_threshold():
    """Two past points, one feature: six conditional atoms, never more.

    Tail p-values of 1/6 could already bound the region at a level of 0.25,
    one step before a six-atom step can exist in the continuous regime, so
    the region is declared uninformative until n >= min(ceil(1/eps), K+3).
    The p-values themselves are reported as computed.
    """
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(2, 1))
    ys = 1.0 + 2.0 * xs[:, 0] + 0.4 * rng.normal(size=2)
    x_new = rng.normal(size=1)
    pred = fresh(5)
    feed(pred, xs, ys)
    ctx = pred.begin_step(x_new)
    assert ctx.n == 3 and ctx.exact
    for y in ctx.grid:  # both grid ends sit in the tails
        assert pred.pvalue(ctx, y, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    # ceil(1/eps) = 4 > n: forced to the real line although every atom
    # p-value on the grid is at most 1/3
    assert pred.raw_region(ctx, 0.25, 1.0) == PredictionRegion.real_line()
    assert pred.raw_region(ctx, 0.15, 1.0) == PredictionRegion.real_line()
    # ceil(1/eps) = 3 <= n: the atoms decide, and they reject everywhere
    assert pred.raw_region(ctx, 0.4, 1.0) == PredictionRegion.empty()


def test_exact_region_agrees_with_pvalue_threshold():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 1))
    ys = 1.0 + 2.0 * xs[:, 0] + 0.4 * rng.normal(size=2)
    x_new = rng.normal(size=1)
    pred = fresh(3)
    feed(pred, xs, ys)
    ctx = pred.begin_step(x_new)
    region = pred.raw_region(ctx, 0.4, 1.0)
    lo, hi = region.pieces[0].lo, region.pieces[0].hi
    assert np.isfinite(lo) and np.isfinite(hi)
    margin = 0.01 * ctx.grid_unit
    for y in np.linspace(ctx.grid[0], ctx.grid[1], 401):
        if min(abs(y - lo), abs(y - hi)) < margin:
            continue
        assert region.contains(y) == (pred.pvalue(ctx, y, 1.0) > 0.4), y


def test_conditional_sampler_respects_the_summary():
    pred = fresh(9)
    xs = np.arange(1.0, 6.0)[:, None]  # distinguishable rows
    ys = np.array([2.0, -1.0, 0.5, 3.0, 1.0])
    feed(pred, xs, ys)
    sy, sxy, syy = ys.sum(), xs.T @ ys, ys @ ys
    rng = RandomStream(21, substream=0)
    counts = np.zeros(5, dtype=int)
    for _ in range(300):
        xs_p, ys_p = iidgauss_sample_conditional(pred, rng)
        assert sorted(xs_p[:, 0]) == sorted(xs[:, 0])  # a permutation of the bag
        assert ys_p.sum() == pytest.approx(sy, abs=1e-9)
        assert (xs_p[:, 0] * ys_p).sum() == pytest.approx(sxy[0], abs=1e-9)
        assert ys_p @ ys_p == pytest.approx(syy, abs=1e-9)
        counts[int(xs_p[-1, 0]) - 1] += 1
    # every bag row should occupy the last slot a fair share of the time
    assert counts.min() > 30 and counts.max() < 95


def test_monte_carlo_coverage_under_the_model():
    data_rng = np.random.default_rng(2026)
    hits = 0
    reps = 200
    for r in range(reps):
        x = data_rng.normal(size=30)
        y = 1.0 + 2.0 * x + 0.7 * data_rng.normal(size=30)
        pred = IidGaussPredictor(rng=RandomStream(12, substream=r), mc_samples=2000)
        feed(pred, x[:29], y[:29])
        ctx = pred.begin_step(x[29:30])
        assert not ctx.exact  # genuine Monte-Carlo regime
        hits += pred.region(ctx, 0.1, 1.0).contains(y[29])
    assert 0.84 <= hits / reps <= 0.96


def test_common_random_numbers_make_steps_reproducible():
    data_rng = np.random.default_rng(55)
    x = data_rng.normal(size=12)
    y = 0.5 * x + data_rng.normal(size=12)

    def one_region(substream):
        pred = IidGaussPredictor(rng=RandomStream(8, substream=substream), mc_samples=400)
        feed(pred, x[:11], y[:11])
        ctx = pred.begin_step(x[11:12])
        return pred.raw_region(ctx, 0.1, 1.0)

    first, second = one_region(4), one_region(4)
    assert first.pieces == second.pieces
    other = one_region(5)
    assert first.pieces != other.pieces


def test_dimension_bookkeeping():
    pred = fresh()
    pred.observe(Observation(np.array([1.0]), 0.5))
    with pytest.raises(ValueError):
        pred.observe(Observation(np.array([1.0, 2.0]), 0.5))
    with pytest.raises(ValueError):
        pred.begin_step(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pred.begin_step(np.array([[1.0]]))
    with pytest.raises(ValueError):
        iidgauss_sample_conditional(fresh(), RandomStream(0, substream=0))


@pytest.mark.parametrize("n, k", [(5, 2), (12, 3), (40, 5)])
def test_slot_marginal_draws_match_projected_gaussians(n, k):
    # the slot coordinate of a uniform unit vector in the null space of Z',
    # drawn from its marginal law, against the full construction: project an
    # n-vector of Gaussians off the column space of Z and normalize
    draws = 20_000
    rng = np.random.default_rng(n)
    design = np.column_stack((np.ones(n), rng.normal(size=(n, k))))
    design[0, 1:] *= 4.0  # one high-leverage row
    left, sing, _ = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(sing > 1e-12 * sing[0]))
    assert n - rank >= 2
    basis = left[:, :rank]
    full = RandomStream(3, substream=n).gaussian_matrix(draws, n)
    full -= (full @ basis) @ basis.T
    full /= np.linalg.norm(full, axis=1)[:, None]
    marginal_rng = RandomStream(4, substream=n)
    for slot in (0, n - 1):
        leverage = np.full(draws, np.sum(basis[slot] ** 2))
        marginal = null_slot_coordinates(marginal_rng, leverage, n - rank)
        assert ks_2samp(marginal, full[:, slot]).pvalue > 1e-3, slot


def _stream(size, k, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(size, k))
    ys = 1.0 + xs @ np.arange(1.0, k + 1.0) + rng.normal(size=size)
    return xs, ys


@pytest.mark.parametrize("past", [3, 12])  # exact step (grid), Monte-Carlo step (crossings)
def test_grid_is_fixed_at_begin_step(past):
    xs, ys = _stream(past + 1, 2, 8)
    ys[-1] = 50.0  # widens the y-range and shifts the fit once observed
    levels = (0.3, 0.25)
    before, after = fresh(), fresh()
    feed(before, xs[:past], ys[:past])
    feed(after, xs[:past], ys[:past])
    ctx_before = before.begin_step(xs[past])
    grid, unit = ctx_before.grid, ctx_before.grid_unit
    regions = [before.raw_region(ctx_before, eps, 1.0) for eps in levels]
    ctx_after = after.begin_step(xs[past])
    after.observe(Observation(xs[past], ys[past]))
    assert ctx_after.exact == (past == 3)
    assert ctx_after.grid == grid
    assert ctx_after.grid_unit == unit
    assert [after.raw_region(ctx_after, eps, 1.0) for eps in levels] == regions
    if past == 12:
        assert all(r.is_bounded and not r.is_empty for r in regions)


@pytest.mark.parametrize("past", [3, 14])  # exact and Monte-Carlo steps
def test_region_does_not_depend_on_level_order(past):
    xs, ys = _stream(past + 1, 2, 9)
    levels = (0.3, 0.2, 0.1)

    def regions(order, tau):
        pred = fresh(6, mc_samples=300)
        feed(pred, xs[:past], ys[:past])
        ctx = pred.begin_step(xs[past])
        return {eps: pred.raw_region(ctx, eps, tau).pieces for eps in order}

    for tau in (1.0, 0.37):
        forward = regions(levels, tau)
        assert regions(levels[::-1], tau) == forward
        for eps in levels:
            assert regions((eps,), tau) == {eps: forward[eps]}
    # one context serves several taus without mixing their grid sweeps
    pred = fresh(6, mc_samples=300)
    feed(pred, xs[:past], ys[:past])
    ctx = pred.begin_step(xs[past])
    for tau in (1.0, 0.37):
        assert {eps: pred.raw_region(ctx, eps, tau).pieces for eps in levels} == regions(levels, tau)


def _monte_carlo_steps(k, size, seed, mc_samples=300):
    """(predictor, context) at every Monte-Carlo step of a synthetic stream."""
    pred = fresh(seed, mc_samples=mc_samples)
    for obs in generate(SyntheticSpec(k=k, n=size, seed=seed)):
        ctx = pred.begin_step(obs.x)
        if not ctx.exact:
            yield pred, ctx
        pred.observe(obs)


def _inside(region, ys):
    """Membership of points that are not region endpoints."""
    lo = np.array([p.lo for p in region.pieces])
    hi = np.array([p.hi for p in region.pieces])
    return np.any((ys[:, None] > lo) & (ys[:, None] < hi), axis=1)


def _away_from_ends(region, ys):
    """Mask of the points farther than 1e-9 relative from every finite endpoint."""
    ends = np.array([e for p in region.pieces for e in (p.lo, p.hi) if np.isfinite(e)])
    if not ends.size:
        return np.ones(ys.size, dtype=bool)
    gap = np.abs(ys[:, None] - ends[None, :])
    return ~np.any(gap <= 1e-9 * np.maximum(1.0, np.abs(ends)), axis=1)


def _segment_points(events):
    """One point inside every open segment between events, rays included."""
    spread = max(np.ptp(events), 1.0)
    return np.concatenate(
        ([events[0] - spread], 0.5 * (events[:-1] + events[1:]), [events[-1] + spread])
    )


MC_STREAMS = pytest.mark.parametrize("k, size", [(3, 40), (20, 50)], ids=["k3", "k20"])
LEVELS = (0.3, 0.05, 0.01)


@MC_STREAMS
def test_monte_carlo_region_is_the_exact_pvalue_super_level_set(k, size):
    rng = np.random.default_rng(k)
    steps = 0
    for pred, ctx in _monte_carlo_steps(k, size, seed=4):
        steps += 1
        events, counts = ctx.crossings
        assert events.size and np.all(np.diff(events) > 0)
        mids = _segment_points(events)
        assert np.array_equal(counts / pred.mc_samples, pred._pvalues(ctx, mids, 1.0))
        probes = rng.uniform(mids[0], mids[-1], 200)
        for tau in (0.0, 0.37, 1.0):
            pmid = pred._pvalues(ctx, mids, tau)
            pprobe = np.array([pred.pvalue(ctx, y, tau) for y in probes])
            regions = {}
            for eps in LEVELS:
                raw = regions[eps] = pred.raw_region(ctx, eps, tau)
                far = _away_from_ends(raw, mids)
                assert np.array_equal(_inside(raw, mids[far]), pmid[far] > eps), (ctx.n, eps, tau)
                far = _away_from_ends(raw, probes)
                for y, p in zip(probes[far], pprobe[far]):
                    assert raw.contains(y) == (p > eps), (ctx.n, eps, tau, y)
                for piece in raw.pieces:  # closed exactly where the p-value clears the level
                    for end, closed in ((piece.lo, piece.lo_closed), (piece.hi, piece.hi_closed)):
                        if np.isfinite(end):
                            assert closed == (pred.pvalue(ctx, end, tau) > eps)
            assert check_nested(regions)
    assert steps >= size - k - 3


def test_noise_free_stream_counts_are_exact_outside_a_rounding_band():
    # y = 1 + x exactly: the past residual sum of squares is zero up to
    # rounding, so the slice radius vanishes at the fitted value, where draws
    # of the last slot tie with the observed score and the squared crossing
    # equations lose roots to rounding.  The counts must stay exact outside
    # a rounding-wide band around the fitted value.
    xs = np.random.default_rng(1).normal(size=(30, 1))
    pred = fresh(2, mc_samples=300)
    for x in xs:
        ctx = pred.begin_step(x)
        if not ctx.exact:
            events, counts = ctx.crossings
            mids = _segment_points(events)
            c2, c1, _ = ctx.rad2
            fit = -c1 / (2.0 * c2)
            far = np.abs(mids - fit) > 1e-6 * max(1.0, abs(fit))
            got = counts[far] / pred.mc_samples
            assert np.array_equal(got, pred._pvalues(ctx, mids[far], 1.0)), ctx.n
        pred.observe(Observation(x, 1.0 + x[0]))


@MC_STREAMS
def test_monte_carlo_hull_matches_the_grid_oracle(k, size):
    compared = 0
    for pred, ctx in _monte_carlo_steps(k, size, seed=5):
        for tau in (0.0, 0.37, 1.0):
            for eps in LEVELS:
                oracle, half = iidgauss_grid_region(pred, ctx, eps, tau)
                if oracle.is_empty or not oracle.is_bounded:
                    continue  # the kept grid is empty or touches a grid edge
                hull = pred.region(ctx, eps, tau)
                tol = REFINE_RTOL * half
                # the oracle's ends are kept points, so the exact hull covers them
                assert hull.inf <= oracle.inf and oracle.inf - hull.inf <= tol, (ctx.n, eps, tau)
                assert hull.sup >= oracle.sup and hull.sup - oracle.sup <= tol, (ctx.n, eps, tau)
                compared += 1
    assert compared >= 3 * (size - k - 3)


def test_monte_carlo_region_is_not_clipped_at_a_grid_edge():
    # step 26 of this run: the grid search kept a grid end and reported an
    # infinite endpoint; the exact region is bounded, about 51.5 wide
    stream = generate(SyntheticSpec(k=20, n=120, seed=3))
    pred = make_predictor(RunConfig(predictor="iid-gauss", smoothed=False, seed=3))
    for obs in stream[:25]:
        pred.begin_step(obs.x)
        pred.observe(obs)
    ctx = pred.begin_step(stream[25].x)
    assert not ctx.exact
    assert not iidgauss_grid_region(pred, ctx, 0.01, 1.0)[0].is_bounded
    region = pred.raw_region(ctx, 0.01, 1.0)
    assert region.is_bounded and not region.is_empty
    assert region.length == pytest.approx(51.5, rel=1e-2)
    beyond = region.length * np.geomspace(1e-9, 1e6, 200)
    for y in np.concatenate((region.inf - beyond, region.sup + beyond)):
        assert pred.pvalue(ctx, y, 1.0) <= 0.01, y
