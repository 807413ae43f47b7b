"""Joint exchangeability/Gaussian predictor: conditional atoms and Monte Carlo."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cpreg import (
    FeatureSchedule,
    IidGaussPredictor,
    IidPredictor,
    Observation,
    PredictionRegion,
    RidgeResidualMap,
    RunConfig,
    SyntheticSpec,
    generate,
    make_predictor,
)
from cpreg.predictors import iid_gauss
from cpreg.predictors.iid_gauss import null_slot_coordinates
from cpreg.randomness import RandomStream
from cpreg.regions import check_nested

from oracles import (
    REFINE_RTOL,
    TIE_RTOL,
    iidgauss_grid_region,
    iidgauss_sample_conditional,
    ridge_design,
    slice_geometry,
)


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
    assert pred.design.count == 6
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
    # conditional atoms are the plain exchangeability scores, line for line,
    # and the regions are that predictor's wherever n >= ceil(1/eps)
    a, b = fresh(2), IidPredictor()
    bounded = 0
    for obs in generate(SyntheticSpec(k=20, n=21, seed=0)):
        ca, cb = a.begin_step(obs.x), b.begin_step(obs.x)
        assert ca.exact and ca.atoms.n == ca.n  # one atom per slot: d = 0
        assert np.array_equal(ca.atoms.residuals.slopes, cb.residuals.slopes)
        assert np.array_equal(ca.atoms.residuals.intercepts, cb.residuals.intercepts)
        for y in (-3.0, 0.2, 4.4, obs.y):
            for tau in (1.0, 0.41):
                assert a.pvalue(ca, y, tau) == b.pvalue(cb, y, tau)
        for eps in (0.05, 0.2, 0.34):
            for tau in (1.0, 0.41, 0.0):
                got = a.raw_region(ca, eps, tau)
                if ca.n < np.ceil(1.0 / eps):
                    assert got == PredictionRegion.real_line()
                else:
                    assert got.pieces == b.raw_region(cb, eps, tau).pieces, (ca.n, eps, tau)
                    bounded += got.is_bounded
        a.observe(obs)
        b.observe(obs)
    assert bounded >= 20


def test_slice_radius_matches_null_direction_projection():
    # one-dimensional slice: the actual response vector Y lies on it, so the
    # squared radius must equal the squared projection onto the null direction
    # u of Z', and the slice's other point, whose residuals are the first n
    # atom lines, is the mirror Y - 2(u'Y)u
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 1))
    ys = 1.0 + 2.0 * xs[:, 0] + 0.4 * rng.normal(size=2)
    x_new = rng.normal(size=1)
    pred = fresh(3)
    feed(pred, xs, ys)
    ctx = pred.begin_step(x_new)
    assert ctx.exact and ctx.atoms.n == 2 * ctx.n
    rows = np.vstack((xs, x_new))
    u = np.linalg.svd(np.column_stack((np.ones(3), rows)))[0][:, -1]
    design = ridge_design(rows, 3, FeatureSchedule())
    residuals = RidgeResidualMap(design, design.T @ design, FeatureSchedule().ridge).apply
    c2, c1, c0 = ctx.rad2
    for y in (-3.0, 0.0, 2.0, 5.5):
        full = np.append(ys, y)
        proj = u @ full
        assert c2 * y * y + c1 * y + c0 == pytest.approx(proj**2, rel=1e-9, abs=1e-12)
        lines = ctx.atoms.residuals.at(y)
        assert lines[3:] == pytest.approx(residuals(full), rel=1e-12, abs=1e-12)
        assert lines[:3] == pytest.approx(residuals(full - 2.0 * proj * u), rel=1e-9, abs=1e-12)


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
    for y in (-1e3, 1e3):  # both tails
        assert pred.pvalue(ctx, y, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    # ceil(1/eps) = 4 > n: forced to the real line although both tails lie
    # below the level 0.25
    assert pred.raw_region(ctx, 0.25, 1.0) == PredictionRegion.real_line()
    assert pred.raw_region(ctx, 0.15, 1.0) == PredictionRegion.real_line()
    # ceil(1/eps) = 3 <= n: the atoms decide, and they keep one narrow pocket
    # (about 0.038 wide) where most atoms reach the observed score
    region = pred.raw_region(ctx, 0.4, 1.0)
    assert len(region.pieces) == 1 and region.is_bounded
    assert region.length == pytest.approx(0.038, abs=1e-3)
    assert pred.pvalue(ctx, 0.5 * (region.inf + region.sup), 1.0) > 0.4
    for y in (region.inf - 1e-6, region.sup + 1e-6, 0.0, 0.1):
        assert pred.pvalue(ctx, y, 1.0) <= 0.4, y


def test_exact_region_agrees_with_pvalue_threshold():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 1))
    ys = 1.0 + 2.0 * xs[:, 0] + 0.4 * rng.normal(size=2)
    x_new = rng.normal(size=1)
    pred = fresh(3)
    feed(pred, xs, ys)
    ctx = pred.begin_step(x_new)
    region = pred.raw_region(ctx, 0.4, 1.0)
    assert region.is_bounded and not region.is_empty
    width = region.sup - region.inf
    ys_probe = np.linspace(region.inf - 3.0 * width, region.sup + 3.0 * width, 401)
    for y in ys_probe[_away_from_ends(region, ys_probe)]:
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


@pytest.mark.parametrize("past", [3, 12])  # exact step (atom sweep), Monte-Carlo step (crossings)
def test_regions_are_fixed_at_begin_step(past):
    xs, ys = _stream(past + 1, 2, 8)
    ys[-1] = 50.0  # shifts the fit once observed
    levels = (0.3, 0.25)
    before, after = fresh(), fresh()
    feed(before, xs[:past], ys[:past])
    feed(after, xs[:past], ys[:past])
    ctx_before = before.begin_step(xs[past])
    regions = [before.raw_region(ctx_before, eps, 1.0) for eps in levels]
    ctx_after = after.begin_step(xs[past])
    after.observe(Observation(xs[past], ys[past]))
    assert ctx_after.exact == (past == 3)
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
    # one context serves several taus without mixing their counts
    pred = fresh(6, mc_samples=300)
    feed(pred, xs[:past], ys[:past])
    ctx = pred.begin_step(xs[past])
    for tau in (1.0, 0.37):
        assert {eps: pred.raw_region(ctx, eps, tau).pieces for eps in levels} == regions(levels, tau)


def _steps(k, size, seed, mc_samples=300):
    """(predictor, context) at every step of a synthetic stream."""
    pred = fresh(seed, mc_samples=mc_samples)
    for obs in generate(SyntheticSpec(k=k, n=size, seed=seed)):
        yield pred, pred.begin_step(obs.x)
        pred.observe(obs)


def _monte_carlo_steps(k, size, seed, mc_samples=300):
    """(predictor, context) at every Monte-Carlo step of a synthetic stream."""
    return ((pred, ctx) for pred, ctx in _steps(k, size, seed, mc_samples) if not ctx.exact)


def _deterministic_context(k, size, seed, step):
    """Predictor and context at ``step`` of a deterministic synthetic run."""
    stream = generate(SyntheticSpec(k=k, n=size, seed=seed))
    pred = make_predictor(RunConfig(predictor="iid-gauss", smoothed=False, seed=seed))
    for obs in stream[: step - 1]:
        pred.begin_step(obs.x)
        pred.observe(obs)
    return pred, pred.begin_step(stream[step - 1].x)


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


def _end_pvalue(pred, ctx, end, tau):
    """p-value at a region endpoint.

    An exact step's endpoints are critical points, where an atom line meets
    the observed one; it ties there, which the rounded crossing point only
    shows within the sweep's relative tie band.
    """
    if not ctx.exact:
        return pred.pvalue(ctx, end, tau)
    scores = np.abs(ctx.atoms.residuals.at(end))
    own, rest = scores[-1], scores[:-1]
    tol = TIE_RTOL * max(1.0, own)
    greater = np.count_nonzero(rest > own + tol)
    ties = np.count_nonzero(np.abs(rest - own) <= tol) + 1
    return (greater + tau * ties) / ctx.atoms.n


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
    # exact steps too: their events are the critical points of the atom lines
    rng = np.random.default_rng(k)
    steps = 0
    exact_slices = set()  # slice dimensions d of the exact steps checked
    for pred, ctx in _steps(k, size, seed=4):
        if ctx.exact:
            events = ctx.atoms.tables[0]
        else:
            steps += 1
            events, counts = ctx.crossings
            assert events.size
        assert np.all(np.diff(events) > 0)
        mids = _segment_points(events) if events.size else np.zeros(1)
        if not ctx.exact:
            assert np.array_equal(counts / pred.mc_samples, pred._pvalues(ctx, mids, 1.0))
        probes = rng.uniform(mids[0], mids[-1], 200)
        for tau in (0.0, 0.37, 1.0):
            if ctx.exact:
                pmid = np.array([pred.pvalue(ctx, y, tau) for y in mids])
            else:
                pmid = pred._pvalues(ctx, mids, tau)
            pprobe = np.array([pred.pvalue(ctx, y, tau) for y in probes])
            regions = {}
            for eps in LEVELS:
                raw = regions[eps] = pred.raw_region(ctx, eps, tau)
                if ctx.n < min(np.ceil(1.0 / eps), k + 3):  # declared non-informative
                    assert raw == PredictionRegion.real_line()
                    continue
                if ctx.exact:
                    exact_slices.add(ctx.atoms.n // ctx.n - 1)
                far = _away_from_ends(raw, mids)
                assert np.array_equal(_inside(raw, mids[far]), pmid[far] > eps), (ctx.n, eps, tau)
                far = _away_from_ends(raw, probes)
                for y, p in zip(probes[far], pprobe[far]):
                    assert raw.contains(y) == (p > eps), (ctx.n, eps, tau, y)
                for piece in raw.pieces:  # closed exactly where the p-value clears the level
                    for end, closed in ((piece.lo, piece.lo_closed), (piece.hi, piece.hi_closed)):
                        if np.isfinite(end):
                            assert closed == (_end_pvalue(pred, ctx, end, tau) > eps)
            assert check_nested(regions)
    assert steps >= size - k - 3
    assert exact_slices == {0, 1}


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
    pred, ctx = _deterministic_context(20, 120, 3, 26)
    assert not ctx.exact
    assert not iidgauss_grid_region(pred, ctx, 0.01, 1.0)[0].is_bounded
    region = pred.raw_region(ctx, 0.01, 1.0)
    assert region.is_bounded and not region.is_empty
    assert region.length == pytest.approx(51.5, rel=1e-2)
    beyond = region.length * np.geomspace(1e-9, 1e6, 200)
    for y in np.concatenate((region.inf - beyond, region.sup + beyond)):
        assert pred.pvalue(ctx, y, 1.0) <= 0.01, y


def test_exact_region_is_not_clipped():
    # step 8 of this run (d = 0): a grid over the observed response range
    # +- 3 ranges kept its left end and reported (-inf, 116.104], but
    # {y : p(y) > 0.3} is bounded
    pred, ctx = _deterministic_context(20, 120, 1, 8)
    assert ctx.exact
    region = pred.raw_region(ctx, 0.3, 1.0)
    assert region.is_bounded and not region.is_empty
    assert region.inf == pytest.approx(-17.055, abs=1e-3)
    assert region.sup == pytest.approx(116.121, abs=1e-3)
    beyond = region.length * np.geomspace(1e-9, 1e6, 200)
    for y in np.concatenate((region.inf - beyond, region.sup + beyond)):
        assert pred.pvalue(ctx, y, 1.0) <= 0.3, y
    assert ctx.atoms.n == ctx.n  # d = 0


def test_exact_step_keeps_the_self_atom():
    # step 5 of this run has a one-dimensional slice.  Near the minimum of the
    # slice radius sqrt(c2*y^2 + c1*y + c0) that square root loses about 2e-6
    # relative to cancellation, enough to push the observed score's own atom
    # out of any rounding-width tie band; as one of the atom lines it ties
    # structurally, and here no atom lies below the observed score
    pred, ctx = _deterministic_context(3, 80, 0, 5)
    assert ctx.exact
    assert pred.pvalue(ctx, 65.03785469044772, 1.0) == 1.0
    assert ctx.atoms.n == 2 * ctx.n  # d = 1


def _no_svd(*args, **kwargs):
    raise AssertionError("a full-rank Monte-Carlo step took an SVD")


def _monte_carlo_geometry(monkeypatch, stream, svd):
    """Every Monte-Carlo step's rows, raw moments, context, slots and leverages.

    ``svd`` stands in for ``np.linalg.svd`` during the Monte-Carlo steps'
    ``begin_step`` (a step with n >= K + 3 is one unless Z is rank-deficient).
    """
    pred = fresh(0, mc_samples=200)
    draws = {}
    coordinates, integers = iid_gauss.null_slot_coordinates, pred._rng.integers

    def spy_coordinates(rng, leverage, d):
        draws["leverage"] = leverage.copy()
        return coordinates(rng, leverage, d)

    def spy_integers(*args):
        draws["slots"] = integers(*args)
        return draws["slots"]

    monkeypatch.setattr(iid_gauss, "null_slot_coordinates", spy_coordinates)
    monkeypatch.setattr(pred._rng, "integers", spy_integers)
    steps = []
    for obs in stream:
        draws.clear()
        with monkeypatch.context() as m:
            if pred.design.count + 1 >= obs.x.size + 3:
                m.setattr(np.linalg, "svd", svd)
            ctx = pred.begin_step(obs.x)
        if not ctx.exact:
            xs, raw = pred.design.with_row(obs.x)[:, 1:].copy(), pred.design.raw_moments()
            steps.append((xs, raw, ctx, dict(draws)))
        pred.observe(obs)
    return steps


def _assert_matches_slice_geometry(steps, lines=True):
    """rad2, slot leverages and (``lines``) slot residual lines against the SVD oracle.

    The residual lines of an ill-conditioned ridge design amplify the rounding
    of the slice point, so they are compared on well-conditioned streams only.
    """
    for xs, raw, ctx, draws in steps:
        n = ctx.n
        design = np.column_stack((np.ones(n), xs))
        v00, basis = slice_geometry(design, raw[:-1, -1])  # slice point at y = 0
        v01, _ = slice_geometry(design, design[-1])  # its slope in y
        rad2 = (1.0 - v01 @ v01, -2.0 * (v00 @ v01), raw[-1, -1] - v00 @ v00)
        assert ctx.rad2 == pytest.approx(rad2, rel=1e-9), n
        slots = draws["slots"]
        leverage = 1.0 - np.sum(basis**2, axis=1)
        assert draws["leverage"] == pytest.approx(leverage[slots], rel=1e-9), n
        if not lines:
            continue
        ridged = ridge_design(xs, n, FeatureSchedule())
        project = RidgeResidualMap(ridged, ridged.T @ ridged, FeatureSchedule().ridge).apply
        base, slope = project(v00)[slots], project(v01)[slots]
        assert ctx.slot_base == pytest.approx(base, rel=1e-9, abs=1e-9 * np.abs(base).max()), n
        assert ctx.slot_slope == pytest.approx(slope, rel=1e-9, abs=1e-9 * np.abs(slope).max()), n


@pytest.mark.parametrize("k, size", [(20, 120), (2, 210)])
def test_full_rank_monte_carlo_steps_take_no_svd(monkeypatch, k, size):
    steps = _monte_carlo_geometry(monkeypatch, generate(SyntheticSpec(k=k, n=size, seed=0)), _no_svd)
    assert len(steps) == size - k - 2  # every step from n = K + 3 on
    _assert_matches_slice_geometry(steps)


@pytest.mark.parametrize("hostile", ["duplicated column", "x offset 1e6"])
def test_hostile_monte_carlo_steps_fall_back_to_the_svd(monkeypatch, hostile):
    base = generate(SyntheticSpec(k=3, n=60, seed=2))
    if hostile == "duplicated column":
        stream = [Observation(np.append(o.x, o.x[0]), o.y) for o in base]
    else:
        stream = [Observation(o.x + 1e6, o.y) for o in base]
    calls, svd = [], np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    steps = _monte_carlo_geometry(monkeypatch, stream, counting_svd)
    k = stream[0].x.size
    assert len(steps) >= len(stream) - k - 2
    assert len(calls) == len(stream) - k - 2  # one SVD on every step from n = K + 3 on
    _assert_matches_slice_geometry(steps, lines=False)


def _qr_leverages(rows):
    """Hat-matrix diagonal of Z = (1, rows), from a QR factorization of Z."""
    q = np.linalg.qr(np.column_stack((np.ones(len(rows)), rows)))[0]
    return np.sum(q * q, axis=1)


def _spy_leverage_solves(monkeypatch, pred):
    """Steps at which ``pred`` solves for its slot leverages with ``dtrtrs``."""
    steps, solve = [], iid_gauss.dtrtrs

    def spy(*args, **kwargs):
        steps.append(pred.design.count + 1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(iid_gauss, "dtrtrs", spy)
    return steps


def _assert_exact_leverages(pred):
    """The stored rows' carried leverages, if any, against the QR oracle."""
    if pred._leverage is not None:
        error = np.abs(pred._leverage - _qr_leverages(pred.design.x)).max()
        assert error <= 1e-13, (pred.design.count, error)


@pytest.mark.parametrize("k, size", [(2, 2000), (20, 300)])
def test_carried_leverages_match_a_qr_oracle(monkeypatch, k, size):
    pred = fresh(0, mc_samples=4)  # the leverages do not depend on the draws
    solves = _spy_leverage_solves(monkeypatch, pred)
    low_slack = []  # steps whose new slot has leverage above 1 - _MIN_CARRY_SLACK
    for obs in generate(SyntheticSpec(k=k, n=size, seed=0)):
        ctx = pred.begin_step(obs.x)
        if not ctx.exact and ctx.rad2[0] < iid_gauss._MIN_CARRY_SLACK:
            low_slack.append(ctx.n)
        pred.observe(obs)
        assert (pred._leverage is not None) == (pred.design.count >= k + 3)
        _assert_exact_leverages(pred)
    assert solves == [k + 3] + [n for n in low_slack if n > k + 3]


def _other_row(obs):
    return obs.x[::-1] + 1.0


def _break_by_dtrcon(monkeypatch, pred, obs):
    with monkeypatch.context() as m:
        m.setattr(iid_gauss, "dtrcon", lambda *args, **kwargs: (0.0, 0))
        assert not pred.begin_step(obs.x).exact  # a Monte-Carlo step, from the SVD
    pred.observe(obs)


def _break_by_failed_factor(monkeypatch, pred, obs):
    def fail(*args, **kwargs):
        raise iid_gauss.NumericalError("forced")

    with monkeypatch.context() as m:
        m.setattr(iid_gauss, "cholesky_factor", fail)
        pred.begin_step(obs.x)
    pred.observe(obs)


def _break_by_observing_another_row(monkeypatch, pred, obs):
    pred.begin_step(_other_row(obs))
    pred.observe(obs)


def _break_by_restaging_before_observe(monkeypatch, pred, obs):
    pred.begin_step(obs.x)
    pred.begin_step(_other_row(obs))
    pred.observe(obs)


def _break_by_an_outlying_row(monkeypatch, pred, obs):
    outlier = Observation(obs.x + 100.0, obs.y)
    ctx = pred.begin_step(outlier.x)
    assert ctx.rad2[0] < iid_gauss._MIN_CARRY_SLACK  # 1 - h_n: too small to divide by
    pred.observe(outlier)


@pytest.mark.parametrize(
    "disrupt",
    [
        _break_by_dtrcon,
        _break_by_failed_factor,
        _break_by_observing_another_row,
        _break_by_restaging_before_observe,
        _break_by_an_outlying_row,
    ],
    ids=["dtrcon", "failed-factor", "other-row-observed", "restaged", "outlier"],
)
def test_a_broken_leverage_chain_is_solved_afresh(monkeypatch, disrupt):
    k, at = 3, 20
    stream = generate(SyntheticSpec(k=k, n=40, seed=2))
    pred = fresh(0, mc_samples=4)
    solves = _spy_leverage_solves(monkeypatch, pred)
    for i, obs in enumerate(stream, start=1):
        if i == at:
            disrupt(monkeypatch, pred, obs)
            if disrupt is not _break_by_an_outlying_row:  # that step solved afresh already
                assert pred._leverage is None
        else:
            pred.begin_step(obs.x)
            pred.observe(obs)
        _assert_exact_leverages(pred)
    assert solves == [k + 3, at + (disrupt is not _break_by_an_outlying_row)]
    assert pred._leverage is not None


def test_a_moderately_outlying_row_is_carried(monkeypatch):
    # x + 30 gives the new slot a leverage of about 0.994: above the carry
    # threshold, and carrying through it keeps the leverages exact
    k, at = 3, 20
    pred = fresh(0, mc_samples=4)
    solves = _spy_leverage_solves(monkeypatch, pred)
    for i, obs in enumerate(generate(SyntheticSpec(k=k, n=40, seed=2)), start=1):
        if i == at:
            obs = Observation(obs.x + 30.0, obs.y)
            slack = pred.begin_step(obs.x).rad2[0]
            assert iid_gauss._MIN_CARRY_SLACK <= slack < 1e-2
        else:
            pred.begin_step(obs.x)
        pred.observe(obs)
        _assert_exact_leverages(pred)
    assert solves == [k + 3]


def test_staging_a_row_twice_keeps_the_chain(monkeypatch):
    # a second begin_step replaces the staged row; the stored rows' leverages
    # do not depend on it, so observing the row staged last carries them on
    stream = generate(SyntheticSpec(k=3, n=30, seed=2))
    pred = fresh(0, mc_samples=4)
    feed(pred, [o.x for o in stream[:20]], [o.y for o in stream[:20]])
    solves = _spy_leverage_solves(monkeypatch, pred)
    for obs in stream[20:]:
        pred.begin_step(_other_row(obs))
        pred.begin_step(obs.x)
        pred.observe(obs)
        assert pred._leverage is not None
        _assert_exact_leverages(pred)
    assert solves == [21, 21]  # feed staged no row: both stagings of step 21 solve afresh


@pytest.mark.parametrize("hostile", ["duplicated column", "x offset 1e6"])
def test_svd_steps_leave_no_leverages_to_carry(hostile):
    base = generate(SyntheticSpec(k=3, n=60, seed=2))
    if hostile == "duplicated column":
        # duplicated for 30 rows, then an independent column: Cholesky resumes
        fresh_column = np.random.default_rng(7).normal(size=len(base))
        stream = [
            Observation(np.append(o.x, o.x[0] if i < 30 else fresh_column[i]), o.y)
            for i, o in enumerate(base)
        ]
    else:
        stream = [Observation(o.x + 1e6, o.y) for o in base]
    pred = fresh(0, mc_samples=4)
    carried = 0
    for i, obs in enumerate(stream):
        pred.begin_step(obs.x)
        pred.observe(obs)
        if i < 30:
            assert pred._leverage is None
        carried += pred._leverage is not None
        _assert_exact_leverages(pred)
    assert carried == (30 if hostile == "duplicated column" else 0)


@pytest.mark.parametrize("k, size", [(20, 120), (2, 210)])
def test_chained_monte_carlo_steps_form_no_product_of_the_rows(monkeypatch, k, size):
    # neither the ridge projector nor the leverages come from an O(n K^2)
    # product of the rows once the chain has started
    pred = fresh(0, mc_samples=50)
    solves = _spy_leverage_solves(monkeypatch, pred)
    built, lines = [], iid_gauss.ridge_lines

    def spy_lines(*args, **kwargs):
        built.append(pred.design.count + 1)
        return lines(*args, **kwargs)

    monkeypatch.setattr(iid_gauss, "ridge_lines", spy_lines)
    monte_carlo = []
    for obs in generate(SyntheticSpec(k=k, n=size, seed=0)):
        ctx = pred.begin_step(obs.x)
        if not ctx.exact:
            monte_carlo.append(ctx.n)
            assert ctx.rad2[0] >= iid_gauss._MIN_CARRY_SLACK or ctx.n == k + 3
        pred.observe(obs)
    assert monte_carlo == list(range(k + 3, size + 1))
    assert solves == [k + 3]
    assert built == list(range(1, k + 3))  # the exact steps only
