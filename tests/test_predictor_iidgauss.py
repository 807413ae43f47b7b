"""Joint exchangeability/Gaussian predictor: conditional atoms and Monte Carlo."""

import copy
import dataclasses
from fractions import Fraction

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
    binomial_band,
    generate,
    make_predictor,
    run_online,
)
from cpreg.predictors import iid_gauss
from cpreg.predictors.iid_gauss import null_slot_coordinates
from cpreg.randomness import RandomStream
from cpreg.regions import check_nested, super_level_sets
from cpreg.residuals import DEFAULT_RIDGE, ridge_residuals

import oracles
from oracles import (
    REFINE_RTOL,
    exact_rss,
    exchangeability_identity,
    iid_pvalue,
    iidgauss_draw_scores,
    iidgauss_grid_region,
    iidgauss_pvalues,
    iidgauss_sample_conditional,
    ridge_design,
    slice_geometry,
)
from test_predictor_iid import integer_stream, run_digest, tie_heavy_stream


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
    # the response summary iid-gauss reads: ybar, C_xy and C_yy
    d = ys - ys.mean()
    assert pred.design.mean[-1] == pytest.approx(ys.mean(), rel=1e-12)
    assert pred.design.comoment[:-1, -1] == pytest.approx(xs.T @ d, rel=1e-12)
    assert pred.design.comoment[-1, -1] == pytest.approx(d @ d, rel=1e-12)


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


def test_exchangeability_identity_holds_while_slice_is_a_point():
    # d = 0 (n <= K + 1): the atoms are the slots' residual lines, so the
    # average error probability over which slot comes last is eps exactly
    stream = generate(SyntheticSpec(k=20, n=21, seed=4))
    for n in range(5, 22):
        for eps in (Fraction("0.3"), Fraction("0.1"), Fraction("0.05")):
            assert exchangeability_identity(fresh, stream[:n], eps) == eps, (n, eps)


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
    design = ridge_design(rows, 3)
    c2, center, floor = ctx.rad2
    for y in (-3.0, 0.0, 2.0, 5.5):
        full = np.append(ys, y)
        proj = u @ full
        assert c2 * (y - center) ** 2 + floor == pytest.approx(proj**2, rel=1e-9, abs=1e-12)
        lines = ctx.atoms.residuals.at(y)
        gram, mirrored = design.T @ design, full - 2.0 * proj * u
        want, want_mirror = ridge_residuals(design, gram, DEFAULT_RIDGE, full, mirrored)
        assert lines[3:] == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert lines[:3] == pytest.approx(want_mirror, rel=1e-9, abs=1e-12)


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


def test_monte_carlo_steps_are_exactly_valid():
    # The observed score is one of mc + 1 exchangeable scores, so even with 10
    # draws a step the smoothed errors of the Monte-Carlo steps (5 to 260) of
    # 20 K = 2 runs fall in the 1% binomial band, no smoothed p-value is 0,
    # and deterministic p-values are conservative
    smoothed, deterministic = [], []
    for s in range(20):
        pred = make_predictor(RunConfig(predictor="iid-gauss", seed=s, mc_samples=10))
        taus = RandomStream(s, substream=0)  # the tie-breaking draws of a smoothed run
        for obs in generate(SyntheticSpec(k=2, n=260, seed=700 + s)):
            tau = taus.uniform()
            ctx = pred.begin_step(obs.x)
            if not ctx.exact:
                smoothed.append(pred.pvalue(ctx, obs.y, tau))
                deterministic.append(pred.pvalue(ctx, obs.y, 1.0))
            pred.observe(obs)
    smoothed, deterministic = np.array(smoothed), np.array(deterministic)
    assert smoothed.size == 20 * 256
    for eps in (0.1, 0.05):
        lower, upper = binomial_band(smoothed.size, eps)
        assert lower <= np.count_nonzero(smoothed <= eps) <= upper, eps
    assert np.count_nonzero(deterministic <= 0.1) <= binomial_band(smoothed.size, 0.1)[1]
    assert smoothed.min() > 0.0


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
    leverage = np.sum(basis**2, axis=1)
    for slot in (0, n - 1):
        slots = np.full(draws, slot)
        marginal = null_slot_coordinates(marginal_rng, leverage, slots, n - rank)
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
    """p-value at a region endpoint, from the structure rather than the rounded point.

    An exact step's endpoints are critical points, where the p-value's tie
    rule counts the atom lines that meet the observed one there.  A
    Monte-Carlo step's endpoints are crossings: a draw whose comparison
    differs on the two neighbouring segments ties there, and any other draw
    counts by the state it keeps on both; the observed score, one of mc + 1,
    ties itself.
    """
    if ctx.exact:
        return pred.pvalue(ctx, end, tau)
    events = ctx.crossings[0]
    at = np.searchsorted(events, end)
    assert events[at] == end
    sides = _segment_points(events)[at : at + 2, None]
    above = iidgauss_draw_scores(ctx, sides) >= np.abs(ctx.ea[0] * (sides - ctx.rad2[1]) + ctx.ea[1])
    ties = np.count_nonzero(above[0] != above[1])
    return (np.count_nonzero(above[0] & above[1]) + tau * (ties + 1)) / (pred.mc_samples + 1)


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
            events, greater, ties = ctx.crossings
            assert events.size and not ties[0::2].any()
        assert np.all(np.diff(events) > 0)
        mids = _segment_points(events) if events.size else np.zeros(1)
        if not ctx.exact:
            gaps = (greater[0::2] + 1) / (pred.mc_samples + 1)  # the observed score ties itself
            assert np.array_equal(gaps, iidgauss_pvalues(ctx, mids, 1.0))
        probes = rng.uniform(mids[0], mids[-1], 200)
        for tau in (0.0, 0.37, 1.0):
            if ctx.exact:
                pmid = np.array([pred.pvalue(ctx, y, tau) for y in mids])
            else:
                pmid = iidgauss_pvalues(ctx, mids, tau)
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


def test_monte_carlo_endpoints_close_by_their_ties():
    # last step of a deterministic run: one draw crosses at each endpoint, so
    # the ends are closed at tau = 1 and open at tau = 0 whatever the rounding.
    # The observed score ties itself, so at tau = 1 the region also keeps the
    # segments with one greater draw fewer, and is wider
    pred, ctx = _deterministic_context(20, 120, 23, 120)
    assert not ctx.exact
    for tau, ends, closed in (
        (1.0, (87.9668, 92.0812), True),
        (0.0, (87.9757, 92.0724), False),
    ):
        (piece,) = pred.raw_region(ctx, 0.05, tau).pieces
        assert (piece.lo, piece.hi) == pytest.approx(ends, abs=1e-4)
        assert piece.lo_closed == piece.hi_closed == closed


def test_noise_free_stream_counts_are_exact_outside_a_rounding_band():
    # y = 1 + x exactly: the past residual sum of squares is zero up to
    # rounding, so the slice radius vanishes at the fitted value, where draws
    # of the last slot tie with the observed score and the squared crossing
    # equations lose roots to rounding.  The counts must stay exact outside
    # a rounding-wide band around the fitted value, and several draws may
    # flip at one event, each tying there once.
    xs = np.random.default_rng(1).normal(size=(30, 1))
    pred = fresh(2, mc_samples=300)
    for x in xs:
        ctx = pred.begin_step(x)
        if not ctx.exact:
            events, greater, ties = ctx.crossings
            mids = _segment_points(events)
            fit = ctx.rad2[1]
            far = np.abs(mids - fit) > 1e-6 * max(1.0, abs(fit))
            got = (greater[0::2][far] + 1) / (pred.mc_samples + 1)
            assert np.array_equal(got, iidgauss_pvalues(ctx, mids[far], 1.0)), ctx.n
            at, tied = greater[1::2], ties[1::2]
            assert np.all(at >= 0) and np.all(tied >= 1), ctx.n
            assert np.all(at + tied <= pred.mc_samples), ctx.n
        pred.observe(Observation(x, 1.0 + x[0]))


def _spy_candidate_rows(monkeypatch):
    """Candidate rows per draw of every Monte-Carlo table built from now on."""
    rows, sort = [], iid_gauss._sort_columns

    def spy(cand):
        rows.append(cand.shape[0])
        sort(cand)

    monkeypatch.setattr(iid_gauss, "_sort_columns", spy)
    return rows


def test_a_draw_that_touches_the_observed_score_ties_there_once(monkeypatch):
    # floor 0, center 0: the slice radius is r(y) = |y| and the observed
    # score |y|.  Draws 0 and 1 are 0.5|y| and |0.5 y + 0.25|y||, below |y|
    # except where they touch it, at 0, where r and both right-hand sides
    # vanish; draw 2 is the constant 1, above |y| on [-1, 1].  At the touch
    # draws 0 and 1 each flip into their state on the point and out again:
    # each ties there once and counts as below on both sides.  The radius
    # reaches 0, so the step keeps both right-hand-side zeros of every draw:
    # six candidates
    rows = _spy_candidate_rows(monkeypatch)
    ctx = iid_gauss.IidGaussStepContext(
        n=10,
        k=1,
        exact=False,
        rad2=(1.0, 0.0, 0.0),
        ea=(1.0, 0.0),
        lines=np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 0.0]]),  # slot intercepts, then slopes
        slots=np.arange(3),
        slot_mix=np.array([0.5, 0.25, 0.0]),
    )
    events, greater, ties = ctx.crossings
    assert events.tolist() == [-1.0, 0.0, 1.0]
    assert greater.tolist() == [0, 0, 1, 1, 1, 0, 0]
    assert ties.tolist() == [0, 1, 0, 2, 0, 1, 0]
    # the p-value at each event is the counts there, the observed score one of
    # mc + 1 = 4 and tied with itself
    assert iidgauss_pvalues(ctx, events, 1.0).tolist() == [0.5, 1.0, 0.5]
    assert rows == [6]


def test_sorting_network_sorts_every_column():
    # by the 0-1 principle, a comparator network that sorts all 2^keys
    # columns of zeros and ones (16 for four keys, 64 for six) sorts every
    # column of that many keys
    rng = np.random.default_rng(0)
    for keys in (4, 6):
        bits = ((np.arange(2**keys) >> np.arange(keys)[:, None]) & 1).astype(float)
        want = np.sort(bits, axis=0)
        iid_gauss._sort_columns(bits)
        assert np.array_equal(bits, want), keys
        for rows in (rng.integers(-2, 3, (keys, 500)).astype(float), rng.normal(size=(keys, 500))):
            want = np.sort(rows, axis=0)
            iid_gauss._sort_columns(rows)
            assert np.array_equal(rows, want), keys


@pytest.mark.parametrize("k, size", [(20, 120), (2, 210)])
def test_monte_carlo_steps_sweep_four_candidates_per_draw(monkeypatch, k, size):
    # the squared radius of these steps stays clear of 0, so a draw sweeps
    # the four roots of its two quadratics, with a right-hand-side zero only
    # in place of a lost root; the table is the six-candidate reference's
    rows = _spy_candidate_rows(monkeypatch)
    steps = 0
    for pred, ctx in _monte_carlo_steps(k, size, seed=0, mc_samples=1000):
        for got, want in zip(ctx.crossings, oracles.iidgauss_crossings(ctx)):
            assert got.dtype == want.dtype and np.array_equal(got, want), ctx.n
        steps += 1
    assert steps == size - k - 2
    assert rows == [4] * steps


def test_a_root_lost_to_rounding_is_swept_at_its_zero(monkeypatch):
    # draw 0 has slot mix 0, so its score |a + b*y| meets the observed score
    # |e0*y + e1| at the zeros -q/p of both right-hand sides, each a double
    # root of its squared quadratic; rounding makes the sign -1
    # discriminant negative, and that sign's zero stands in for the lost
    # pair.  Draw 1, the constant 5, stays above.  The radius stays clear of
    # 0, so the step sweeps four candidates per draw.
    rows = _spy_candidate_rows(monkeypatch)
    a, b, e0, e1 = -0.7037352358069926, -1.2654214710460525, 0.8526828432972258, 0.0413259793472436
    ctx = iid_gauss.IidGaussStepContext(
        n=10,
        k=1,
        ea=(e0, e1),
        exact=False,
        rad2=(1.0, 0.0, 1.0),
        lines=np.array([[a, 5.0], [b, 0.0]]),
        slots=np.arange(2),
        slot_mix=np.array([0.0, 0.5]),
    )
    p, q = np.array([e0, -e0]) - b, np.array([e1, -e1]) - a
    assert ((-2.0 * p * q) ** 2 - 4.0 * (-p * p) * (-q * q) < 0.0).tolist() == [False, True]
    events, greater, ties = ctx.crossings
    assert rows == [4]
    assert float(-q[1] / p[1]) in events.tolist()  # the zero itself; sign +1 keeps its roots
    for got, want in zip((events, greater, ties), oracles.iidgauss_crossings(ctx)):
        assert np.array_equal(got, want)


def _offset_stream(k, size, seed, x_offset=0.0, y_offset=0.0):
    return [
        Observation(obs.x + x_offset, obs.y + y_offset)
        for obs in generate(SyntheticSpec(k=k, n=size, seed=seed))
    ]


def _noise_free_stream(size=30):
    xs = np.random.default_rng(1).normal(size=(size, 1))
    return [Observation(x, 1.0 + x[0]) for x in xs]


def _constant_response_stream(size=30):
    xs = np.random.default_rng(2).normal(size=(size, 2))
    return [Observation(x, 3.0) for x in xs]


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
def test_squared_radius_at_the_true_response_matches_exact_arithmetic(offset):
    # the squared slice radius is the residual sum of squares of the fit that
    # includes the candidate; read in vertex form from the centred moments
    # it keeps its accuracy under a response offset
    pred, past, steps = fresh(3, mc_samples=10), [], 0
    for obs in _offset_stream(2, 40, 3, y_offset=offset):
        ctx = pred.begin_step(obs.x)
        past.append(obs)
        if not ctx.exact:
            c2, center, floor = ctx.rad2
            u = obs.y - center
            want = exact_rss([o.x for o in past], [o.y for o in past])
            assert abs(Fraction(c2 * u * u + floor) - want) <= Fraction(1, 10**8) * want, ctx.n
            steps += 1
        pred.observe(obs)
    assert steps == 40 - 2 - 2


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e4, 1e6])
def test_a_response_offset_keeps_four_candidates_per_draw(monkeypatch, offset):
    # the radius never vanishes where the past responses do not fit exactly,
    # however far the responses sit from 0
    rows = _spy_candidate_rows(monkeypatch)
    pred, steps = fresh(0, mc_samples=100), 0
    for obs in _offset_stream(20, 120, 0, y_offset=offset):
        ctx = pred.begin_step(obs.x)
        if not ctx.exact:
            assert ctx.rad2[2] > 0.0 and ctx.crossings[0].size, ctx.n
            steps += 1
        pred.observe(obs)
    assert steps == 120 - 20 - 2
    assert rows == [4] * steps


@pytest.mark.parametrize("make_stream", [_noise_free_stream, _constant_response_stream])
def test_steps_whose_past_fits_exactly_sweep_six_candidates(monkeypatch, make_stream):
    rows = _spy_candidate_rows(monkeypatch)
    pred, floors = fresh(4, mc_samples=100), []
    for obs in make_stream():
        ctx = pred.begin_step(obs.x)
        if not ctx.exact:
            assert ctx.crossings[0].size, ctx.n
            floors.append(ctx.rad2[2])
        pred.observe(obs)
    assert 0.0 in floors
    assert rows == [6 if floor == 0.0 else 4 for floor in floors]


@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
def test_a_feature_offset_keeps_full_rank_steps_before_k_plus_2_off_the_svd(monkeypatch, offset):
    # the rank test factors the centred rows, which no feature offset reaches
    requests = _spy_svd_requests(monkeypatch)
    pred = fresh()
    for obs in _offset_stream(20, 120, 0, x_offset=offset)[:21]:  # n <= K + 1
        ctx = pred.begin_step(obs.x)
        assert ctx.exact and ctx.atoms.n == ctx.n, ctx.n  # d = 0
        pred.observe(obs)
    assert requests == []


TABLE_STREAMS = {
    "k2": (lambda: _offset_stream(2, 50, 1), 1000),
    "k3": (lambda: _offset_stream(3, 50, 2), 1000),
    "k20": (lambda: _offset_stream(20, 45, 3), 1000),
    "x-offset-1e4": (lambda: _offset_stream(3, 30, 4, x_offset=1e4), 1000),
    "x-offset-1e6": (lambda: _offset_stream(3, 30, 4, x_offset=1e6), 1000),
    "y-offset-1e4": (lambda: _offset_stream(3, 30, 5, y_offset=1e4), 1000),
    "y-offset-1e6": (lambda: _offset_stream(3, 30, 5, y_offset=1e6), 1000),
    "y-offset-1e8": (lambda: _offset_stream(3, 30, 5, y_offset=1e8), 1000),
    "integer": (integer_stream, 1000),
    "noise-free": (_noise_free_stream, 1000),
    "constant-y": (_constant_response_stream, 1000),
    "mc10": (lambda: _offset_stream(3, 40, 6), 10),
}
REGION_LEVELS = ((0.05, 0.01, 0.005), (0.3, 0.05, 0.01), (0.05,))


def _assert_same_regions(table, denominator, where):
    for levels in REGION_LEVELS:
        for tau in (0.0, 0.37, 1.0):
            want = oracles.super_level_sets(*table, denominator, levels, tau)
            assert super_level_sets(*table, denominator, levels, tau) == want, (where, levels, tau)


def test_step_tables_and_regions_equal_the_array_references(monkeypatch):
    # the draws too: each slot value is formed per slot and gathered to the
    # draws, which must equal gathering first and forming it per draw
    seen, coordinates = {}, iid_gauss.null_slot_coordinates

    def spy_coordinates(rng, leverage, slots, d):
        seen.update(leverage=leverage.copy(), d=d)
        return coordinates(rng, leverage, slots, d)

    monkeypatch.setattr(iid_gauss, "null_slot_coordinates", spy_coordinates)
    shared = 0  # Monte-Carlo steps where several draws tie at one event
    for name, (make_stream, mc_samples) in TABLE_STREAMS.items():
        pred, steps = fresh(7, mc_samples=mc_samples), 0
        for obs in make_stream():
            rng = copy.deepcopy(pred._rng)
            ctx = pred.begin_step(obs.x)
            pred.observe(obs)
            if ctx.exact:
                _assert_same_regions(ctx.atoms.tables, ctx.atoms.n, (name, ctx.n))
                continue
            steps += 1
            want = oracles.iidgauss_slot_draws(rng, seen["leverage"], ctx.lines.T, mc_samples, seen["d"])
            for field, value in zip(("slot_base", "slot_slope", "slot_mix"), want):
                got = getattr(ctx, field)
                assert got.dtype == value.dtype and np.array_equal(got, value), (name, ctx.n, field)
            got, want = ctx.crossings, oracles.iidgauss_crossings(ctx)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, ctx.n)
            shared += got[0].size < got[2].sum()  # fewer events than tied draws
            _assert_same_regions(got, mc_samples, (name, ctx.n))
        assert steps > 0, name
    assert shared > 0
    for stream in (tie_heavy_stream(), generate(SyntheticSpec(k=3, n=40, seed=8))):
        pred = IidPredictor()
        for obs in stream:
            ctx = pred.begin_step(obs.x)
            _assert_same_regions(ctx.tables, ctx.n, ("iid", ctx.n))
            pred.observe(obs)


def test_monte_carlo_pvalue_equals_the_array_reference():
    # bit for bit, on a fresh context as run_trace asks for it (no region
    # request, so no per-draw lines) and then at every event of the step
    # table and at random candidates; and it is the exchangeability p-value
    # of the observed score among the draws' scores and itself, mc + 1 in all
    rng = np.random.default_rng(11)
    for k, size, tables in ((3, 40, True), (2, 210, False)):
        for pred, ctx in _monte_carlo_steps(k, size, seed=6, mc_samples=200):
            past = pred.design.y
            spread = max(np.ptp(past), 1.0)
            ys = rng.uniform(past.min() - spread, past.max() + spread, 20)
            fresh_pvalues = {tau: [pred.pvalue(ctx, y, tau) for y in ys] for tau in (0.0, 0.37, 1.0)}
            assert not {"slot_base", "slot_slope", "crossings"} & vars(ctx).keys(), (k, ctx.n)
            for tau, got in fresh_pvalues.items():
                assert np.array_equal(got, iidgauss_pvalues(ctx, ys, tau)), (k, ctx.n, tau)
            if not tables:
                continue
            events = ctx.crossings[0]
            spread = max(np.ptp(events), 1.0)
            ys = np.concatenate((events, rng.uniform(events[0] - spread, events[-1] + spread, 50)))
            draws = iidgauss_draw_scores(ctx, ys[:, None])
            observed = np.abs(ctx.ea[0] * (ys - ctx.rad2[1]) + ctx.ea[1])
            for tau in (0.0, 0.37, 1.0):
                got = np.array([pred.pvalue(ctx, y, tau) for y in ys])
                assert np.array_equal(got, iidgauss_pvalues(ctx, ys, tau)), (ctx.n, tau)
                pooled = [iid_pvalue(np.append(d, o), tau) for d, o in zip(draws, observed)]
                assert np.array_equal(got, pooled), (ctx.n, tau)


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
    # infinite endpoint; the exact region is bounded, about 196.1 wide
    pred, ctx = _deterministic_context(20, 120, 3, 26)
    assert not ctx.exact
    assert not iidgauss_grid_region(pred, ctx, 0.01, 1.0)[0].is_bounded
    region = pred.raw_region(ctx, 0.01, 1.0)
    assert region.is_bounded and not region.is_empty
    assert region.length == pytest.approx(196.1, rel=1e-2)
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
    raise AssertionError("a full-rank step took an SVD")


def _monte_carlo_geometry(monkeypatch, stream, svd):
    """Every Monte-Carlo step's rows, past responses, context, slots and leverages.

    ``svd`` stands in for ``np.linalg.svd`` during the Monte-Carlo steps'
    ``begin_step`` (a step with n >= K + 3 is one unless Z is rank-deficient).
    """
    pred = fresh(0, mc_samples=200)
    draws = {}
    coordinates, integers = iid_gauss.null_slot_coordinates, pred._rng.integers

    def spy_coordinates(rng, leverage, slots, d):
        draws["leverage"] = leverage[slots]
        return coordinates(rng, leverage, slots, d)

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
            xs, ys = pred.design.with_row(obs.x)[:, 1:].copy(), pred.design.y.copy()
            steps.append((xs, ys, ctx, dict(draws)))
        pred.observe(obs)
    return steps


def _assert_matches_slice_geometry(steps, lines=True):
    """rad2, slot leverages and (``lines``) slot residual lines against the SVD oracle.

    The residual lines of an ill-conditioned ridge design amplify the rounding
    of the slice point, so they are compared on well-conditioned streams only.
    """
    for xs, ys, ctx, draws in steps:
        n = ctx.n
        design = np.column_stack((np.ones(n), xs))
        v01, basis = slice_geometry(design, design[-1])  # slope of the slice point in y
        # The ones column lies in the column space of Z, so the squared radius
        # at y = ybar + t is |B'(Y - ybar, t)|^2 = |w0 + t*w1|^2, B a basis of
        # the null space of Z': least at the center, where it is the floor
        w0, w1 = basis[:-1].T @ (ys - ys.mean()), basis[-1]
        shift = -(w0 @ w1) / (w1 @ w1)
        rad2 = (w1 @ w1, ys.mean() + shift, np.sum((w0 + shift * w1) ** 2))
        assert ctx.rad2 == pytest.approx(rad2, rel=1e-9), n
        slots = draws["slots"]
        leverage = 1.0 - np.sum(basis**2, axis=1)
        assert draws["leverage"] == pytest.approx(leverage[slots], rel=1e-9), n
        if not lines:
            continue
        ridged = ridge_design(xs, n)
        at_center, _ = slice_geometry(design, design.T @ np.append(ys, rad2[1]))
        base, slope = ridge_residuals(ridged, ridged.T @ ridged, DEFAULT_RIDGE, at_center, v01)
        base, slope = base[slots], slope[slots]
        assert ctx.slot_base == pytest.approx(base, rel=1e-9, abs=1e-9 * np.abs(base).max()), n
        assert ctx.slot_slope == pytest.approx(slope, rel=1e-9, abs=1e-9 * np.abs(slope).max()), n


@pytest.mark.parametrize("k, size", [(20, 120), (2, 210)])
def test_full_rank_monte_carlo_steps_take_no_svd(monkeypatch, k, size):
    steps = _monte_carlo_geometry(monkeypatch, generate(SyntheticSpec(k=k, n=size, seed=0)), _no_svd)
    assert len(steps) == size - k - 2  # every step from n = K + 3 on
    _assert_matches_slice_geometry(steps)


def _spy_svd_requests(monkeypatch):
    """(rows, full_matrices) of every ``np.linalg.svd`` call from now on."""
    requests, svd = [], np.linalg.svd

    def spy(design, full_matrices=True, **kwargs):
        requests.append((design.shape[0], full_matrices))
        return svd(design, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return requests


@pytest.mark.parametrize("k, size", [(8, 20), (30, 25)], ids=["k8", "k30-wide"])
def test_svd_asks_for_the_full_left_factor_only_at_n_equal_k_plus_2(monkeypatch, k, size):
    # the steps before n = K + 2 have d = 0, which a factor of ZZ' decides
    # with no SVD; of the steps before n = K + 3 only n = K + 2 (d = 1) takes
    # one, and asks for the full left factor, whose last column is the null
    # direction
    requests = _spy_svd_requests(monkeypatch)
    pred = fresh()
    for obs in generate(SyntheticSpec(k=k, n=size, seed=3)):
        pred.begin_step(obs.x)
        pred.observe(obs)
    assert requests == ([(k + 2, True)] if size >= k + 2 else [])


def test_wide_steps_take_no_svd_and_give_the_iid_trace(monkeypatch):
    # K = 200, n = 100: every step has n <= K + 1 and d = 0, so its atoms are
    # iid's residual lines, found with no SVD, and the p-values are iid's
    stream = generate(SyntheticSpec(k=200, n=100, seed=0))
    for smoothed in (False, True):
        config = RunConfig(predictor="iid", smoothed=smoothed, seed=1)
        _, want = run_online(config, stream)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", _no_svd)
            _, got = run_online(dataclasses.replace(config, predictor="iid-gauss"), stream)
        assert got.pvalues == want.pvalues and got.taus == want.taus, smoothed


def test_a_repeated_row_before_k_plus_2_takes_the_svd(monkeypatch):
    # a row that repeats an earlier one makes Z rank-deficient (d = 1) from
    # its step on: ZZ' is singular there, so the SVD decides the step, with
    # the reduced left factor while n <= K + 1.  The run equals one with the
    # ZZ' test switched off, in which every step before n = K + 3 takes the SVD.
    k = 8
    stream = generate(SyntheticSpec(k=k, n=30, seed=3))
    stream[4] = Observation(stream[3].x, stream[4].y)  # step 5 repeats the row of step 4
    for smoothed in (False, True):
        config = RunConfig(predictor="iid-gauss", smoothed=smoothed, seed=2, mc_samples=200)
        with monkeypatch.context() as m:
            requests = _spy_svd_requests(m)
            got = run_digest(config, stream)
        assert requests == [(n, n == k + 2) for n in range(5, k + 3)], smoothed
        with monkeypatch.context() as m:
            m.setattr(iid_gauss, "_full_row_rank", lambda design: False)
            assert run_digest(config, stream) == got, smoothed


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
    steps, solve = [], iid_gauss.triangular_solve

    def spy(*args, **kwargs):
        steps.append(pred.design.count + 1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(iid_gauss, "triangular_solve", spy)
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
        m.setattr(iid_gauss, "reciprocal_condition", lambda factor: 0.0)
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
