"""Metamorphic checks: how p-values move when the data are shifted or scaled.

gauss is equivariant under shifts of the response and of the features, and
its p-values must not notice an offset.  Every model predictor is invariant
under a rescaling of the response, and so are the open and closed ends of
the iid-gauss Monte-Carlo regions.  mva and iid are not shift-equivariant,
by design: their ridge term also shrinks the dummy intercept column, so an
offset changes the residuals themselves.
"""

import math

import numpy as np
import pytest
import scipy.stats
from oracles import ridge_residual_affine
from test_predictor_iid import integer_stream, tie_heavy_stream

from cpreg import (
    GaussPredictor,
    IidPredictor,
    MvaPredictor,
    Observation,
    RunConfig,
    SyntheticSpec,
    generate,
    make_predictor,
    run_online,
    run_trace,
    t_sf,
)

BETA = np.array([2.0, -1.0])


def sample():
    """30 past pairs, K=2, and a fixed new point in the upper tail (p ~ 0.03)."""
    rng = np.random.default_rng(2009)
    xs = rng.normal(size=(30, 2))
    ys = 1.0 + xs @ BETA + rng.normal(size=30)
    x_new = rng.normal(size=2)
    return xs, ys, x_new, 1.0 + x_new @ BETA + 2.5


def pvalue(predictor, xs, ys, x_new, y_new):
    for x, y in zip(xs, ys):
        predictor.observe(Observation(x, y))
    return predictor.pvalue(predictor.begin_step(x_new), y_new, 1.0)


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
def test_gauss_pvalue_ignores_a_response_offset(offset):
    xs, ys, x_new, y_new = sample()
    want = pvalue(GaussPredictor(), xs, ys, x_new, y_new)
    got = pvalue(GaussPredictor(), xs, ys + offset, x_new, y_new + offset)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_gauss_pvalue_ignores_a_feature_offset(offset):
    xs, ys, x_new, y_new = sample()
    want = pvalue(GaussPredictor(), xs, ys, x_new, y_new)
    got = pvalue(GaussPredictor(), xs + offset, ys, x_new + offset, y_new)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("kind", ["iid", "gauss", "mva", "iid-gauss"])
@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e12])
def test_pvalues_ignore_a_response_scale(kind, scale):
    streams = [generate(SyntheticSpec(k=2, n=60, seed=4))]
    if kind in ("iid", "iid-gauss"):  # ties are decided at a tolerance that scales with y
        streams += [integer_stream(), tie_heavy_stream()]
    config = RunConfig(predictor=kind)
    for stream in streams:
        scaled = [Observation(obs.x, obs.y * scale) for obs in stream]
        want = run_trace(config, stream).pvalues
        assert run_trace(config, scaled).pvalues == pytest.approx(want, rel=1e-9)


def monte_carlo_closed_flags(stream, seed):
    """Closed flags of every iid-gauss Monte-Carlo region of a deterministic run."""
    pred = make_predictor(RunConfig(predictor="iid-gauss", smoothed=False, seed=seed))
    flags = []
    for obs in stream:
        ctx = pred.begin_step(obs.x)
        if not ctx.exact:
            for tau in (0.0, 0.37, 1.0):
                for eps in (0.05, 0.01, 0.005):
                    pieces = pred.raw_region(ctx, eps, tau).pieces
                    flags.append([(p.lo_closed, p.hi_closed) for p in pieces])
        pred.observe(obs)
    return flags


@pytest.mark.parametrize("seed", [0, 23])
def test_iid_gauss_closed_flags_ignore_a_response_scale(seed):
    # an endpoint is a crossing whose draws tie there, so rounding the
    # crossing point, which the scale changes, must not open or close it
    stream = generate(SyntheticSpec(k=20, n=120, seed=seed))
    want = monte_carlo_closed_flags(stream, seed)
    assert len(want) == 9 * 98
    for scale in (1e-6, 1e6):
        scaled = [Observation(obs.x, obs.y * scale) for obs in stream]
        assert monte_carlo_closed_flags(scaled, seed) == want, scale


def mva_pvalue_from_scratch(xs, ys, x_new, y_new):
    """The mva p-value from the ridge residuals of the stacked history."""
    e = ridge_residual_affine(xs, ys, x_new).at(y_new)
    rest, last = e[:-1], e[-1]
    n = e.size
    ss = float(((rest - rest.mean()) ** 2).sum())
    stat = math.sqrt((n - 1.0) * (n - 2.0) / n) * (last - rest.mean()) / math.sqrt(ss)
    return 2.0 * t_sf(abs(stat), n - 2)


def mva_endpoints_from_scratch(xs, ys, x_new, eps, origin):
    """Finite ends of the mva region from the stacked history's residual lines.

    The region is where (n-1)(n-2)/n gap^2 < t^2 spread, a quadratic in
    s = y - origin built from the lines evaluated at ``origin``.
    """
    res = ridge_residual_affine(xs, ys, x_new)
    slopes, values = res.slopes, res.at(origin)
    n = slopes.size
    g1, g0 = slopes[-1] - slopes[:-1].mean(), values[-1] - values[:-1].mean()
    d1, d0 = slopes[:-1] - slopes[:-1].mean(), values[:-1] - values[:-1].mean()
    cf, t2 = (n - 1.0) * (n - 2.0) / n, scipy.stats.t.isf(eps / 2.0, n - 2) ** 2
    quad = (
        cf * g1 * g1 - t2 * d1 @ d1,
        2.0 * (cf * g1 * g0 - t2 * d1 @ d0),
        cf * g0 * g0 - t2 * d0 @ d0,
    )
    return sorted(origin + np.roots(quad).real)


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_mva_matches_the_from_scratch_statistic_under_offsets(offset):
    xs, ys, x_new, y_new = sample()
    pred = MvaPredictor()
    got = pvalue(pred, xs, ys + offset, x_new, y_new + offset)
    want = mva_pvalue_from_scratch(xs, ys + offset, x_new, y_new + offset)
    assert got == pytest.approx(want, rel=1e-6)
    region = pred.raw_region(pred.begin_step(x_new), 0.05, 1.0)
    ends = [v for p in region.pieces for v in (p.lo, p.hi) if np.isfinite(v)]
    want = mva_endpoints_from_scratch(xs, ys + offset, x_new, 0.05, offset)
    assert len(ends) == 2
    assert np.subtract(ends, offset) == pytest.approx(np.subtract(want, offset), rel=1e-6)


def region_pvalue_disagreements(stream) -> int:
    """(step, eps) pairs whose deterministic mva region and p-value disagree at y."""
    pred = MvaPredictor()
    count = 0
    for obs in stream:
        ctx = pred.begin_step(obs.x)
        pvalue = pred.pvalue(ctx, obs.y, 1.0)
        for eps in (0.3, 0.1, 0.05):
            count += pred.raw_region(ctx, eps, 1.0).contains(obs.y) != (pvalue > eps)
        pred.observe(obs)
    return count


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1e12])
def test_mva_regions_agree_with_pvalues_under_a_response_offset(offset):
    # the region's quadratic and the p-value are read from the same centred
    # coefficients, so an offset must not pull them apart
    xs, ys, x_new, y_new = sample()
    streams = [
        generate(SyntheticSpec(k=2, n=60, seed=3)),
        [Observation(x, y) for x, y in zip(np.vstack((xs, x_new)), np.append(ys, y_new))],
    ]
    config = RunConfig(predictor="mva", epsilons=(0.3, 0.1, 0.05), smoothed=False)
    for stream in streams:
        shifted = [Observation(obs.x, obs.y + offset) for obs in stream]
        assert region_pvalue_disagreements(shifted) == 0
        if offset == 1e8:
            ledger, _ = run_online(config, shifted)
            assert all(math.isfinite(ledger.medians(eps)[-1]) for eps in config.epsilons)


@pytest.mark.parametrize(
    "spec, offset",
    [(SyntheticSpec(k=20, n=120, seed=0), 1e8), (SyntheticSpec(k=2, n=60, seed=3), 1e12)],
)
def test_mva_regions_stay_bounded_far_from_the_response_mean(spec, offset):
    # Each coefficient g - q^2 s of the region's quadratic in t = y - ybar is
    # zero only within the rounding of its own two terms, so a region far
    # from ybar keeps its t^2 term and is never a single ray; step 3 at eps
    # 0.3 is (2.35e8, 7.84e8) at y + 1e8, as a 50-digit evaluation gives
    stream = [Observation(obs.x, obs.y + offset) for obs in generate(spec)]
    pred = MvaPredictor()
    rays = 0
    for n, obs in enumerate(stream, start=1):
        ctx = pred.begin_step(obs.x)
        for eps in (0.3, 0.05, 0.01, 0.005):
            pieces = pred.raw_region(ctx, eps, 1.0).pieces
            rays += len(pieces) == 1 and math.isinf(pieces[0].lo) != math.isinf(pieces[0].hi)
        if n == 3:
            xs, ys = np.array([o.x for o in stream[:2]]), np.array([o.y for o in stream[:2]])
            want = mva_endpoints_from_scratch(xs, ys, obs.x, 0.3, offset)
            ends = [v for p in pred.raw_region(ctx, 0.3, 1.0).pieces for v in (p.lo, p.hi)]
            got = np.subtract([v for v in ends if math.isfinite(v)], offset)
            assert got == pytest.approx(np.subtract(want, offset), rel=1e-6)
        pred.observe(obs)
    assert rays == 0


def test_mva_and_iid_drift_under_a_response_offset_by_design():
    # the penalised dummy column pulls the fitted intercept towards 0, so a
    # large offset leaves every residual carrying part of it
    xs, ys, x_new, y_new = sample()
    shifted = (xs, ys + 1e6, x_new, y_new + 1e6)
    assert pvalue(IidPredictor(), *sample()) == 1.0 / 31.0
    assert pvalue(IidPredictor(), *shifted) == 16.0 / 31.0
    assert pvalue(MvaPredictor(), *sample()) == pytest.approx(0.0249656, rel=1e-5)
    assert pvalue(MvaPredictor(), *shifted) == pytest.approx(0.9196404, rel=1e-5)
