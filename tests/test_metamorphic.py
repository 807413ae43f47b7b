"""Metamorphic checks: how p-values move when the data are shifted or scaled.

gauss is equivariant under shifts of the response and of the features, and
its p-values must not notice an offset.  Every model predictor is invariant
under a rescaling of the response.  mva and iid are not shift-equivariant,
by design: their ridge term also shrinks the dummy intercept column, so an
offset changes the residuals themselves.
"""

import math

import numpy as np
import pytest
from oracles import mva_residual_affine

from cpreg import (
    GaussPredictor,
    IidPredictor,
    MvaPredictor,
    Observation,
    RunConfig,
    SyntheticSpec,
    generate,
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
    stream = generate(SyntheticSpec(k=2, n=60, seed=4))
    scaled = [Observation(obs.x, obs.y * scale) for obs in stream]
    config = RunConfig(predictor=kind)
    want = run_trace(config, stream).pvalues
    assert run_trace(config, scaled).pvalues == pytest.approx(want, rel=1e-9)


def mva_pvalue_from_scratch(xs, ys, x_new, y_new):
    """The mva p-value from the ridge residuals of the stacked history."""
    e = mva_residual_affine(xs, ys, x_new).at(y_new)
    rest, last = e[:-1], e[-1]
    n = e.size
    ss = float(((rest - rest.mean()) ** 2).sum())
    stat = math.sqrt((n - 1.0) * (n - 2.0) / n) * (last - rest.mean()) / math.sqrt(ss)
    return 2.0 * t_sf(abs(stat), n - 2)


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_mva_matches_the_from_scratch_statistic_under_offsets(offset):
    xs, ys, x_new, y_new = sample()
    got = pvalue(MvaPredictor(), xs, ys + offset, x_new, y_new + offset)
    want = mva_pvalue_from_scratch(xs, ys + offset, x_new, y_new + offset)
    assert got == pytest.approx(want, rel=1e-6)


def test_mva_and_iid_drift_under_a_response_offset_by_design():
    # the penalised dummy column pulls the fitted intercept towards 0, so a
    # large offset leaves every residual carrying part of it
    xs, ys, x_new, y_new = sample()
    shifted = (xs, ys + 1e6, x_new, y_new + 1e6)
    assert pvalue(IidPredictor(), *sample()) == 1.0 / 31.0
    assert pvalue(IidPredictor(), *shifted) == 16.0 / 31.0
    assert pvalue(MvaPredictor(), *sample()) == pytest.approx(0.0249656, rel=1e-5)
    assert pvalue(MvaPredictor(), *shifted) == pytest.approx(0.9196404, rel=1e-5)
