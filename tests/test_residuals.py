"""The ridge design's feature rule and the shared ridge-residual affine machinery."""

import sys

import numpy as np
import pytest

from oracles import ridge_design, ridge_residual_affine

from cpreg import (
    AffineResiduals,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
    RidgeResidualMap,
    RunConfig,
    SyntheticSpec,
    generate,
    run_online,
)
from cpreg.design import DesignRows, DesignState
from cpreg.linalg import NumericalError, cholesky_factor
from cpreg.residuals import DEFAULT_RIDGE, LEADING_BLOCK, check_ridge, features_used, ridge_factor

# Intercept-only designs admit exact rational residual coefficients:
# with m stored responses plus the candidate, the smoother weight is
# 1/(m + 1 + a), so the candidate's own slope is (m + a)/(m + 1 + a)
# and every other slope is -1/(m + 1 + a).  At a = 0.01:
DUMMY_2OBS_SLOPES = (-100.0 / 201.0, 101.0 / 201.0)  # one stored + candidate
DUMMY_3OBS_SLOPES = (-100.0 / 301.0, -100.0 / 301.0, 201.0 / 301.0)


def test_features_used_table():
    assert DEFAULT_RIDGE == 0.01
    # large feature count: leading block of 10 until step K + 3
    assert features_used(102, 100) == 10
    assert features_used(103, 100) == 100
    assert features_used(600, 100) == 100
    # small feature count: the block never exceeds what exists
    assert features_used(2, 3) == 3
    assert features_used(50, 3) == 3
    with pytest.raises(ValueError, match="step index"):
        features_used(0, 3)


def test_dummy_only_affine_oracle():
    """Zero-feature data exercises the smoother against exact fractions."""
    one = ridge_residual_affine(np.empty((1, 0)), np.array([7.0]), np.empty(0))
    assert one.slopes == pytest.approx(DUMMY_2OBS_SLOPES, rel=1e-14)
    assert one.intercepts == pytest.approx((7.0 * 101.0 / 201.0, -7.0 * 100.0 / 201.0), rel=1e-14)

    two = ridge_residual_affine(np.empty((2, 0)), np.array([1.0, 2.0]), np.empty(0))
    assert two.slopes == pytest.approx(DUMMY_3OBS_SLOPES, rel=1e-14)
    # intercept of the candidate slot: -(y1 + y2)/3.01
    assert two.intercepts[-1] == pytest.approx(-3.0 / 3.01, rel=1e-14)


def test_affine_matches_direct_recompute():
    """e_i(y) from the affine form equals a from-scratch ridge fit at that y."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        xs = rng.standard_normal((n, k))
        ys = rng.standard_normal(n)
        x_new = rng.standard_normal(k)
        aff = ridge_residual_affine(xs, ys, x_new)
        for y in (-2.0, 0.3, 5.0):
            stacked = np.vstack((xs, x_new[None, :]))
            kd = features_used(n + 1, k)
            design = np.column_stack((np.ones(n + 1), stacked[:, :kd]))
            v = np.concatenate((ys, [y]))
            coef = np.linalg.solve(
                design.T @ design + DEFAULT_RIDGE * np.eye(kd + 1), design.T @ v
            )
            direct = v - design @ coef
            assert aff.at(y) == pytest.approx(direct, rel=1e-9, abs=1e-11)


def test_affine_at_matches_components():
    aff = AffineResiduals(
        intercepts=np.array([1.0, -2.0]), slopes=np.array([0.5, 2.0])
    )
    assert aff.at(2.0) == pytest.approx([2.0, 2.0])


def test_residual_map_linear_action():
    """The map acts linearly: affine-in-last equals base plus slope action."""
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((5, 2))
    design = ridge_design(xs, 5)
    rmap = RidgeResidualMap(design, design.T @ design, DEFAULT_RIDGE)
    ys = rng.standard_normal(4)
    aff = rmap.affine_in_last(ys)
    base = rmap.apply(np.concatenate((ys, [0.0])))
    slope = rmap.apply(np.concatenate((np.zeros(4), [1.0])))
    assert aff.intercepts == pytest.approx(base, abs=1e-12)
    assert aff.slopes == pytest.approx(slope, abs=1e-12)
    # and the map is idempotent-compatible with superposition
    y7 = np.concatenate((ys, [7.0]))
    assert rmap.apply(y7) == pytest.approx(base + 7.0 * slope, rel=1e-10, abs=1e-12)


def test_projector_from_a_moment_gram_matches_the_rows():
    # iid-gauss reads U'U from running moments; the map it builds must act
    # as the one that forms U'U from the rows, on the leading block too:
    # with K >= n the ridge design keeps the first LEADING_BLOCK features
    rng = np.random.default_rng(9)
    xs = 3.0 + rng.standard_normal((30, 30))
    state = DesignState()
    for x in xs[:-1]:
        state.append(x, 0.0)
    u_n = np.concatenate(([1.0], xs[-1, :10]))
    gram = state.gram(11) + np.outer(u_n, u_n)
    design = np.column_stack((np.ones(30), xs[:, :10]))
    v = rng.standard_normal((30, 3))
    stacked = ridge_design(xs, 30)
    assert np.array_equal(stacked, design)
    rows = RidgeResidualMap(stacked, stacked.T @ stacked, DEFAULT_RIDGE).apply(v)
    from_gram = RidgeResidualMap(design, gram, DEFAULT_RIDGE)
    assert from_gram.apply(v) == pytest.approx(rows, rel=1e-10, abs=1e-12)
    with pytest.raises(NumericalError):
        RidgeResidualMap(design, np.full((11, 11), np.inf), DEFAULT_RIDGE)


@pytest.mark.parametrize("k", [2, 20, 100])
def test_projector_of_a_buffer_view_is_bitwise_the_contiguous_one(k):
    # the predictors hand RidgeResidualMap a row-strided view of their
    # buffer; BLAS must give it the same bits as a contiguous copy
    rng = np.random.default_rng(k)
    n = k + 30
    rows = DesignRows()
    for x in 1.0 + 3.0 * rng.standard_normal((n - 1, k)):
        rows.append(x, 0.0)
    design = rows.with_row(rng.standard_normal(k))
    ys = rng.standard_normal(n - 1)
    v = rng.standard_normal((n, 4))
    for width in sorted({min(LEADING_BLOCK, k) + 1, k + 1}):
        view = design[:, :width]
        assert view.flags.c_contiguous == (width == k + 1)
        assert np.shares_memory(view, design)
        copy = np.ascontiguousarray(view)
        strided = RidgeResidualMap(view, view.T @ view, 0.01)
        contiguous = RidgeResidualMap(copy, copy.T @ copy, 0.01)
        assert np.array_equal(strided.apply(v), contiguous.apply(v))
        assert np.array_equal(strided.apply(v[:, 0]), contiguous.apply(v[:, 0]))
        a, b = strided.affine_in_last(ys), contiguous.affine_in_last(ys)
        assert np.array_equal(a.slopes, b.slopes)
        assert np.array_equal(a.intercepts, b.intercepts)


def test_ridge_factor_leaves_its_argument_unchanged():
    rng = np.random.default_rng(10)
    design = np.column_stack((np.ones(8), rng.standard_normal((8, 3))))
    gram = design.T @ design
    before = gram.copy()
    factor = ridge_factor(gram, 0.5)
    assert np.array_equal(gram, before)
    want = cholesky_factor(before + 0.5 * np.eye(4))
    assert np.array_equal(np.tril(factor), np.tril(want))


def test_every_ridge_factorisation_goes_through_ridge_factor(monkeypatch):
    # iid, mva and iid-gauss factor U'U + aI once per informative step, each
    # time inside ridge_factor, and no other Cholesky call factors it
    inside, ridged, kernel_calls = [False], [], []
    factor_ridge, kernel = ridge_factor, cholesky_factor

    def spy_ridge(gram, ridge):
        ridged.append(gram.shape[0])
        inside[0] = True
        try:
            return factor_ridge(gram, ridge)
        finally:
            inside[0] = False

    def spy_kernel(matrix, name="matrix"):
        kernel_calls.append((name, inside[0]))
        return kernel(matrix, name)

    for module in [m for name, m in sys.modules.items() if name.startswith("cpreg")]:
        for attr, spy in (("ridge_factor", spy_ridge), ("cholesky_factor", spy_kernel)):
            if getattr(module, attr, None) in (factor_ridge, kernel):
                monkeypatch.setattr(module, attr, spy)
    stream = generate(SyntheticSpec(k=20, n=120, seed=0))  # the paper-online size
    for kind, informative_from in (("iid", 1), ("mva", 3), ("iid-gauss", 1)):
        ridged.clear()
        kernel_calls.clear()
        run_online(RunConfig(predictor=kind, smoothed=False), stream)
        assert len(ridged) == 120 - informative_from + 1, kind
        within = [name for name, nested in kernel_calls if nested]
        assert within == ["ridge Gram matrix U'U + aI"] * len(ridged), kind
        assert not any("U'U" in name for name, nested in kernel_calls if not nested), kind


def test_ridge_validation():
    assert check_ridge(1) == 1.0 and type(check_ridge(1)) is float
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="ridge coefficient"):
            check_ridge(bad)
        for build in (IidPredictor, MvaPredictor, IidGaussPredictor):
            with pytest.raises(ValueError, match="ridge coefficient"):
                build(ridge=bad)
        with pytest.raises(ValueError, match="ridge coefficient"):
            RunConfig(predictor="iid", ridge=bad)
