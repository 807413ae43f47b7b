"""The ridge design's feature rule and the shared ridge-residual affine machinery."""

import sys

import numpy as np
import pytest

from oracles import ridge_design, ridge_residual_affine, ridge_residuals_qr

from cpreg import (
    AffineResiduals,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
    RunConfig,
    SyntheticSpec,
    generate,
    make_predictor,
)
from cpreg.design import DesignRows, DesignState
from cpreg.linalg import NumericalError, cholesky_factor
from cpreg.residuals import (
    DEFAULT_RIDGE,
    LEADING_BLOCK,
    check_ridge,
    features_used,
    ridge_factor,
    ridge_lines,
    ridge_residuals,
)

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


def test_ridge_lines_act_linearly():
    """The lines are the projector's action on the stored responses and on e_n."""
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((5, 2))
    design = np.column_stack((np.ones(5), xs))
    u = ridge_design(xs, 5)
    ys = rng.standard_normal(4)
    aff = ridge_lines(design, ys, DEFAULT_RIDGE)
    base, slope, y7 = ridge_residuals(
        u, u.T @ u, DEFAULT_RIDGE, np.append(ys, 0.0), np.eye(5)[-1], np.append(ys, 7.0)
    )
    assert aff.intercepts == pytest.approx(base, abs=1e-12)
    assert aff.slopes == pytest.approx(slope, abs=1e-12)
    # and the projector is linear, so superposition holds
    assert y7 == pytest.approx(base + 7.0 * slope, rel=1e-10, abs=1e-12)


def test_projector_from_a_moment_gram_matches_the_rows():
    # iid-gauss reads U'U from running moments; the projector it applies
    # must act as the one that forms U'U from the rows, on the leading block
    # too: with K >= n the ridge design keeps the first LEADING_BLOCK features
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
    rows, = ridge_residuals(stacked, stacked.T @ stacked, DEFAULT_RIDGE, v)
    from_gram, = ridge_residuals(design, gram, DEFAULT_RIDGE, v)
    assert from_gram == pytest.approx(rows, rel=1e-10, abs=1e-12)
    with pytest.raises(NumericalError):
        ridge_residuals(design, np.full((11, 11), np.inf), DEFAULT_RIDGE, v)


@pytest.mark.parametrize("k", [2, 20, 100])
def test_projector_of_a_buffer_view_is_bitwise_the_contiguous_one(k):
    # the predictors hand ridge_residuals a row-strided view of their
    # buffer; BLAS must give it the same bits as a contiguous copy
    rng = np.random.default_rng(k)
    n = k + 30
    rows = DesignRows()
    for x in 1.0 + 3.0 * rng.standard_normal((n - 1, k)):
        rows.append(x, 0.0)
    design = rows.with_row(rng.standard_normal(k))
    v = rng.standard_normal((n, 4))
    for width in sorted({min(LEADING_BLOCK, k) + 1, k + 1}):
        view = design[:, :width]
        assert view.flags.c_contiguous == (width == k + 1)
        assert np.shares_memory(view, design)
        copy = np.ascontiguousarray(view)
        strided = ridge_residuals(view, view.T @ view, 0.01, v, v[:, 0])
        contiguous = ridge_residuals(copy, copy.T @ copy, 0.01, v, v[:, 0])
        for a, b in zip(strided, contiguous):
            assert np.array_equal(a, b)


def test_each_column_block_is_solved_on_its_own():
    # a block's residuals do not depend on the blocks passed with it, and the
    # mirror lines of ridge_lines are those of the reflected response vector
    rng = np.random.default_rng(11)
    design = np.column_stack((np.ones(7), rng.standard_normal((7, 2))))
    ys = rng.standard_normal(6)
    v = rng.standard_normal((7, 2))
    mirror = rng.standard_normal(7)
    mirror /= np.linalg.norm(mirror)
    gram = design.T @ design
    alone, = ridge_residuals(design, gram, DEFAULT_RIDGE, v)
    together, reflected = ridge_residuals(design, gram, DEFAULT_RIDGE, v, mirror)
    assert np.array_equal(alone, together)
    lines = ridge_lines(design, ys, DEFAULT_RIDGE, mirror)
    assert lines.slopes.size == 14
    observed = ridge_lines(design, ys, DEFAULT_RIDGE)
    assert np.array_equal(lines.slopes[7:], observed.slopes)
    assert np.array_equal(lines.intercepts[7:], observed.intercepts)
    for y in (-2.0, 0.5):
        full = np.append(ys, y)
        want, = ridge_residuals(design, gram, DEFAULT_RIDGE, full - 2.0 * (mirror @ full) * mirror)
        assert lines.at(y)[:7] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _relative_gap(got: AffineResiduals, want: AffineResiduals) -> float:
    """Largest difference of slopes and of intercepts, each relative to the largest of ``want``.

    All-zero intercepts (step 1, no stored response) must match exactly.
    """
    gaps = []
    for g, w in ((got.slopes, want.slopes), (got.intercepts, want.intercepts)):
        scale = float(np.max(np.abs(w)))
        gaps.append(float(np.max(np.abs(g - w))) / (scale if scale > 0.0 else 1.0))
    return max(gaps)


@pytest.mark.parametrize("k, size", [(20, 120), (2, 210), (3, 60)])
def test_ridge_lines_agree_with_the_least_squares_oracle(k, size):
    # iid's lines and those of iid-gauss's exact steps, the mirror point's on
    # its d = 1 step included, against the augmented least-squares oracle,
    # which forms no U'U; at a feature offset the Cholesky solve drifts from
    # it as kappa(U)^2 (ROADMAP item 17), so none is applied here
    stream = generate(SyntheticSpec(k=k, n=size, seed=0))
    iid, iid_gauss = IidPredictor(), IidGaussPredictor(mc_samples=10)
    mirrored = 0
    for n, obs in enumerate(stream, start=1):
        rows = np.array([o.x for o in stream[:n]])
        ys = np.array([o.y for o in stream[: n - 1]])
        want = ridge_residual_affine(rows[:-1], ys, obs.x)
        assert _relative_gap(iid.begin_step(obs.x).residuals, want) <= 1e-10, n
        ctx = iid_gauss.begin_step(obs.x)
        if ctx.exact:
            lines = ctx.atoms.residuals
            observed = AffineResiduals(slopes=lines.slopes[-n:], intercepts=lines.intercepts[-n:])
            assert _relative_gap(observed, want) <= 1e-10, n
        if ctx.exact and lines.slopes.size == 2 * n:
            # the slice's other point Y - 2(u'Y)u, u the null direction of Z'
            u = np.linalg.svd(np.column_stack((np.ones(n), rows)))[0][:, -1]
            point = np.zeros((n, 2))
            point[:-1, 0], point[-1, 1] = ys, 1.0
            point -= 2.0 * u[:, None] * (u @ point)
            both = ridge_residuals_qr(ridge_design(rows, n), point)
            reflected = AffineResiduals(slopes=lines.slopes[:n], intercepts=lines.intercepts[:n])
            assert _relative_gap(reflected, AffineResiduals(both[:, 1], both[:, 0])) <= 1e-10, n
            mirrored += 1
        for pred in (iid, iid_gauss):
            pred.observe(obs)
    assert mirrored == 1


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
    # iid, mva and iid-gauss factor U'U + aI once per informative step, d = 1
    # steps included, each time inside ridge_factor, and no other Cholesky
    # call factors it
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
        pred = make_predictor(RunConfig(predictor=kind, smoothed=False))
        factored, mirrored = [], []
        for n, obs in enumerate(stream, start=1):
            ridged.clear()
            kernel_calls.clear()
            ctx = pred.begin_step(obs.x)
            factored.append(len(ridged))
            if kind == "iid-gauss" and ctx.exact and ctx.atoms.n == 2 * n:
                mirrored.append(n)
            within = [name for name, nested in kernel_calls if nested]
            assert within == ["ridge Gram matrix U'U + aI"] * len(ridged), (kind, n)
            assert not any("U'U" in name for name, nested in kernel_calls if not nested), kind
            pred.observe(obs)
        assert factored == [0] * (informative_from - 1) + [1] * (121 - informative_from), kind
        assert mirrored == ([22] if kind == "iid-gauss" else []), kind  # n = K + 2 has d = 1


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
