"""Feature schedule and the shared ridge-residual affine machinery."""

import numpy as np
import pytest

from oracles import ridge_residual_affine

from cpreg import AffineResiduals, FeatureSchedule, RidgeResidualMap
from cpreg.design import DesignState
from cpreg.linalg import NumericalError

# Intercept-only designs admit exact rational residual coefficients:
# with m stored responses plus the candidate, the smoother weight is
# 1/(m + 1 + a), so the candidate's own slope is (m + a)/(m + 1 + a)
# and every other slope is -1/(m + 1 + a).  At a = 0.01:
DUMMY_2OBS_SLOPES = (-100.0 / 201.0, 101.0 / 201.0)  # one stored + candidate
DUMMY_3OBS_SLOPES = (-100.0 / 301.0, -100.0 / 301.0, 201.0 / 301.0)


def test_schedule_default_table():
    sched = FeatureSchedule()
    assert sched.ridge == pytest.approx(0.01)
    # large feature count: leading block of 10 until the full threshold
    assert sched.features_used(102, 100) == 10
    assert sched.features_used(103, 100) == 100
    assert sched.features_used(600, 100) == 100
    # small feature count: the block never exceeds what exists
    assert sched.features_used(2, 3) == 3
    assert sched.features_used(50, 3) == 3


def test_schedule_override_threshold():
    sched = FeatureSchedule(full_from=5)
    assert sched.features_used(4, 20) == 10
    assert sched.features_used(5, 20) == 20
    narrow = FeatureSchedule(leading_block=2, full_from=7)
    assert narrow.features_used(6, 9) == 2
    assert narrow.features_used(7, 9) == 9


def test_dummy_only_affine_oracle():
    """Zero-feature data exercises the smoother against exact fractions."""
    sched = FeatureSchedule()
    one = ridge_residual_affine(np.empty((1, 0)), np.array([7.0]), np.empty(0), sched)
    assert one.slopes == pytest.approx(DUMMY_2OBS_SLOPES, rel=1e-14)
    assert one.intercepts == pytest.approx((7.0 * 101.0 / 201.0, -7.0 * 100.0 / 201.0), rel=1e-14)

    two = ridge_residual_affine(np.empty((2, 0)), np.array([1.0, 2.0]), np.empty(0), sched)
    assert two.slopes == pytest.approx(DUMMY_3OBS_SLOPES, rel=1e-14)
    # intercept of the candidate slot: -(y1 + y2)/3.01
    assert two.intercepts[-1] == pytest.approx(-3.0 / 3.01, rel=1e-14)


def test_affine_matches_direct_recompute():
    """e_i(y) from the affine form equals a from-scratch ridge fit at that y."""
    rng = np.random.default_rng(21)
    sched = FeatureSchedule()
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        xs = rng.standard_normal((n, k))
        ys = rng.standard_normal(n)
        x_new = rng.standard_normal(k)
        aff = ridge_residual_affine(xs, ys, x_new, sched)
        for y in (-2.0, 0.3, 5.0):
            stacked = np.vstack((xs, x_new[None, :]))
            kd = sched.features_used(n + 1, k)
            design = np.column_stack((np.ones(n + 1), stacked[:, :kd]))
            v = np.concatenate((ys, [y]))
            coef = np.linalg.solve(
                design.T @ design + sched.ridge * np.eye(kd + 1), design.T @ v
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
    sched = FeatureSchedule()
    rmap = RidgeResidualMap(xs, 5, sched)
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
    # as the one that forms U'U from the rows, on the leading block too
    rng = np.random.default_rng(9)
    xs = 3.0 + rng.standard_normal((30, 6))
    sched = FeatureSchedule(leading_block=4, full_from=40)
    state = DesignState()
    for x in xs[:-1]:
        state.append(x, 0.0)
    raw = state.raw_moments()
    z_n = np.concatenate(([1.0], xs[-1]))
    gram = (raw[:-1, :-1] + np.outer(z_n, z_n))[:5, :5]
    design = np.column_stack((np.ones(30), xs[:, :4]))
    v = rng.standard_normal((30, 3))
    rows = RidgeResidualMap(xs, 30, sched).apply(v)
    from_gram = RidgeResidualMap.from_gram(design, gram, sched.ridge)
    assert from_gram.apply(v) == pytest.approx(rows, rel=1e-10, abs=1e-12)
    with pytest.raises(NumericalError):
        RidgeResidualMap.from_gram(design, np.full((5, 5), np.inf), sched.ridge)


def test_schedule_validation():
    with pytest.raises(ValueError):
        FeatureSchedule(ridge=-1.0)
    with pytest.raises(ValueError):
        FeatureSchedule(leading_block=-1)
    with pytest.raises(ValueError):
        FeatureSchedule(full_from=0)
