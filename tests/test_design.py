"""The shared design summary: history buffer, centred moments and Gram block."""

import numpy as np
import pytest

from oracles import eager_fold, stream_arrays

from cpreg import NumericalError, SyntheticSpec, generate
from cpreg.design import INITIAL_CAPACITY, DesignRows, DesignState


def rows(count, k, seed):
    rng = np.random.default_rng(seed)
    xs = 3.0 + rng.normal(size=(count, k)) * np.arange(1.0, k + 1.0)
    ys = -2.0 + xs @ np.linspace(0.5, -1.0, k) + rng.normal(size=count)
    return xs, ys


def test_moments_and_raw_view_match_two_pass_sums():
    xs, ys = rows(50, 3, 10)
    state = DesignState()
    for step, (x, y) in enumerate(zip(xs, ys), start=1):
        state.append(x, y)
        z = np.column_stack((xs[:step], ys[:step]))
        mean = z.sum(axis=0) / step
        centred = z - mean
        u = np.column_stack((np.ones(step), xs[:step]))
        assert state.count == step
        assert state.mean == pytest.approx(mean, rel=1e-12)
        assert state.comoment == pytest.approx(centred.T @ centred, rel=1e-12, abs=1e-12)
        for cols in range(1, xs.shape[1] + 2):
            lead = u[:, :cols]
            assert state.gram(cols) == pytest.approx(lead.T @ lead, rel=1e-12)


def test_buffer_rows_survive_several_doublings():
    count = 5 * INITIAL_CAPACITY  # the buffer doubles three times
    xs, ys = rows(count, 2, 11)
    state = DesignState()
    for step, (x, y) in enumerate(zip(xs, ys)):
        staged = state.with_row(x)
        assert staged.flags.c_contiguous
        assert np.array_equal(staged, np.column_stack((np.ones(step + 1), xs[: step + 1])))
        state.append(x, y)
        assert np.array_equal(state.x, xs[: step + 1])
        assert np.array_equal(state.y, ys[: step + 1])
    assert np.array_equal(state.with_row(xs[0])[:, 0], np.ones(count + 1))


def test_the_row_buffer_holds_the_design_and_no_moments():
    count = 3 * INITIAL_CAPACITY  # the buffer doubles twice
    xs, ys = rows(count, 3, 13)
    state = DesignRows()
    for step, (x, y) in enumerate(zip(xs, ys)):
        design = state.with_row(x)
        assert np.array_equal(design, np.column_stack((np.ones(step + 1), xs[: step + 1])))
        state.append(x, y)
    assert state.count == count and state.dim == 3
    assert np.array_equal(state.x, xs) and np.array_equal(state.y, ys)
    assert not hasattr(state, "mean") and not hasattr(state, "comoment")


def test_staging_a_row_leaves_the_history_alone():
    xs, ys = rows(3, 2, 12)
    state = DesignState()
    for x, y in zip(xs, ys):
        state.append(x, y)
    mean, comoment = state.mean.copy(), state.comoment.copy()
    state.with_row(np.array([100.0, -100.0]))
    assert state.count == 3
    assert np.array_equal(state.x, xs)
    assert np.array_equal(state.mean, mean)
    assert np.array_equal(state.comoment, comoment)


def test_wrong_dimensions_raise_value_error():
    state = DesignState()
    with pytest.raises(ValueError):
        state.check_x(np.eye(2))
    with pytest.raises(ValueError):
        state.with_row(np.eye(2))
    state.append(np.array([1.0, 2.0]), 0.5)
    assert state.dim == 2
    for bad in (np.array([1.0]), np.array([1.0, 2.0, 3.0])):
        with pytest.raises(ValueError):
            state.check_x(bad)
        with pytest.raises(ValueError):
            state.with_row(bad)
        with pytest.raises(ValueError):
            state.append(bad, 0.0)
    assert state.count == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_moments_raise_and_keep_the_state():
    state = DesignState()
    with pytest.raises(NumericalError, match="non-finite"):
        state.append(np.array([1e200]), 0.0)  # x^2 overflows in the raw view
    assert state.count == 0
    state.append(np.array([1e150]), 0.0)
    mean, comoment = state.mean, state.comoment
    with pytest.raises(NumericalError, match="non-finite"):
        state.append(np.array([-2e154]), 1.0)
    assert state.count == 1
    assert state.mean is mean and state.comoment is comoment
    assert np.array_equal(state.x, [[1e150]])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    ("k", "n", "x_offset", "y_offset"),
    [(2, 210, 0.0, 0.0), (20, 120, 0.0, 0.0), (20, 120, 1e4, 0.0), (2, 210, 0.0, 1e8)],
    ids=["k2-n210", "k20-n120", "x+1e4", "y+1e8"],
)
def test_moments_and_gram_equal_the_eager_fold_bit_for_bit(k, n, x_offset, y_offset):
    xs, ys = stream_arrays(generate(SyntheticSpec(k=k, n=n, seed=0)))
    xs, ys = xs + x_offset, ys + y_offset
    state = DesignState()
    for step, (x, y, (mean, comoment, grams)) in enumerate(zip(xs, ys, eager_fold(xs, ys)), 1):
        state.append(x, y)
        assert np.array_equal(state.mean, mean), step
        assert np.array_equal(state.comoment, comoment), step
        for cols, gram in enumerate(grams, start=1):
            assert np.array_equal(state.gram(cols), gram), (step, cols)
    message = r"^design moments have non-finite entries \(data too large\)$"
    with pytest.raises(NumericalError, match=message):
        state.append(np.full(k, 1e200), 0.0)
    assert state.count == n
