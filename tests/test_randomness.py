"""Seeded random streams and the affine-slice sphere sampler."""

import numpy as np
import pytest

from oracles import sample_sphere_in_affine_slice, slice_geometry

from cpreg import RandomStream


def test_streams_reproducible_and_separated():
    a1 = RandomStream(42, substream=0).gaussian(6)
    a2 = RandomStream(42, substream=0).gaussian(6)
    b = RandomStream(42, substream=1).gaussian(6)
    c = RandomStream(43, substream=0).gaussian(6)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_integers_range():
    rng = RandomStream(7)
    draws = rng.integers(0, 5, 1000)
    assert draws.min() >= 0 and draws.max() < 5
    # all residues hit over 1000 draws
    assert set(np.unique(draws).tolist()) == {0, 1, 2, 3, 4}


def test_uniform_in_unit_interval():
    rng = RandomStream(9)
    us = np.array([rng.uniform() for _ in range(2000)])
    assert us.min() >= 0.0 and us.max() <= 1.0
    assert abs(us.mean() - 0.5) < 0.03


@pytest.mark.parametrize("seed, substream", [(0, 0), (0, 1), (9, 0), (123456, 3)])
def test_batched_uniforms_are_the_one_at_a_time_draws(seed, substream):
    for count in (0, 1, 600):
        one_at_a_time = RandomStream(seed, substream)
        batched = RandomStream(seed, substream).uniforms(count)
        assert batched == [one_at_a_time.uniform() for _ in range(count)]
        assert all(type(u) is float for u in batched)
    # a batch continues the stream where the single draws left it
    mixed = RandomStream(seed, substream)
    head = [mixed.uniform() for _ in range(3)]
    assert head + mixed.uniforms(5) == RandomStream(seed, substream).uniforms(8)
    with pytest.raises(ValueError):
        RandomStream(seed, substream).uniforms(-1)


def test_slice_geometry_consistency():
    rng = np.random.default_rng(31)
    constraints = np.column_stack((np.ones(6), rng.standard_normal(6)))
    target = rng.standard_normal(6)
    rhs = constraints.T @ target
    center, basis = slice_geometry(constraints, rhs)
    # center solves the constraints and the basis spans their null space
    assert constraints.T @ center == pytest.approx(rhs, abs=1e-10)
    assert constraints.T @ basis == pytest.approx(np.zeros((2, basis.shape[1])), abs=1e-10)
    assert basis.T @ basis == pytest.approx(np.eye(basis.shape[1]), abs=1e-10)
    # minimum-norm center is orthogonal to the null space
    assert basis.T @ center == pytest.approx(np.zeros(basis.shape[1]), abs=1e-10)


def test_sphere_sample_satisfies_constraints():
    rng_data = np.random.default_rng(4)
    stream = RandomStream(12)
    for _ in range(40):
        n = int(rng_data.integers(3, 9))
        constraints = np.column_stack((np.ones(n), rng_data.standard_normal(n)))
        truth = rng_data.standard_normal(n)
        rhs = constraints.T @ truth
        norm2 = float(truth @ truth)
        y = sample_sphere_in_affine_slice(stream, constraints, rhs, norm2)
        assert constraints.T @ y == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        assert float(y @ y) == pytest.approx(norm2, rel=1e-9)


def test_sphere_sample_single_point():
    # One observation: the constraint pins the value completely.
    stream = RandomStream(3)
    y = sample_sphere_in_affine_slice(stream, np.ones((1, 1)), np.array([-2.5]), 6.25)
    assert y == pytest.approx([-2.5], abs=1e-12)


def test_sphere_sample_spreads_over_the_slice():
    """Projections onto a null direction should change sign across draws."""
    stream = RandomStream(77)
    constraints = np.ones((4, 1))
    rhs = np.array([0.0])
    draws = np.array([sample_sphere_in_affine_slice(stream, constraints, rhs, 4.0) for _ in range(200)])
    # every coordinate takes both signs somewhere in the sample
    assert (draws > 0.1).any(axis=0).all()
    assert (draws < -0.1).any(axis=0).all()


def test_sphere_sample_infeasible_radius():
    stream = RandomStream(5)
    constraints = np.ones((2, 1))
    with pytest.raises(ValueError):
        # sum fixed at 4 forces ||y||^2 >= 8; asking for 1 is infeasible
        sample_sphere_in_affine_slice(stream, constraints, np.array([4.0]), 1.0)
    # a tiny negative squared radius from rounding is clamped, not fatal
    y = sample_sphere_in_affine_slice(stream, constraints, np.array([4.0]), 8.0 - 1e-13)
    assert y == pytest.approx([2.0, 2.0], abs=1e-6)
