"""Observation container and stream dimension checks."""

import numpy as np
import pytest

from oracles import stream_arrays

from cpreg import Observation, check_stream


def test_observation_normalizes_inputs():
    obs = Observation([1, 2], 3)
    assert obs.x.dtype == np.float64 and obs.x.shape == (2,)
    assert isinstance(obs.y, float) and obs.y == 3.0


def test_observation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Observation(np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError):
        Observation([np.nan, 1.0], 1.0)
    with pytest.raises(ValueError):
        Observation([1.0], np.inf)


def test_check_stream_dimensions():
    stream = [Observation([1.0, 2.0], 0.5), Observation([3.0, 4.0], 1.5)]
    assert check_stream(stream) == 2
    assert check_stream([]) == 0
    bad = stream + [Observation([1.0], 9.0)]
    with pytest.raises(ValueError):
        check_stream(bad)


def test_stream_arrays_round_trip():
    stream = [Observation([1.0, 2.0], 0.5), Observation([3.0, 4.0], 1.5)]
    xs, ys = stream_arrays(stream)
    assert xs.shape == (2, 2) and ys.shape == (2,)
    assert xs[1, 0] == 3.0 and ys[0] == 0.5
