"""The observation type shared by predictors, protocol, and dataset I/O."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class Observation:
    """One (x, y) pair: a feature vector and a real response."""

    __slots__ = ("x", "y")

    def __init__(self, x, y: float):
        vec = np.asarray(x, dtype=float)
        if vec.ndim != 1:
            raise ValueError(f"x must be a 1-D vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("x contains non-finite entries")
        y = float(y)
        if not math.isfinite(y):
            raise ValueError(f"y must be finite, got {y}")
        vec.flags.writeable = False
        object.__setattr__(self, "x", vec)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Observation is immutable")

    def __repr__(self):
        return f"Observation(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Observation)
            and self.y == other.y
            and self.x.shape == other.x.shape
            and bool(np.all(self.x == other.x))
        )


def check_stream(stream: Sequence[Observation]) -> int:
    """Validate a stream's dimensional consistency; returns the x dimension.

    An empty stream is fine and reports dimension 0.
    """
    dim = -1
    for i, obs in enumerate(stream):
        if not isinstance(obs, Observation):
            raise TypeError(f"stream element {i} is not an Observation")
        if dim < 0:
            dim = obs.x.shape[0]
        elif obs.x.shape[0] != dim:
            raise ValueError(
                f"observation {i + 1} has {obs.x.shape[0]} features, expected {dim}"
            )
    return max(dim, 0)
