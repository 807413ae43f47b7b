"""Seeded random streams.

All randomness in the package flows through :class:`RandomStream`, a thin
wrapper over numpy's PCG64 generator.  A stream is identified by its seed
and an optional substream index, so any run is exactly reproducible from
its configuration.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.typing import NDArray


def check_integer(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int; a non-integer or one below ``minimum`` is refused by name."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        least = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {least}, got {value}")
    return value


class RandomStream:
    """Reproducible pseudo-random stream (PCG64 behind a fixed interface).

    Parameters
    ----------
    seed : int
        Base seed of the stream.
    substream : int, optional
        Index separating independent streams sharing one seed (e.g. the
        smoothing draws and the Monte-Carlo draws of a run).
    """

    def __init__(self, seed: int, substream: int = 0):
        self.seed = check_integer("seed", seed)
        self.substream = check_integer("substream", substream)
        key = (self.substream,) if self.substream else None
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key or ()))
        )

    def gaussian(self, count: int) -> NDArray[np.float64]:
        """``count`` independent standard normal draws."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self._gen.standard_normal(count)

    def gaussian_matrix(self, rows: int, cols: int) -> NDArray[np.float64]:
        """A (rows, cols) matrix of independent standard normal draws."""
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        return self._gen.standard_normal((rows, cols))

    def chisquare(self, df: float, count: int) -> NDArray[np.float64]:
        """``count`` independent chi-square draws with ``df`` degrees of freedom."""
        if df <= 0:
            raise ValueError(f"df must be > 0, got {df}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self._gen.chisquare(df, count)

    def uniform(self) -> float:
        """One uniform draw from [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, count: int) -> list[float]:
        """``count`` uniform draws from [0, 1): the same sequence as ``count``
        successive :meth:`uniform` calls, drawn in one call."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self._gen.random(count).tolist()

    def integers(self, low: int, high: int, count: int) -> NDArray[np.int64]:
        """``count`` uniform integers in ``[low, high)``."""
        return self._gen.integers(low, high, size=count)
