"""Seeded random streams and the constrained sphere sampler.

All randomness in the package flows through :class:`RandomStream`, a thin
wrapper over numpy's PCG64 generator.  A stream is identified by its seed,
an optional substream index, and the algorithm tag, so any run is exactly
reproducible from its configuration.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .linalg import RANK_RTOL, _as_matrix, _as_vector

# Relative slack allowed when the squared slice radius comes out negative
# through rounding.
RADIUS_RTOL = 1e-9


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

    algorithm = "pcg64"

    def __init__(self, seed: int, substream: int = 0):
        self.seed = int(seed)
        self.substream = int(substream)
        key = (self.substream,) if self.substream else None
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key or ()))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStream(seed={self.seed}, substream={self.substream}, algorithm={self.algorithm!r})"

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

    def permutation(self, n: int) -> NDArray[np.intp]:
        """A uniformly random permutation of ``range(n)``."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, count: int) -> NDArray[np.int64]:
        """``count`` uniform integers in ``[low, high)``."""
        return self._gen.integers(low, high, size=count)


def slice_geometry(
    constraints: NDArray[np.float64], rhs: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Minimum-norm solution and null-space basis of ``Z'v = b``.

    Returns ``(v0, basis)`` where ``v0`` is the least-norm vector with
    ``Z'v0 = b`` and ``basis`` is an orthonormal (n, d) basis of the null
    space of ``Z'``; the solution set is ``{v0 + basis @ w}``.
    """
    z = _as_matrix(constraints, "constraints")
    b = _as_vector(rhs, "rhs")
    n, m = z.shape
    if b.shape[0] != m:
        raise ValueError(f"rhs has length {b.shape[0]}, expected {m}")
    # One full SVD Z = L S R' serves both needs: with v = L c the system
    # Z'v = b reads S c = R'b, so the least-norm solution uses the leading
    # singular directions and the null space of Z' is the remaining ones.
    left, sing, right_t = np.linalg.svd(z, full_matrices=True)
    cutoff = RANK_RTOL * (sing[0] if sing.size else 0.0)
    rank = int(np.sum(sing > cutoff))
    if rank == 0:
        v0 = np.zeros(n)
    else:
        v0 = left[:, :rank] @ ((right_t[:rank] @ b) / sing[:rank])
    residual = z.T @ v0 - b
    scale = max(1.0, float(np.linalg.norm(b)))
    if np.linalg.norm(residual) > 1e-8 * scale:
        raise ValueError("constraint system Z'v = b is inconsistent")
    return v0, left[:, rank:]


def sample_sphere_in_affine_slice(
    rng: RandomStream,
    constraints: NDArray[np.float64],
    rhs: NDArray[np.float64],
    squared_norm: float,
) -> NDArray[np.float64]:
    """Uniform draw from ``{v : Z'v = b, v'v = squared_norm}``.

    The slice is parametrized isometrically as ``v0 + Q w`` with ``v0`` the
    least-norm solution and ``Q`` an orthonormal null-space basis, so a
    uniformly random direction on the ``d``-sphere of radius
    ``sqrt(squared_norm - ||v0||^2)`` maps to a uniform point on the slice.

    Raises
    ------
    ValueError
        If the constraints are inconsistent, the slice is empty
        (``squared_norm`` materially below ``||v0||^2``, or the null space
        is trivial while ``squared_norm`` differs from ``||v0||^2``).
    """
    v0, basis = slice_geometry(constraints, rhs)
    norm0 = float(v0 @ v0)
    scale = max(1.0, abs(squared_norm), norm0)
    r2 = squared_norm - norm0
    if r2 < -RADIUS_RTOL * scale:
        raise ValueError(
            f"empty slice: squared norm {squared_norm} below minimum {norm0}"
        )
    r2 = max(r2, 0.0)
    d = basis.shape[1]
    if d == 0:
        if r2 > RADIUS_RTOL * scale:
            raise ValueError(
                "empty slice: constraints pin a single point with the wrong norm"
            )
        return v0
    direction = rng.gaussian(d)
    length = float(np.linalg.norm(direction))
    while length == 0.0:  # pragma: no cover - probability zero
        direction = rng.gaussian(d)
        length = float(np.linalg.norm(direction))
    return v0 + basis @ (direction * (np.sqrt(r2) / length))
