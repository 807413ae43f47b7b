"""Dense linear-algebra helpers for the regression predictors.

Everything here is a thin, contract-checked layer over numpy/scipy
factorizations.  No routine ever forms an explicit matrix inverse; SPD
systems go through Cholesky, and rank decisions use a relative
singular-value cutoff.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Relative cutoff deciding when a pivot/singular value counts as zero.
RANK_RTOL = 1e-10


class NumericalError(ArithmeticError):
    """A factorization or solve failed (singular system, bad conditioning)."""


def _as_matrix(a, name: str = "matrix") -> Matrix:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_vector(v, name: str = "vector") -> Vector:
    w = np.asarray(v, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains non-finite entries")
    return w


def spd_solve(gram: Matrix, rhs) -> Vector | Matrix:
    """Solve ``gram @ x = rhs`` for symmetric positive-definite ``gram``.

    Uses a Cholesky factorization; raises :class:`NumericalError` when the
    matrix is not numerically positive definite.
    """
    gram = _as_matrix(gram, "gram")
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix is not positive definite: {exc}") from exc
    diag = np.abs(np.diag(factor[0]))
    if diag.min() < RANK_RTOL * diag.max():
        raise NumericalError("matrix is numerically singular")
    return cho_solve(factor, np.asarray(rhs, dtype=float), check_finite=False)
