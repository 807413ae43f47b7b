"""Shared numerical constants and the package's one Cholesky kernel.

No routine in the package forms an explicit matrix inverse: SPD systems go
through :func:`cholesky_factor` and :func:`cholesky_solve`, and rank
decisions use the relative cutoff below.  The pair calls LAPACK's
``dpotrf``/``dpotrs`` on the lower triangle directly, so its results are
bit for bit those of ``scipy.linalg.cho_factor``/``cho_solve`` with
``lower=True``, which call the same routines, without the wrappers'
per-call checks of shape and finiteness, which cost five times the
LAPACK call itself on the small systems here (10-13 us against 2 us at
order 3, scipy 1.17 on x86-64).  Callers pass square float arrays; a
non-finite matrix is reported through its pivots instead.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf, dpotrs

# Relative cutoff deciding when a pivot/singular value counts as zero.
RANK_RTOL = 1e-10


class NumericalError(ArithmeticError):
    """A factorization or solve failed (singular system, bad conditioning)."""


def cholesky_factor(matrix: NDArray[np.float64], name: str = "matrix") -> NDArray[np.float64]:
    """Cholesky factor L of the symmetric positive definite ``matrix`` = LL'.

    Only the lower triangle of ``matrix`` is read, and only the lower
    triangle of the result holds L (the strict upper one keeps the input).
    Raises :class:`NumericalError`, naming the matrix, its order and the
    order of the first failing leading minor (LAPACK's ``info``), when a
    pivot is not positive or not finite.
    """
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info < 0:  # pragma: no cover - the wrapper validates the arguments
        raise ValueError(f"dpotrf rejected argument {-info}")
    reason = "is not positive"
    # LAPACK stops at a non-positive pivot but not at a NaN one; a NaN or
    # infinite entry of the lower triangle leaves a non-finite pivot (all
    # pivots are >= 0, so their sum is finite exactly when each one is).
    if info == 0 and not math.isfinite(sum(factor.diagonal().tolist())):
        info = int(np.argmin(np.isfinite(factor.diagonal()))) + 1
        reason = "has a non-finite pivot"
    if info > 0:
        raise NumericalError(
            f"{name} of order {factor.shape[0]} is not positive definite: "
            f"its leading minor of order {info} {reason}"
        )
    return factor


def cholesky_solve(factor: NDArray[np.float64], rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve LL' x = ``rhs`` for a factor from :func:`cholesky_factor`.

    ``rhs`` is a vector or a stack of columns; ``x`` has its shape.
    """
    out, info = dpotrs(factor, rhs, lower=1)
    if info != 0:  # pragma: no cover - the wrapper validates the arguments
        raise ValueError(f"dpotrs rejected argument {-info}")
    return out
