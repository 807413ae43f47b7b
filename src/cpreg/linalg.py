"""Shared numerical constants and the package's one LAPACK module.

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
:func:`reciprocal_condition` and :func:`triangular_solve` wrap ``dtrcon``
and ``dtrtrs`` on such a factor in the same way.

This is the package's one LAPACK module, the only one that touches
``scipy.linalg``, and it binds ``scipy.linalg.lapack`` on the first
factorization or solve, not on import: importing ``scipy.linalg`` took
0.36 s of a 0.67 s ``import cpreg`` when this module imported it at the
top (``python -X importtime``, scipy 1.17, Python 3.11, x86-64), and
``cpreg generate``, ``report`` and the wilks predictor never factor a
matrix.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from numpy.typing import NDArray

# Relative cutoff deciding when a pivot/singular value counts as zero.
RANK_RTOL = 1e-10


class NumericalError(ArithmeticError):
    """A factorization or solve failed (singular system, bad conditioning)."""


@cache
def _lapack():
    """``scipy.linalg.lapack``, imported on the first call only."""
    from scipy.linalg import lapack

    return lapack


def cholesky_factor(matrix: NDArray[np.float64], name: str = "matrix") -> NDArray[np.float64]:
    """Cholesky factor L of the symmetric positive definite ``matrix`` = LL'.

    Only the lower triangle of ``matrix`` is read, and only the lower
    triangle of the result holds L (the strict upper one keeps the input).
    Raises :class:`NumericalError`, naming the matrix, its order and the
    order of the first failing leading minor (LAPACK's ``info``), when a
    pivot is not positive or not finite.
    """
    factor, info = _lapack().dpotrf(matrix, lower=1, clean=0)
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
    out, info = _lapack().dpotrs(factor, rhs, lower=1)
    if info != 0:  # pragma: no cover - the wrapper validates the arguments
        raise ValueError(f"dpotrs rejected argument {-info}")
    return out


def reciprocal_condition(factor: NDArray[np.float64]) -> float:
    """LAPACK's estimate of the 1-norm reciprocal condition of a factor L.

    ``factor`` is one from :func:`cholesky_factor`; only its lower
    triangle is read.
    """
    rcond, info = _lapack().dtrcon(factor, norm="1", uplo="L")
    if info != 0:  # pragma: no cover - the wrapper validates the arguments
        raise ValueError(f"dtrcon rejected argument {-info}")
    return float(rcond)


def triangular_solve(factor: NDArray[np.float64], rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve L x = ``rhs`` for the lower triangle L of ``factor``.

    ``rhs`` is a vector or a stack of columns; ``x`` has its shape.  Raises
    :class:`NumericalError`, naming the first zero diagonal entry (LAPACK's
    ``info``), when L is singular.
    """
    out, info = _lapack().dtrtrs(factor, rhs, lower=1)
    if info < 0:  # pragma: no cover - the wrapper validates the arguments
        raise ValueError(f"dtrtrs rejected argument {-info}")
    if info > 0:
        raise NumericalError(
            f"triangular factor of order {factor.shape[0]} is singular: "
            f"its diagonal entry {info} is zero"
        )
    return out
