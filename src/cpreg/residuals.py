"""Ridge residuals as affine functions of the unseen response.

When the candidate response y of the newest observation is left symbolic,
every residual of the ridge fit is an affine function of y.  This module
owns the ridge system U'U + aI that iid, iid-gauss and mva solve and the
ridge design U itself: :func:`ridge_factor` is the one place that forms
and factors the system, :func:`ridge_residuals` applies the residual
projector ``v -> (I - U (U'U + aI)^{-1} U') v`` on it, :func:`ridge_columns`
cuts U from a step's full design, and :func:`ridge_lines` gives a step's
slope/intercept pairs from the rows.

The ridge design U of step n holds the dummy column and, of the K
explanatory columns, the first ``LEADING_BLOCK`` (or all K, if fewer)
before step K + 3 and all K from then on (:func:`features_used`): K + 3
is the first step at which a classical regression interval exists.  The
ridge coefficient a is the only model parameter (:func:`check_ridge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .linalg import NumericalError, cholesky_factor, cholesky_solve

DEFAULT_RIDGE = 0.01
LEADING_BLOCK = 10


def check_ridge(ridge: float) -> float:
    ridge = float(ridge)
    if not 0.0 < ridge < math.inf:
        raise ValueError(f"ridge coefficient must be positive and finite, got {ridge}")
    return ridge


def features_used(n: int, k: int) -> int:
    """Explanatory columns in the ridge design of step ``n`` out of ``k``."""
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    return k if n >= k + 3 else min(LEADING_BLOCK, k)


@dataclass(frozen=True)
class AffineResiduals:
    """Residuals ``e_i(y) = intercepts[i] + slopes[i] * y`` of one step."""

    slopes: NDArray[np.float64]
    intercepts: NDArray[np.float64]

    def at(self, y: float) -> NDArray[np.float64]:
        return self.intercepts + self.slopes * y


def ridge_factor(gram: NDArray[np.float64], ridge: float) -> NDArray[np.float64]:
    """Cholesky factor of the ridge system U'U + aI, given U'U (not penalised).

    The one place that forms and factors the system: the ridge goes onto
    the diagonal of a copy, so ``gram`` is left as it was.
    """
    if not np.isfinite(gram).all():
        raise NumericalError("ridge Gram matrix U'U has non-finite entries (features too large)")
    system = gram.copy()
    system.reshape(-1)[:: system.shape[0] + 1] += ridge  # the diagonal, in place
    return cholesky_factor(system, "ridge Gram matrix U'U + aI")


def ridge_columns(design: NDArray[np.float64]) -> NDArray[np.float64]:
    """The ridge design U of a step, a view of its full design [1, X].

    U is the dummy column and the :func:`features_used` leading feature
    columns of ``design``, whose last row is the new observation's.
    """
    n, cols = design.shape
    return design[:, : features_used(n, cols - 1) + 1]


def ridge_residuals(
    u: NDArray[np.float64], gram: NDArray[np.float64], ridge: float, *columns: NDArray[np.float64]
) -> list[NDArray[np.float64]]:
    """Each of ``columns`` less its ridge fit on U: v - U (U'U + aI)^{-1} U'v.

    ``u`` is a step's ridge design (:func:`ridge_columns`) and ``gram`` its
    U'U, formed from the rows or read from running moments, which costs no
    O(n K^2) product.  U'U + aI is factored once for all ``columns``; each,
    a vector or a stack of columns, is solved on its own, so its bits do not
    depend on what else is passed.  Each column costs O(n K).
    """
    factor = ridge_factor(gram, ridge)
    return [v - u @ cholesky_solve(factor, u.T @ v) for v in columns]


def ridge_lines(
    design: NDArray[np.float64],
    y_past: NDArray[np.float64],
    ridge: float,
    mirror: NDArray[np.float64] | None = None,
) -> AffineResiduals:
    """A step's ridge residuals as lines in its last response y.

    ``design`` is the step's full design [1, X], the new row last, and
    ``y_past`` the other rows' responses, so the response vector is
    Y = (y_past, y).  U is :func:`ridge_columns` of ``design``, and U'U is
    formed from the rows.  With ``mirror`` = m, a unit vector, the n lines
    of the mirror point Y - 2(m'Y)m come first and Y's n lines last; m's
    residual comes from the same factor, by a solve of its own.
    """
    u = ridge_columns(design)
    rhs = np.zeros((u.shape[0], 2))
    rhs[:-1, 0] = y_past
    rhs[-1, 1] = 1.0
    columns = [rhs] if mirror is None else [rhs, mirror]
    both, *reflected = ridge_residuals(u, u.T @ u, ridge, *columns)
    slopes, intercepts = both[:, 1], both[:, 0]
    if reflected:
        shift, past = 2.0 * reflected[0], mirror[:-1] @ y_past
        slopes = np.concatenate((slopes - mirror[-1] * shift, slopes))
        intercepts = np.concatenate((intercepts - past * shift, intercepts))
    return AffineResiduals(slopes=slopes, intercepts=intercepts)
