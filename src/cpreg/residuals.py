"""Ridge residuals as affine functions of the unseen response.

When the candidate response y of the newest observation is left symbolic,
every residual of the ridge fit is an affine function of y.  This module
owns the ridge system U'U + aI that iid, iid-gauss and mva solve:
:func:`ridge_factor` is the one place that forms and factors it,
:class:`RidgeResidualMap` is the residual projector
``v -> (I - U (U'U + aI)^{-1} U') v`` built on it, and :func:`ridge_lines`
gives a step's slope/intercept pairs from the rows.

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


class RidgeResidualMap:
    """The residual projector v -> (I - U (U'U + aI)^{-1} U') v of one step.

    U is the step's ridge design: the dummy ones column plus the
    :func:`features_used` leading feature columns, history rows first and
    the new observation's row last.  The caller passes U itself, typically the
    leading ``features_used + 1`` columns of a
    :class:`~cpreg.design.DesignRows` view, which stores the dummy column
    first, together with its Gram matrix U'U, formed from the rows
    (:func:`ridge_lines`) or read from running moments, so that building
    the map from moments costs no O(n K^2) product.  Applying it costs
    O(n K) per column.
    """

    def __init__(self, design: NDArray[np.float64], gram: NDArray[np.float64], ridge: float):
        self._factor = ridge_factor(gram, ridge)
        self.design = design
        self.n = design.shape[0]

    def apply(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Residual projector applied to a vector or a stack of columns."""
        coef = cholesky_solve(self._factor, self.design.T @ v)
        return v - self.design @ coef

    def affine_in_last(self, y_prefix: NDArray[np.float64]) -> AffineResiduals:
        """Residuals as affine functions of the last row's response.

        ``y_prefix`` holds the first n-1 responses; the n-th is symbolic.
        """
        y_prefix = np.asarray(y_prefix, dtype=float)
        if y_prefix.shape != (self.n - 1,):
            raise ValueError(
                f"expected {self.n - 1} known responses, got shape {y_prefix.shape}"
            )
        rhs = np.zeros((self.n, 2))
        rhs[:-1, 0] = y_prefix
        rhs[-1, 1] = 1.0
        both = self.apply(rhs)
        return AffineResiduals(slopes=both[:, 1], intercepts=both[:, 0])


def ridge_lines(
    design: NDArray[np.float64], y_past: NDArray[np.float64], ridge: float
) -> tuple[RidgeResidualMap, AffineResiduals]:
    """The projector of a step's ridge design U, and its residual lines.

    ``design`` is the step's full design [1, X], the new row last, and
    ``y_past`` the other rows' responses.  U is its dummy column and the
    :func:`features_used` leading feature columns, and U'U is formed from
    the rows.
    """
    n, cols = design.shape
    u = design[:, : features_used(n, cols - 1) + 1]
    rmap = RidgeResidualMap(u, u.T @ u, ridge)
    return rmap, rmap.affine_in_last(y_past)
