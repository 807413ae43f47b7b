"""Ridge residuals as affine functions of the unseen response.

When the candidate response y of the newest observation is left symbolic,
every residual of the ridge fit is an affine function of y.  This module
computes those slope/intercept pairs and exposes the residual projector
``v -> (I - U (U'U + aI)^{-1} U') v`` itself, which several predictors
share.

The feature schedule decides how many explanatory columns enter the
design at a given step: a small leading block early on, all of them once
enough observations have accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

from .linalg import NumericalError

DEFAULT_RIDGE = 0.01
DEFAULT_LEADING_BLOCK = 10


@dataclass(frozen=True)
class FeatureSchedule:
    """Step-indexed choice of design width plus the ridge coefficient.

    ``features_used(n, k_total)`` returns how many explanatory columns the
    design uses at step ``n`` when the data has ``k_total`` of them: the
    leading block (capped at ``k_total``) before step ``full_from``, all
    ``k_total`` from then on.  ``full_from=None`` defaults the threshold
    to ``k_total + 3``, the first step at which a classical regression
    interval is available.
    """

    ridge: float = DEFAULT_RIDGE
    leading_block: int = DEFAULT_LEADING_BLOCK
    full_from: int | None = None

    def __post_init__(self):
        if not self.ridge > 0.0:
            raise ValueError(f"ridge coefficient must be positive, got {self.ridge}")
        if self.leading_block < 0:
            raise ValueError("leading block size must be >= 0")
        if self.full_from is not None and self.full_from < 1:
            raise ValueError("schedule threshold must be >= 1")

    def features_used(self, n: int, k_total: int) -> int:
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        threshold = self.full_from if self.full_from is not None else k_total + 3
        if n < threshold:
            return min(self.leading_block, k_total)
        return k_total


@dataclass(frozen=True)
class AffineResiduals:
    """Residuals ``e_i(y) = intercepts[i] + slopes[i] * y`` of one step."""

    slopes: NDArray[np.float64]
    intercepts: NDArray[np.float64]

    def at(self, y: float) -> NDArray[np.float64]:
        return self.intercepts + self.slopes * y


class RidgeResidualMap:
    """The residual projector of one step's ridge design.

    Built from the full feature matrix of the step (history rows first,
    the new observation's features last).  The design is the dummy ones
    column plus the scheduled number of leading feature columns.
    """

    def __init__(self, features: NDArray[np.float64], step: int, schedule: FeatureSchedule):
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, k_total = features.shape
        if n < 1:
            raise ValueError("need at least one row")
        used = schedule.features_used(step, k_total)
        self.design = np.hstack([np.ones((n, 1)), features[:, :used]])
        gram = self.design.T @ self.design
        if not np.isfinite(gram).all():
            raise NumericalError("ridge Gram matrix U'U has non-finite entries (features too large)")
        gram.flat[:: used + 2] += schedule.ridge  # the diagonal
        self._factor = cho_factor(gram, lower=True, check_finite=False)
        self.n = n
        self.columns = used + 1

    def apply(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Residual projector applied to a vector or a stack of columns."""
        coef = cho_solve(self._factor, self.design.T @ v, check_finite=False)
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
        padded = np.append(y_prefix, 0.0)
        unit_last = np.zeros(self.n)
        unit_last[-1] = 1.0
        both = self.apply(np.column_stack([padded, unit_last]))
        return AffineResiduals(slopes=both[:, 1], intercepts=both[:, 0])


def ridge_residual_affine(
    x_history: NDArray[np.float64],
    y_history: NDArray[np.float64],
    x_new: NDArray[np.float64],
    schedule: FeatureSchedule,
) -> AffineResiduals:
    """Affine residual coefficients for history plus one new feature row."""
    x_history = np.asarray(x_history, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if x_history.ndim != 2:
        x_history = x_history.reshape(len(y_history), -1)
    rows = np.vstack([x_history, x_new[None, :]]) if x_history.shape[0] else x_new[None, :]
    step = rows.shape[0]
    return RidgeResidualMap(rows, step, schedule).affine_in_last(np.asarray(y_history, dtype=float))
