"""Common interface of the on-line predictors.

Each predictor separates a step into two phases enforcing the on-line
protocol's information flow:

1. ``begin_step(x_new)`` sees only the new feature vector and returns a
   step context holding everything expensive (factorizations, critical
   points, Monte-Carlo draws).
2. ``raw_regions(ctx, levels, tau)`` and ``pvalue(ctx, y, tau)`` read the
   context; the true response enters only through ``pvalue`` and the
   subsequent ``observe``.  One ``raw_regions`` call gives the regions of
   every significance level of the step, so a predictor that builds them
   from one table reads it once; ``raw_region`` is that call at one level.

``tau`` is the smoothing draw of the step: pass 1.0 for the deterministic
variant, a fresh uniform draw for the smoothed one.  One tau serves every
significance level of the step.  ``raw_regions`` and ``pvalue`` check the
levels and tau here, once for every predictor, and hand them as floats to
the predictor's ``_raw_regions`` and ``_pvalue``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..regions import PredictionRegion
from ..stream import Observation


class OnlinePredictor(ABC):
    """Stateful on-line predictor over a stream of observations."""

    @abstractmethod
    def begin_step(self, x_new: np.ndarray) -> Any:
        """Prepare the step for a new feature vector (response unseen)."""

    @abstractmethod
    def _raw_regions(
        self, ctx: Any, levels: list[float], tau: float
    ) -> list[PredictionRegion]:
        """``raw_regions`` on levels and tau already checked."""

    @abstractmethod
    def _pvalue(self, ctx: Any, y: float, tau: float) -> float:
        """``pvalue`` on a tau already checked."""

    @abstractmethod
    def observe(self, obs: Observation) -> None:
        """Absorb one observation into the state."""

    def first_informative_step(self, k: int) -> int:
        """First step at which the predictor is informative, given ``k`` features.

        Earlier steps predict the whole real line and their p-value is the
        bare smoothing draw, so error-frequency checks start here.
        """
        return 1

    def raw_regions(
        self, ctx: Any, levels: Sequence[float], tau: float
    ) -> list[PredictionRegion]:
        """Prediction regions {y : p(y) > eps} before any hulling, one per level."""
        return self._raw_regions(ctx, [check_epsilon(eps) for eps in levels], check_tau(tau))

    def pvalue(self, ctx: Any, y: float, tau: float) -> float:
        """Realized p-value of a candidate response."""
        return self._pvalue(ctx, y, check_tau(tau))

    def raw_region(self, ctx: Any, eps: float, tau: float) -> PredictionRegion:
        """Prediction region {y : p(y) > eps} at one level before any hulling."""
        return self.raw_regions(ctx, (eps,), tau)[0]

    def region(self, ctx: Any, eps: float, tau: float) -> PredictionRegion:
        """Region as reported in the ledger: the convex hull of the raw region."""
        return self.raw_region(ctx, eps, tau).convex_hull()


def check_epsilon(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {eps}")
    return eps


def check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"smoothing draw must lie in [0, 1], got {tau}")
    return tau
