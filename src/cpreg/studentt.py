"""Student-t upper tail and its upper quantile.

Thin wrappers over the compiled ufuncs ``stdtr`` and ``stdtrit`` of
``scipy.special`` that add the input checks and special cases of this
package and always return Python ``float`` values.  ``scipy.stats`` is not
involved, so the predictors' hot path loads none of it.  This is the only
module that touches ``scipy.special``, and it binds it on the first call
that needs it, not on import: only the gauss and mva predictors take a t
tail or quantile, and the batteries' ``binomial_band`` binomial quantiles.
:func:`t_upper_points` gives the quantiles of all of a step's levels from
one ``stdtrit`` call; :func:`t_upper_point` is that call at one level.  The
test suite checks every function against an independent quadrature oracle.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence


@cache
def _special():
    """``scipy.special``, imported on the first call only."""
    from scipy import special

    return special


def _check_df(df: float) -> None:
    if not df > 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")


def t_sf(x: float, df: float) -> float:
    """Upper tail P(T > x), computed as the lower tail at -x to keep precision far out."""
    _check_df(df)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return float(_special().stdtr(df, -x))


def t_upper_point(delta: float, df: float) -> float:
    """The point t with P(T > t) = ``delta``, i.e. the upper ``delta`` quantile."""
    return t_upper_points((delta,), df)[0]


def t_upper_points(deltas: Sequence[float], df: float) -> list[float]:
    """:func:`t_upper_point` of every delta at one ``df``, from one ``stdtrit`` call."""
    _check_df(df)
    lower = []
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
        # Invert the lower tail at the smaller probability, which keeps full
        # relative precision for small delta: P(T > -t) = 1 - P(T > t).
        lower.append(delta if delta < 0.5 else 1.0 - delta)
    points = _special().stdtrit(df, lower).tolist()
    for i, delta in enumerate(deltas):
        if delta <= 0.5:
            points[i] = -points[i] if delta < 0.5 else 0.0
    return points
