"""Student-t upper tail and its upper quantile.

Thin wrappers over the compiled ufuncs ``stdtr`` and ``stdtrit`` of
``scipy.special`` that add the input checks and special cases of this
package and always return a Python ``float``.  ``scipy.stats`` is not
involved, so the predictors' hot path loads none of it.  This is the only
module that touches ``scipy.special``, and it binds it on the first call
of either function, not on import: only the gauss and mva predictors take
a t tail or quantile.  The test suite checks every function against an
independent quadrature oracle.
"""

from __future__ import annotations

import math
from functools import cache


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
    _check_df(df)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
    if delta == 0.5:
        return 0.0
    # Invert the lower tail at the smaller probability, which keeps full
    # relative precision for small delta: P(T > -t) = 1 - P(T > t).
    if delta > 0.5:
        return -t_upper_point(1.0 - delta, df)
    return float(-_special().stdtrit(df, delta))
