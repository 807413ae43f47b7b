"""Student-t distribution function and its upper quantile.

Thin wrappers over the compiled ufuncs of ``scipy.special`` (``stdtr``,
``stdtrit``, ``betainc``) that add the input checks and special cases of
this package and always return a Python ``float``.  ``scipy.stats`` is not
involved, so the predictors' hot path loads none of it.  The test suite
checks every function against an independent quadrature oracle.
"""

from __future__ import annotations

import math

from scipy import special


def _check_df(df: float) -> None:
    if not df > 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return float(special.betainc(a, b, x))


def t_cdf(x: float, df: float) -> float:
    """P(T <= x) for a Student-t variable with ``df`` degrees of freedom."""
    _check_df(df)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    if x == 0.0:
        return 0.5
    return float(special.stdtr(df, x))


def t_sf(x: float, df: float) -> float:
    """Upper tail P(T > x); more accurate than ``1 - t_cdf(x)`` far out."""
    _check_df(df)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    if x == 0.0:
        return 0.5
    return float(special.stdtr(df, -x))


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
    return float(-special.stdtrit(df, delta))
