"""Student-t tail machinery against independent numerical oracles.

The reference values here are produced by routes that share no code with
the implementation: direct quadrature of the density written out from the
gamma-function formula, and the arctangent closed form at one degree of
freedom.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from oracles import t_density

from cpreg import t_sf, t_upper_point
from cpreg.studentt import t_upper_points


def reference_density(df):
    """Plain-formula t density, independent of the package's code path."""
    lognorm = math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)

    def pdf(x):
        return math.exp(lognorm - 0.5 * (df + 1.0) * math.log1p(x * x / df))

    return pdf

def reference_tail(x, df):
    """Upper tail probability by adaptive quadrature.

    The tolerance request has to be well under the self-check threshold:
    quad stops subdividing once its error estimate meets the request, so
    with the default 1.49e-8 the reported estimate can sit around 1e-9
    even though the value itself is good to machine precision.
    """
    pdf = reference_density(df)
    tail, err = integrate.quad(pdf, x, np.inf, limit=200, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return tail

def reference_upper_point(delta, df):
    """Root of tail(x) = delta, bracketed wide and solved by brentq.

    The largest quantile exercised is about 127 (one degree of freedom at
    delta = 0.0025); the bracket end stays moderate because quadrature of
    the heavy df=1 tail degrades far out.
    """
    return optimize.brentq(lambda x: reference_tail(x, df) - delta, 0.0, 1e3, xtol=1e-12, rtol=1e-14)


def test_cdf_basics():
    assert t_sf(0.0, 5) == pytest.approx(0.5, abs=1e-15)
    for df in (1, 2, 7, 30):
        for x in (0.3, 1.7, 4.0):
            assert t_sf(-x, df) == pytest.approx(1.0 - t_sf(x, df), abs=1e-13)


@pytest.mark.parametrize("df", [0.001, 0.5, 1, 2.5, 117, 1e20, math.inf])
def test_tail_is_exact_at_zero_and_at_the_infinities(df):
    assert t_sf(0.0, df) == 0.5 and t_sf(-0.0, df) == 0.5
    assert t_sf(math.inf, df) == 0.0 and t_sf(-math.inf, df) == 1.0


def test_cdf_monotone_and_limits():
    # +-50 rather than +-30: the df=1 tail decays like 1/(pi*x), so the
    # 1e-2 bound needs the wider window (1/(50*pi) ~ 0.0064).
    xs = np.linspace(-50.0, 50.0, 401)
    for df in (1, 3, 12):
        vals = [t_sf(x, df) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 1 - 1e-2 and vals[-1] < 1e-2


def test_cdf_against_quadrature():
    for df in (1, 2, 5, 20, 100):
        for x in (0.25, 1.0, 2.5, 6.0):
            assert t_sf(x, df) == pytest.approx(reference_tail(x, df), abs=1e-11)


def test_density_matches_reference_formula():
    for df in (1, 4, 50):
        pdf = reference_density(df)
        for x in (-3.0, -0.5, 0.0, 1.2, 8.0):
            assert t_density(x, df) == pytest.approx(pdf(x), rel=1e-12)


def test_one_df_closed_form():
    # With one degree of freedom the upper point is tan(pi*(1/2 - delta)).
    for delta in (0.025, 0.005, 0.0025):
        assert t_upper_point(delta, 1) == pytest.approx(math.tan(math.pi * (0.5 - delta)), rel=1e-10)


def test_upper_point_round_trip():
    for df in (1, 7, 98, 598):
        for delta in (0.025, 0.005, 0.0025, 0.2):
            x = t_upper_point(delta, df)
            assert t_sf(x, df) == pytest.approx(delta, abs=1e-12)


def test_upper_point_against_quadrature_oracle():
    """Tail quantiles match the quadrature+root oracle to 1e-8 absolute."""
    for df in (1, 7, 98, 598):
        for delta in (0.025, 0.005, 0.0025):
            assert abs(t_upper_point(delta, df) - reference_upper_point(delta, df)) < 1e-8


def test_upper_point_at_paper_sizes():
    """The paper's n=600 streams reach df 200 (gauss) and 598 (mva)."""
    for df in (200, 598):
        for delta in (0.025, 0.005, 0.0025):
            assert abs(t_upper_point(delta, df) - reference_upper_point(delta, df)) < 1e-8


def test_results_are_python_floats():
    """Ledger and trace formatting relies on plain floats, not numpy scalars."""
    values = [t_upper_point(0.025, 7), t_upper_point(0.9, 7), t_sf(1.3, 7), t_density(0.5, 7)]
    assert all(type(v) is float for v in values)


def test_quantile_vector_is_the_scalar_bit_for_bit():
    """One stdtrit call on a step's eps/2 gives each level's t_upper_point,
    and both are the lower-tail inversion -stdtrit(df, min(delta, 1 - delta))
    with its sign, and +0.0 at delta = 0.5.  df 1..600 covers gauss's
    n - K - 2 and mva's n - 2 at paper size."""
    levels = (0.05, 0.01, 0.005, 0.3, 0.5)
    deltas = [eps / 2.0 for eps in levels] + [1.0 - eps / 2.0 for eps in levels] + [0.5]
    for df in range(1, 601):
        vector = t_upper_points(deltas, df)
        assert all(type(t) is float for t in vector)
        for delta, t in zip(deltas, vector):
            if delta == 0.5:
                reference = 0.0
            elif delta < 0.5:
                reference = -float(special.stdtrit(df, delta))
            else:
                reference = float(special.stdtrit(df, 1.0 - delta))
            assert t.hex() == reference.hex() == t_upper_point(delta, df).hex(), (delta, df)
    assert t_upper_points([], 5) == []


def test_upper_point_input_validation():
    with pytest.raises(ValueError):
        t_upper_point(0.0, 5)
    with pytest.raises(ValueError):
        t_upper_point(1.0, 5)
    with pytest.raises(ValueError):
        t_upper_point(0.1, 0)
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="^delta must lie strictly between 0 and 1"):
            t_upper_points([0.025, bad], 5)
    with pytest.raises(ValueError):
        t_upper_points([0.025], 0)
