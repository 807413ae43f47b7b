"""On-line bookkeeping: running medians, cumulative errors, first-step queries."""

import math

import numpy as np
import pytest

from cpreg import OnlineLedger
from oracles import running_median


def test_running_median_upper_convention():
    """Even-length medians take the upper middle order statistic.

    This is what makes the running median of interval lengths flip from
    infinite to finite only when finite lengths hold a strict majority,
    which in turn pins the documented transition steps.
    """
    assert running_median([3.0]) == 3.0
    assert running_median([5.0, 1.0]) == 5.0
    assert running_median([1.0, 2.0, 3.0]) == 2.0
    assert running_median([1.0, 2.0, 3.0, 4.0]) == 3.0
    assert running_median([math.inf, 1.0]) == math.inf
    assert running_median([math.inf, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        running_median([])


def make_ledger(widths, errors=None):
    ledger = OnlineLedger((0.05,))
    for i, w in enumerate(widths):
        err = 0 if errors is None else errors[i]
        ledger.record_step({0.05: err}, {0.05: err}, {0.05: w})
    return ledger


def test_median_transition_needs_strict_majority():
    # two infinite steps, then finite ones
    widths = [math.inf, math.inf, 1.0, 2.0, 3.0]
    ledger = make_ledger(widths)
    med = ledger.medians(0.05)
    assert med[:4] == [math.inf, math.inf, math.inf, math.inf]
    # at step 5 the finite lengths are 3 of 5: upper median lands on the
    # largest finite length
    assert med[4] == 3.0
    assert ledger.first_finite_median_step(0.05) == 5
    assert ledger.first_bounded_step(0.05) == 3


def test_medians_match_naive_recompute():
    rng = np.random.default_rng(2)
    widths = [math.inf if rng.uniform() < 0.3 else float(rng.uniform(0, 10)) for _ in range(60)]
    ledger = make_ledger(widths)
    med = ledger.medians(0.05)
    for i in range(60):
        assert med[i] == running_median(widths[: i + 1])


def test_cumulative_errors_and_accessors():
    ledger = make_ledger([1.0, 2.0, math.inf, 4.0], errors=[0, 1, 0, 1])
    assert ledger.errors(0.05) == [0, 1, 0, 1]
    assert ledger.cumulative_errors(0.05) == [0, 1, 1, 2]
    assert ledger.widths(0.05) == [1.0, 2.0, math.inf, 4.0]
    assert ledger.steps == 4
    assert ledger.levels == (0.05,)


def test_first_queries_none_when_never():
    ledger = make_ledger([math.inf, math.inf])
    assert ledger.first_bounded_step(0.05) is None
    assert ledger.first_finite_median_step(0.05) is None
    empty = OnlineLedger((0.1,))
    assert empty.first_bounded_step(0.1) is None
    assert empty.steps == 0


def test_record_step_validation():
    ledger = OnlineLedger((0.05, 0.01))
    with pytest.raises(KeyError):
        ledger.record_step({0.05: 0}, {0.05: 0}, {0.05: 1.0})  # missing level
    with pytest.raises(ValueError):
        ledger.record_step(
            {0.05: 0, 0.01: 0}, {0.05: 0, 0.01: 0}, {0.05: -1.0, 0.01: 1.0}
        )
    for bad in (2, -1, 0.5):
        with pytest.raises(ValueError, match=f"^err_0.01 is {bad}, expected 0 or 1"):
            ledger.record_step({0.05: 0, 0.01: bad}, {0.05: 0, 0.01: 0}, {0.05: 1.0, 0.01: 1.0})
        with pytest.raises(ValueError, match=f"^raw err_0.05 is {bad}, expected 0 or 1"):
            ledger.record_step({0.05: 0, 0.01: 0}, {0.05: bad, 0.01: 0}, {0.05: 1.0, 0.01: 1.0})
    assert ledger.steps == 0
    with pytest.raises(ValueError):
        OnlineLedger((0.05, 0.05))


def test_levels_are_independent_tracks():
    ledger = OnlineLedger((0.05, 0.01))
    ledger.record_step({0.05: 1, 0.01: 0}, {0.05: 1, 0.01: 0}, {0.05: 2.0, 0.01: math.inf})
    assert ledger.errors(0.05) == [1] and ledger.errors(0.01) == [0]
    assert ledger.first_bounded_step(0.05) == 1
    assert ledger.first_bounded_step(0.01) is None


def test_rejected_step_leaves_every_column_aligned():
    ledger = OnlineLedger((0.05, 0.01))
    ledger.record_step({0.05: 0, 0.01: 0}, {0.05: 0, 0.01: 0}, {0.05: 2.0, 0.01: 3.0})
    for errors, raw_errors, widths in (
        ({0.05: 1, 0.01: 1}, {0.05: 1, 0.01: 1}, {0.05: 1.0, 0.01: math.nan}),
        ({0.05: 1, 0.01: 2}, {0.05: 1, 0.01: 1}, {0.05: 1.0, 0.01: 1.0}),
        ({0.05: 1, 0.01: 1}, {0.05: 1, 0.01: 2}, {0.05: 1.0, 0.01: 1.0}),
    ):
        with pytest.raises(ValueError):
            ledger.record_step(errors, raw_errors, widths)
    assert ledger.steps == 1
    for eps in ledger.levels:
        columns = (
            ledger.errors(eps),
            ledger.raw_errors(eps),
            ledger.cumulative_errors(eps),
            ledger.widths(eps),
            ledger.medians(eps),
        )
        assert [len(column) for column in columns] == [1] * 5, eps
