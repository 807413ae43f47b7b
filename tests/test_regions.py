"""Interval/region algebra: construction rules, merging, hulls, nesting."""

import numpy as np
import pytest

from cpreg import Interval, PredictionRegion, check_nested, point
from cpreg.regions import runs


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0, False, False)
    with pytest.raises(ValueError):
        Interval(np.nan, 1.0, False, False)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, False, False)  # degenerate must be closed on both sides
    with pytest.raises(ValueError):
        Interval(-np.inf, 0.0, True, False)  # infinite endpoint must stay open
    p = point(3.0)
    assert p.lo == p.hi == 3.0 and p.lo_closed and p.hi_closed


def test_touching_pieces_merge():
    region = PredictionRegion([Interval(0.0, 1.0, False, False), point(1.0), Interval(1.0, 2.0, False, False)])
    assert len(region.pieces) == 1
    merged = region.pieces[0]
    assert (merged.lo, merged.hi, merged.lo_closed, merged.hi_closed) == (0.0, 2.0, False, False)


def test_two_open_rays_stay_apart():
    # Open rays meeting at a point do not cover the point, so no merge.
    region = PredictionRegion([Interval(-np.inf, 0.0, False, False), Interval(0.0, np.inf, False, False)])
    assert len(region.pieces) == 2
    assert not region.contains(0.0)
    assert region.contains(-5.0) and region.contains(5.0)
    assert np.isinf(region.length)
    hull = region.convex_hull()
    assert hull == PredictionRegion.real_line()


def test_contains_and_length():
    region = PredictionRegion([Interval(0.0, 1.0, True, False), point(4.0)])
    assert region.contains(0.0) and not region.contains(1.0)
    assert region.contains(4.0) and not region.contains(2.0)
    # region length is the hull width (sup - inf), not the measure of the
    # union; the pieces keep their own lengths
    assert region.length == pytest.approx(4.0)
    assert region.convex_hull().length == pytest.approx(4.0)
    assert [p.length for p in region.pieces] == pytest.approx([1.0, 0.0])


def test_empty_and_real_line():
    empty = PredictionRegion.empty()
    line = PredictionRegion.real_line()
    assert len(empty.pieces) == 0 and empty.length == 0.0
    assert not empty.contains(0.0)
    assert line.contains(1e300) and np.isinf(line.length)
    assert empty.issubset(line)
    assert line.convex_hull() == line


def test_issubset_partial_order():
    inner = PredictionRegion([Interval(1.0, 2.0, False, False)])
    outer = PredictionRegion([Interval(0.0, 3.0, True, True)])
    assert inner.issubset(outer) and not outer.issubset(inner)
    # closed vs open at a shared endpoint
    closed = PredictionRegion([Interval(0.0, 1.0, True, True)])
    open_ = PredictionRegion([Interval(0.0, 1.0, False, False)])
    assert open_.issubset(closed) and not closed.issubset(open_)


def test_check_nested_helper():
    by_level = {
        0.1: PredictionRegion([Interval(0.0, 1.0, False, False)]),
        0.05: PredictionRegion([Interval(-1.0, 2.0, False, False)]),
        0.01: PredictionRegion.real_line(),
    }
    assert check_nested(by_level)
    by_level[0.01] = PredictionRegion([Interval(0.2, 0.4, False, False)])
    assert not check_nested(by_level)


def test_region_ordering_is_canonical():
    region = PredictionRegion([point(5.0), Interval(0.0, 1.0, False, False)])
    los = [piece.lo for piece in region.pieces]
    assert los == sorted(los)


def test_runs_of_a_mask():
    first, last = runs(np.array([True, False, True, True, False, True]))
    assert first.tolist() == [0, 2, 5] and last.tolist() == [0, 3, 5]
    assert [a.tolist() for a in runs(np.ones(3, dtype=bool))] == [[0], [2]]
    assert [a.size for a in runs(np.zeros(0, dtype=bool))] == [0, 0]
