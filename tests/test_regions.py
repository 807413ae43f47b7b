"""Interval/region algebra: construction rules, the normal form, hulls, nesting."""

import numpy as np
import pytest

from cpreg import Interval, PredictionRegion, check_nested, open_solution_set, point
from cpreg.regions import super_level_sets


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


@pytest.mark.parametrize(
    "pieces",
    [
        [Interval(0.0, 2.0, False, False), Interval(1.0, 3.0, False, False)],
        [Interval(0.0, 1.0, True, True), Interval(1.0, 2.0, True, True)],
        [Interval(0.0, 1.0, False, False), point(1.0)],
        [point(1.0), Interval(1.0, 2.0, False, False)],
        [Interval(0.0, 1.0, False, True), Interval(1.0, 2.0, False, False)],
    ],
    ids=["overlap", "closed-closed", "open-point", "point-open", "closed-open"],
)
def test_overlapping_or_touching_pieces_are_refused(pieces):
    # the region checks its normal form and does not merge
    with pytest.raises(ValueError, match="not sorted, disjoint and apart"):
        PredictionRegion(pieces)


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


def test_shared_regions_are_safe_to_share():
    assert PredictionRegion.real_line() is PredictionRegion.real_line()
    assert PredictionRegion.empty() is PredictionRegion.empty()
    for shared in (PredictionRegion.real_line(), PredictionRegion.empty()):
        assert type(shared.pieces) is tuple
        with pytest.raises(AttributeError):
            shared.pieces = (point(0.0),)
        with pytest.raises(AttributeError):
            shared.extra = 1
    assert PredictionRegion.empty() == PredictionRegion(())
    assert PredictionRegion.real_line() == PredictionRegion(
        [Interval(-np.inf, np.inf, False, False)]
    )
    assert PredictionRegion.real_line().contains(0.0)


def test_hull_of_at_most_one_piece_is_the_region_itself():
    for region in (
        PredictionRegion.empty(),
        PredictionRegion.real_line(),
        PredictionRegion([point(2.0)]),
        PredictionRegion([Interval(0.0, 1.0, True, False)]),
    ):
        assert region.convex_hull() is region
    split = PredictionRegion([Interval(0.0, 1.0, True, False), point(4.0)])
    hull = split.convex_hull()
    assert hull is not split
    assert hull == PredictionRegion([Interval(0.0, 4.0, True, True)])
    assert hull.contains(2.0) and not split.contains(2.0)


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


def test_unsorted_pieces_are_refused():
    with pytest.raises(ValueError, match="not sorted"):
        PredictionRegion([point(5.0), Interval(0.0, 1.0, False, False)])
    with pytest.raises(ValueError, match="not sorted"):
        PredictionRegion([point(0.0), point(2.0), point(1.0)])


def test_normal_form_is_accepted_as_given():
    # open pieces may share an endpoint, which neither covers
    pieces = (Interval(0.0, 1.0, True, False), Interval(1.0, 2.0, False, False), point(3.0))
    region = PredictionRegion(pieces)
    assert region.pieces == pieces
    assert not region.contains(1.0) and region.contains(0.0) and region.contains(3.0)
    # the two open rays around a double root of a downward parabola
    rays = open_solution_set(-1.0, 2.0, -1.0, 0.0)
    assert rays.pieces == (Interval(-np.inf, 1.0, False, False), Interval(1.0, np.inf, False, False))
    assert PredictionRegion(rays.pieces) == rays
    assert PredictionRegion(()).pieces == () and PredictionRegion(iter(())).is_empty
    assert PredictionRegion([Interval(-np.inf, np.inf, False, False)]) == PredictionRegion.real_line()


def mask_region(keep):
    """The region of the cells [ray, 0, gap, 1, ..., ray] that ``keep`` keeps."""
    keep = np.asarray(keep, dtype=int)
    points = np.arange((keep.size - 1) // 2, dtype=float)
    return super_level_sets(points, keep, np.zeros_like(keep), 1, (0.5,), 0.37)[0]


def test_super_level_set_of_a_mask():
    # one piece per run of kept cells; a run ends closed at a point, open at a gap
    region = mask_region([True, False, True, True, False, True, False])
    assert region.pieces == (
        Interval(-np.inf, 0.0, False, False),
        Interval(0.0, 1.0, False, True),
        point(2.0),
    )
    assert mask_region(np.ones(3, dtype=bool)) == PredictionRegion.real_line()
    assert mask_region(np.zeros(1, dtype=bool)).is_empty
    # several levels in one call, in any order and some keeping nothing or
    # everything: each is its single-level call, and they nest
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(0, 6))
        points = np.sort(rng.choice(20, m, replace=False)).astype(float)
        greater, ties = rng.integers(0, 6, (2, 2 * m + 1))
        levels = rng.permutation([0.95, 0.6, 0.45, 0.3, 0.1, 0.01])
        tau = float(rng.uniform())
        regions = super_level_sets(points, greater, ties, 10, levels, tau)
        for eps, region in zip(levels, regions):
            assert region == super_level_sets(points, greater, ties, 10, (eps,), tau)[0]
        assert check_nested(dict(zip(levels, regions)))
    assert super_level_sets(points, greater, ties, 10, (), tau) == []
