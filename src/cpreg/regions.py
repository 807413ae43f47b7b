"""Prediction regions on the real line.

A region is a finite union of disjoint intervals, each endpoint carrying
an open/closed flag.  Infinite endpoints are always open and degenerate
pieces are closed points.  Construction checks that the pieces are in
normal form (sorted, pairwise disjoint and not touching, so that the
union of two neighbours is never connected) and refuses them otherwise;
it does not repair them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """One connected piece of a region."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed on both sides")
        if math.isinf(self.lo) and self.lo_closed:
            raise ValueError("-inf endpoint must be open")
        if math.isinf(self.hi) and self.hi_closed:
            raise ValueError("+inf endpoint must be open")

    def contains(self, y: float) -> bool:
        if y < self.lo or y > self.hi:
            return False
        if y == self.lo and not self.lo_closed:
            return False
        if y == self.hi and not self.hi_closed:
            return False
        return True

    @property
    def length(self) -> float:
        return self.hi - self.lo


def point(y: float) -> Interval:
    """The degenerate closed interval {y}."""
    return Interval(y, y, True, True)


class PredictionRegion:
    """A finite union of sorted, disjoint, non-touching intervals."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Interval] = ()):
        pieces = tuple(pieces)
        for a, b in zip(pieces, pieces[1:]):
            # b must start right of a; at a shared endpoint both ends open
            if b.lo < a.hi or (b.lo == a.hi and (a.hi_closed or b.lo_closed)):
                raise ValueError(f"region pieces not sorted, disjoint and apart: {a} then {b}")
        object.__setattr__(self, "pieces", pieces)

    def __setattr__(self, name, value):  # keep instances immutable
        raise AttributeError("PredictionRegion is immutable")

    def __eq__(self, other):
        return isinstance(other, PredictionRegion) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        if not self.pieces:
            return "PredictionRegion(empty)"
        parts = []
        for p in self.pieces:
            left = "[" if p.lo_closed else "("
            right = "]" if p.hi_closed else ")"
            parts.append(f"{left}{p.lo:g}, {p.hi:g}{right}")
        return f"PredictionRegion({' u '.join(parts)})"

    @classmethod
    def empty(cls) -> "PredictionRegion":
        return cls(())

    @classmethod
    def real_line(cls) -> "PredictionRegion":
        return cls((Interval(-INF, INF, False, False),))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def inf(self) -> float:
        """Greatest lower bound; +inf for the empty region."""
        return self.pieces[0].lo if self.pieces else INF

    @property
    def sup(self) -> float:
        """Least upper bound; -inf for the empty region."""
        return self.pieces[-1].hi if self.pieces else -INF

    @property
    def is_bounded(self) -> bool:
        """Bounded (possibly empty) region: finite sup and inf."""
        if not self.pieces:
            return True
        return math.isfinite(self.inf) and math.isfinite(self.sup)

    def contains(self, y: float) -> bool:
        return any(p.contains(y) for p in self.pieces)

    @property
    def length(self) -> float:
        """sup - inf, the width of the convex hull; 0 for the empty region."""
        if not self.pieces:
            return 0.0
        return self.sup - self.inf

    def convex_hull(self) -> "PredictionRegion":
        """Smallest interval containing the region."""
        if not self.pieces:
            return PredictionRegion.empty()
        first, last = self.pieces[0], self.pieces[-1]
        if len(self.pieces) == 1:
            return self
        return PredictionRegion(
            (Interval(first.lo, last.hi, first.lo_closed, last.hi_closed),)
        )

    def issubset(self, other: "PredictionRegion") -> bool:
        """Whether every point of this region belongs to ``other``."""
        for piece in self.pieces:
            if not any(_covers(big, piece) for big in other.pieces):
                return False
        return True


def super_level_sets(
    points: NDArray,
    greater: NDArray,
    ties: NDArray,
    denominator: int,
    levels: Sequence[float],
    tau: float,
) -> list[PredictionRegion]:
    """{y : p(y) > eps} for every eps in ``levels``, of a p-value that is a
    step function of y.

    ``points`` are the sorted steps (m of them), and ``greater`` and ``ties``
    count the scores above and tied with the observed one on each of the
    2m + 1 cells [left ray, points[0], gap, points[1], ..., right ray], where
    p = (greater + tau * ties) / denominator.  The cells partition the line
    in order, so each run of consecutive kept cells is one connected piece.
    p is formed once, and one comparison and one edge search serve every
    level.
    """
    pvalue = (greater + tau * ties) / denominator
    cells = pvalue.size
    keep = np.zeros((len(levels), cells + 2), dtype=bool)  # padded with a dropped cell each side
    np.greater(pvalue, np.asarray(levels, dtype=float)[:, None], out=keep[:, 1:-1])
    row, cell = np.divmod(np.flatnonzero(keep[:, 1:] != keep[:, :-1]), cells + 1)
    first, last = cell[0::2], cell[1::2] - 1
    # Cell i spans (bounds[(i + 1) // 2], bounds[i // 2 + 1]) and is the
    # closed point there when i is odd.
    bounds = np.concatenate(([-INF], points, [INF]))
    lo, hi = bounds[(first + 1) // 2].tolist(), bounds[last // 2 + 1].tolist()
    lo_closed, hi_closed = (first % 2 == 1).tolist(), (last % 2 == 1).tolist()
    pieces = list(map(Interval, lo, hi, lo_closed, hi_closed))
    ends = np.cumsum(np.bincount(row[0::2], minlength=len(levels))).tolist()
    return [PredictionRegion(pieces[a:b]) for a, b in zip([0] + ends, ends)]


def _covers(big: Interval, small: Interval) -> bool:
    if small.lo < big.lo or small.hi > big.hi:
        return False
    if small.lo == big.lo and small.lo_closed and not big.lo_closed:
        return False
    if small.hi == big.hi and small.hi_closed and not big.hi_closed:
        return False
    return True


def check_nested(regions_by_level: dict[float, PredictionRegion]) -> bool:
    """True when regions shrink as the significance level grows.

    ``regions_by_level`` maps a level eps to its region; for any pair
    eps1 > eps2 the eps1 region must be contained in the eps2 region.
    """
    by_level = sorted(regions_by_level.items())  # increasing eps
    for (_, wider), (_, narrower) in zip(by_level, by_level[1:]):
        if not narrower.issubset(wider):
            return False
    return True
