"""Prediction regions on the real line.

A region is a finite union of disjoint intervals, each endpoint carrying
an open/closed flag.  Infinite endpoints are always open.  Construction
normalizes the pieces: they are sorted, overlapping or touching pieces are
merged, and degenerate pieces collapse to closed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


def _touches(a: Interval, b: Interval) -> bool:
    """Whether a union of a and b (with a.lo <= b.lo) is connected."""
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


class PredictionRegion:
    """A finite union of disjoint, non-touching intervals."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Interval] = ()):
        merged: list[Interval] = []
        for piece in sorted(pieces, key=lambda p: (p.lo, not p.lo_closed)):
            if merged and _touches(merged[-1], piece):
                last = merged[-1]
                if piece.hi > last.hi:
                    hi, hi_closed = piece.hi, piece.hi_closed
                elif piece.hi == last.hi:
                    hi, hi_closed = last.hi, last.hi_closed or piece.hi_closed
                else:
                    hi, hi_closed = last.hi, last.hi_closed
                lo_closed = last.lo_closed or (piece.lo == last.lo and piece.lo_closed)
                merged[-1] = Interval(last.lo, hi, lo_closed, hi_closed)
            else:
                merged.append(piece)
        object.__setattr__(self, "pieces", tuple(merged))

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


def runs(keep: NDArray[np.bool_]) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """First and last index of every run of consecutive True entries, in order.

    A mask over cells that partition the line in order (open gaps, say, and
    the points between them) keeps one connected piece of a region per run.
    """
    padded = np.concatenate(([False], keep, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2] - 1


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
