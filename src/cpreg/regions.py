"""Prediction regions on the real line.

A region is a finite union of disjoint intervals, each endpoint carrying
an open/closed flag.  Infinite endpoints are always open and degenerate
pieces are closed points.  Construction checks that the pieces are in
normal form (sorted, pairwise disjoint and not touching, so that the
union of two neighbours is never connected) and refuses them otherwise;
it does not repair them.

Regions are immutable, so :meth:`PredictionRegion.real_line` and
:meth:`PredictionRegion.empty` hand out one shared instance each rather
than building a new region per call.
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
        """The empty region, one shared instance."""
        return _EMPTY

    @classmethod
    def real_line(cls) -> "PredictionRegion":
        """The whole real line, one shared instance."""
        return _REAL_LINE

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
        for piece in self.pieces:
            if piece.contains(y):
                return True
        return False

    @property
    def length(self) -> float:
        """sup - inf, the width of the convex hull; 0 for the empty region."""
        pieces = self.pieces
        return pieces[-1].hi - pieces[0].lo if pieces else 0.0

    def convex_hull(self) -> "PredictionRegion":
        """Smallest interval containing the region; the region itself when
        it has at most one piece."""
        if len(self.pieces) <= 1:
            return self
        first, last = self.pieces[0], self.pieces[-1]
        return PredictionRegion(
            (Interval(first.lo, last.hi, first.lo_closed, last.hi_closed),)
        )

    def issubset(self, other: "PredictionRegion") -> bool:
        """Whether every point of this region belongs to ``other``."""
        for piece in self.pieces:
            if not any(_covers(big, piece) for big in other.pieces):
                return False
        return True


_EMPTY = PredictionRegion(())
_REAL_LINE = PredictionRegion((Interval(-INF, INF, False, False),))


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
    p is formed once, one comparison and one edge search serve every level,
    and the few pieces are built one run at a time.
    """
    pvalue = np.multiply(ties, tau, dtype=float)
    pvalue += greater
    pvalue /= denominator
    cells = pvalue.size
    keep = np.zeros((len(levels), cells + 2), dtype=bool)  # padded with a dropped cell each side
    np.greater(pvalue, np.asarray(levels, dtype=float)[:, None], out=keep[:, 1:-1])
    edges = np.flatnonzero(keep[:, 1:] != keep[:, :-1]).tolist()
    pieces = [[] for _ in levels]
    for start, stop in zip(edges[0::2], edges[1::2]):
        row, first = divmod(start, cells + 1)
        last = stop - row * (cells + 1) - 1
        # Cell i spans (points[(i + 1) // 2 - 1], points[i // 2]), the rays
        # ending at -inf and +inf, and is the closed point there when i is odd.
        lo = float(points[(first + 1) // 2 - 1]) if first else -INF
        hi = float(points[last // 2]) if last < cells - 1 else INF
        pieces[row].append(Interval(lo, hi, first % 2 == 1, last % 2 == 1))
    return [PredictionRegion(level) for level in pieces]


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
