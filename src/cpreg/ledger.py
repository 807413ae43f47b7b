"""The ledger of an on-line prediction run.

For every significance level the ledger holds four columns, one entry per
step: the error indicator of the reported region (err), the cumulative
error count (Err), the reported region's width (L), and the running
median of the widths seen so far (M).  :class:`LedgerTable` holds those
columns and answers every query on them; it is what a ledger file reads
back into.  :class:`OnlineLedger` is the ledger a run records into: a
``LedgerTable`` that also keeps the error indicator of the raw
(un-hulled) region, which the ledger file does not carry.

Median convention: the element of rank ``floor(n/2) + 1`` of the sorted
widths (ties broken by position), with infinite widths sorting last.  For
odd n this is the usual middle element; for even n it is the upper of the
two middle elements, so the median stays infinite until strictly more
than half of the widths are finite.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Sequence


def _first_finite(values: list[float]) -> int | None:
    for i, v in enumerate(values):
        if math.isfinite(v):
            return i + 1
    return None


class LedgerTable:
    """Ledger columns err, Err, L and M keyed by significance level.

    ``columns`` maps each level to its lists ``(err, Err, L, M)``, one
    entry per step; the table reads them in place.
    """

    def __init__(self, levels: Sequence[float], columns: dict[float, tuple[list, ...]]):
        levels = tuple(float(e) for e in levels)
        if len(set(levels)) != len(levels):
            raise ValueError("significance levels must be distinct")
        self.levels = levels
        self._columns = columns
        self.steps = len(columns[levels[0]][0]) if levels else 0

    def errors(self, eps: float) -> list[int]:
        return list(self._columns[eps][0])

    def cumulative_errors(self, eps: float) -> list[int]:
        return list(self._columns[eps][1])

    def widths(self, eps: float) -> list[float]:
        return list(self._columns[eps][2])

    def medians(self, eps: float) -> list[float]:
        return list(self._columns[eps][3])

    def first_bounded_step(self, eps: float) -> int | None:
        """First step whose reported region had finite width; None if never."""
        return _first_finite(self._columns[eps][2])

    def first_finite_median_step(self, eps: float) -> int | None:
        """First step whose running width-median was finite; None if never."""
        return _first_finite(self._columns[eps][3])


class OnlineLedger(LedgerTable):
    """The ledger a run records into, with the raw-region errors as well."""

    def __init__(self, levels: Sequence[float]):
        # Per level, after the four ledger columns: the raw-region errors
        # and the widths so far in sorted order.
        super().__init__(levels, {float(eps): ([], [], [], [], [], []) for eps in levels})

    def record_step(
        self,
        errors: dict[float, int],
        raw_errors: dict[float, int],
        widths: dict[float, float],
    ) -> None:
        """Append one step's indicators and widths (one entry per level).

        Every width is checked before the first append, so a rejected step
        leaves all columns as they were.
        """
        for eps in self.levels:
            width = float(widths[eps])
            if math.isnan(width) or width < 0.0:
                raise ValueError(f"invalid region width {width}")
        for eps in self.levels:
            err_col, cum_col, width_col, median_col, raw_col, ordered = self._columns[eps]
            err = int(errors[eps])
            err_col.append(err)
            raw_col.append(int(raw_errors[eps]))
            cum_col.append((cum_col[-1] if cum_col else 0) + err)
            width = float(widths[eps])
            width_col.append(width)
            insort(ordered, width)
            median_col.append(ordered[len(ordered) // 2])
        self.steps += 1

    def raw_errors(self, eps: float) -> list[int]:
        return list(self._columns[eps][4])
