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


def _check_entry(eps: float, err, width) -> None:
    """Refuse an err that is not 0 or 1 and an L that is NaN or negative."""
    if err not in (0, 1):
        raise ValueError(f"err_{eps!r} is {err}, expected 0 or 1")
    if not width >= 0.0:
        raise ValueError(f"L_{eps!r} is {width}, expected a width >= 0")


def _push(columns: tuple[list, ...], err, width) -> None:
    """Append a checked err and L to one level's columns, deriving Err and M."""
    err_col, cum_col, width_col, median_col, ordered = columns
    err = int(err)
    width = float(width)
    err_col.append(err)
    cum_col.append((cum_col[-1] if cum_col else 0) + err)
    width_col.append(width)
    insort(ordered, width)
    median_col.append(ordered[len(ordered) // 2])


def _first_finite(values: list[float]) -> int | None:
    for i, v in enumerate(values):
        if math.isfinite(v):
            return i + 1
    return None


class LedgerTable:
    """Ledger columns err, Err, L and M keyed by significance level.

    Every step, recorded by a run or read back from a file, goes through
    :meth:`append`, the one place that checks err and L and derives Err and M.
    """

    def __init__(self, levels: Sequence[float]):
        levels = tuple(float(e) for e in levels)
        if len(set(levels)) != len(levels):
            raise ValueError("significance levels must be distinct")
        self.levels = levels
        # Per level: the four ledger columns, then the widths so far in sorted order.
        self._columns = {eps: ([], [], [], [], []) for eps in levels}
        self.steps = 0

    def append(self, errors: dict[float, int], widths: dict[float, float]) -> None:
        """Append one step's err and L per level, deriving its Err and M.

        Every level is checked before the first append, so a rejected step
        leaves all columns as they were: err must be 0 or 1, and L must not
        be NaN or negative (an unbounded region has L = inf).
        """
        for eps in self.levels:
            _check_entry(eps, errors[eps], widths[eps])
        for eps, columns in self._columns.items():
            _push(columns, errors[eps], widths[eps])
        self.steps += 1

    def row(self, step: int) -> list[tuple[int, int, float, float]]:
        """(err, Err, L, M) of the step at index ``step``, one tuple per level."""
        return [
            (err[step], cum[step], width[step], median[step])
            for err, cum, width, median, _ in self._columns.values()
        ]

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
        super().__init__(levels)
        self._raw = {eps: [] for eps in self.levels}

    def record_step(
        self, errors: dict[float, int], raw_errors: dict[float, int], widths: dict[float, float]
    ) -> None:
        """Append one step's indicators and widths; a rejected step changes nothing.

        Every level is checked in one pass before the one pass that appends.
        """
        for eps in self.levels:
            _check_entry(eps, errors[eps], widths[eps])
            if raw_errors[eps] not in (0, 1):
                raise ValueError(f"raw err_{eps!r} is {raw_errors[eps]}, expected 0 or 1")
        for eps, columns in self._columns.items():
            _push(columns, errors[eps], widths[eps])
            self._raw[eps].append(int(raw_errors[eps]))
        self.steps += 1

    def raw_errors(self, eps: float) -> list[int]:
        return list(self._raw[eps])
