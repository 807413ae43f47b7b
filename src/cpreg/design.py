"""The design summaries that the model predictors condition on.

``DesignRows`` is the history itself: the feature dimension K, fixed by
the first row it stores, the count, and the rows in preallocated buffers
that double when full.  Each row is stored as u = (1, x), the dummy column
first, so the ridge design U = [1, X] of the stored rows plus a staged one
is a view of the buffer, read with no per-step copy or stacking.  iid
holds only these rows: each step reads U and the responses, and
``append`` is a row copy.

``DesignState`` extends it for the predictors that read sums of the data
(gauss, mva and iid-gauss):

* the mean and the centred co-moment matrix of z = (x, y), updated one row
  at a time (Welford 1962; Chan, Golub & LeVeque 1983).  Regressions read
  from centred moments do not suffer the cancellation that raw sums do
  under large offsets;
* ``gram(cols)``, the Gram U'U of the leading columns of the stored
  U = [1, X], read off the mean and the co-moments: the only raw block a
  step reads (mva's ridge system, iid-gauss's Z'Z).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .linalg import NumericalError

INITIAL_CAPACITY = 16


class DesignRows:
    """History buffer of an on-line design: rows u = (1, x) and responses y.

    The buffers are allocated by the first stored or staged row.
    """

    def __init__(self):
        self.dim: int | None = None
        self.count = 0
        self._u: NDArray[np.float64] | None = None
        self._y: NDArray[np.float64] | None = None

    @property
    def x(self) -> NDArray[np.float64]:
        """(count, K) view of the stored feature rows."""
        return self._u[: self.count, 1:]

    @property
    def y(self) -> NDArray[np.float64]:
        """(count,) view of the stored responses."""
        return self._y[: self.count]

    def check_x(self, x) -> NDArray[np.float64]:
        """``x`` as a float vector of the state's feature dimension."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"x must be 1-D, got shape {x.shape}")
        if self.dim is not None and x.size != self.dim:
            raise ValueError(f"x has {x.size} features, expected {self.dim}")
        return x

    def _reserve(self, dim: int) -> None:
        """Room for one row past ``count``: allocate, or double the buffers."""
        if self._u is None:
            self._allocate(dim)
        elif self.count == self._y.size:
            self._u = np.concatenate((self._u, np.ones_like(self._u)))
            self._y = np.concatenate((self._y, np.empty_like(self._y)))

    def _allocate(self, dim: int) -> None:
        self.dim = dim
        self._u = np.ones((INITIAL_CAPACITY, dim + 1))
        self._y = np.empty(INITIAL_CAPACITY)

    def with_row(self, x) -> NDArray[np.float64]:
        """The design U = [1, X] of the stored rows and ``x``, ``x``'s row last.

        A C-contiguous (count + 1, K + 1) view of the buffer: ``x`` goes into
        the first free row, which the next ``append`` overwrites, and the
        view stays valid until then.
        """
        x = self.check_x(x)
        self._reserve(x.size)
        self._u[self.count, 1:] = x
        return self._u[: self.count + 1]

    def append(self, x, y: float) -> None:
        """Store one row."""
        x = self.check_x(x)
        self._reserve(x.size)
        self._store(x, y)

    def _store(self, x: NDArray[np.float64], y: float) -> None:
        self._u[self.count, 1:] = x
        self._y[self.count] = y
        self.count += 1


class DesignState(DesignRows):
    """History buffer plus running centred moments of an on-line design.

    ``mean`` holds the means of z = (x, y), response last, and ``comoment``
    the centred co-moment matrix sum_i (z_i - mean)(z_i - mean)'; both are
    replaced, never modified in place, by ``append``.
    """

    def __init__(self):
        super().__init__()
        self.mean: NDArray[np.float64] | None = None
        self.comoment: NDArray[np.float64] | None = None

    def _allocate(self, dim: int) -> None:
        super()._allocate(dim)
        self.mean = np.zeros(dim + 1)
        self.comoment = np.zeros((dim + 1, dim + 1))

    def append(self, x, y: float) -> None:
        """Store one row and fold it into the centred moments."""
        x = self.check_x(x)
        self._reserve(x.size)
        n = self.count + 1
        delta = np.concatenate((x, (y,))) - self.mean
        mean = self.mean + delta / n
        # C_n = C_{n-1} + (n-1)/n * delta delta'; scaling delta first keeps C symmetric.
        scaled = delta * math.sqrt((n - 1) / n)
        comoment = self.comoment + scaled[:, None] * scaled
        # C and n*mean*mean' + C (the moments the Gram is read off) are positive
        # semi-definite, so their traces bound every entry: one scalar checks all.
        if not math.isfinite(n * float(mean @ mean) + float(comoment.trace())):
            raise NumericalError("design moments have non-finite entries (data too large)")
        self._store(x, y)
        self.mean, self.comoment = mean, comoment

    def gram(self, cols: int) -> NDArray[np.float64]:
        """Gram U'U of the leading ``cols`` columns of the stored U = [1, X].

        It is n w w' + C, w the column means with the dummy's 1 first.
        """
        w = np.concatenate(([1.0], self.mean[: cols - 1]))
        gram = w[:, None] * (self.count * w)
        gram[1:, 1:] += self.comoment[: cols - 1, : cols - 1]
        return gram
