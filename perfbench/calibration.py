"""A fixed probe that tracks the speed of a shared host.

On a shared host the speed of the benchmark's core drifts, in phases of
a few seconds to minutes, as other tenants come and go: every predictor,
and any other interpreted numpy code, gets slower or faster together.
The benchmark times this probe between its samples, all through the run,
and divides each sample by the median of the probes around it, times
``NOMINAL_S``.  The result reads in seconds at the probe's nominal
speed ("reference seconds"), so the host's drift cancels while the
program's own cost does not: the probe never calls ``cpreg``.

The probe does the three kinds of work the predictors spend their time
on, for about a third of its time each: an interpreted loop over Python
floats, lists and dicts; small numpy linear algebra and sorts; and
Gaussian draws streamed through memory.
"""

from __future__ import annotations

from time import perf_counter

import numpy

# Median wall time of one probe on the machine the bounds were set on
# (2 vCPUs of a shared host, Python 3.11 with numpy on one BLAS thread).
# Only the ratio of a sample to its probes matters; this constant just
# puts the scaled timings in seconds.
NOMINAL_S = 0.035

_A = numpy.random.default_rng(20090906).standard_normal((20, 20))
_GRAM = _A @ _A.T + numpy.eye(20)


def _interpreter() -> float:
    acc, kept = 0.0, []
    for i in range(90000):
        acc += i * 0.5
        if i % 3 == 0:
            kept.append(acc)
    table = {}
    for i, x in enumerate(kept):
        table[i % 97] = x
    return acc + table[0]


def _small_linalg() -> float:
    acc = 0.0
    for i in range(700):
        acc += float(numpy.linalg.solve(_GRAM, _A[i % 20]).sum())
        acc += float(numpy.sort(_A[:, i % 20])[0])
    return acc


def _draws() -> float:
    rng = numpy.random.default_rng(7)
    acc = 0.0
    for _ in range(6):
        z = rng.standard_normal((400, 250))
        acc += float((z * z).sum(axis=1).max())
    return acc


def probe() -> float:
    """Wall time of one fixed, deterministic unit of work."""
    start = perf_counter()
    _interpreter()
    _small_linalg()
    _draws()
    return perf_counter() - start
