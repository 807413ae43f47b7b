"""Shared numerical constants and the error raised by failed factorizations.

No routine in the package forms an explicit matrix inverse: SPD systems go
through Cholesky, and rank decisions use the relative cutoff below.
"""

from __future__ import annotations

# Relative cutoff deciding when a pivot/singular value counts as zero.
RANK_RTOL = 1e-10


class NumericalError(ArithmeticError):
    """A factorization or solve failed (singular system, bad conditioning)."""
