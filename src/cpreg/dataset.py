"""Synthetic benchmark generation and text serialization.

The benchmark stream has standard-Gaussian explanatory coordinates and
responses ``y = alpha + beta . x + noise`` where the coefficient vector has a
magnitude-10 leading block with alternating signs followed by magnitude-1
alternating entries.  File formats are plain comma-separated text with LF
endings; floats are written with 17 significant digits so that every
round-trip is bit-exact, and infinite widths use the literal token "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import LedgerTable
from .randomness import RandomStream
from .stream import Observation


class DataFormatError(ValueError):
    """A data file does not match the expected text format."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for the synthetic regression benchmark."""

    k: int = 100
    n: int = 600
    alpha: float = 100.0
    lead_size: int = 10
    lead_magnitude: float = 10.0
    tail_magnitude: float = 1.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least one explanatory variable, got k={self.k}")
        if self.n < 0:
            raise ValueError(f"stream length must be nonnegative, got n={self.n}")
        if not self.noise_std > 0.0:
            raise ValueError(f"noise level must be positive, got {self.noise_std}")


def beta_vector(spec: SyntheticSpec) -> np.ndarray:
    """Coefficients: alternating +-lead_magnitude block, then +-tail_magnitude."""
    beta = np.empty(spec.k)
    block = min(spec.lead_size, spec.k)
    signs = np.where(np.arange(spec.k) % 2 == 0, 1.0, -1.0)
    beta[:block] = spec.lead_magnitude * signs[:block]
    beta[block:] = spec.tail_magnitude * signs[block:]
    return beta


def generate(spec: SyntheticSpec, rng: RandomStream | None = None) -> list[Observation]:
    """Draw the synthetic stream; deterministic given (spec, rng seed)."""
    if rng is None:
        rng = RandomStream(spec.seed)
    if spec.n == 0:
        return []
    xs = rng.gaussian_matrix(spec.n, spec.k)
    noise = rng.gaussian(spec.n)
    ys = spec.alpha + xs @ beta_vector(spec) + spec.noise_std * noise
    return [Observation(xs[i], float(ys[i])) for i in range(spec.n)]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_stream(path, stream, dim: int | None = None) -> None:
    """Write observations as CSV with header x1,...,xK,y (LF endings).

    ``dim`` fixes the header width when the stream is empty.
    """
    stream = list(stream)
    k = stream[0].x.size if stream else (dim or 0)
    names = [f"x{j + 1}" for j in range(k)] + ["y"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for obs in stream:
            fields = [_fmt(v) for v in obs.x] + [_fmt(obs.y)]
            fh.write(",".join(fields) + "\n")


def read_stream(path) -> list[Observation]:
    """Parse a stream file written by :func:`write_stream`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty file: missing header row")
    header = lines[0].split(",")
    if header[-1] != "y" or any(
        name != f"x{j + 1}" for j, name in enumerate(header[:-1])
    ):
        raise DataFormatError(f"malformed header {lines[0]!r}: expected x1,...,xK,y")
    k = len(header) - 1
    stream = []
    for row, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != k + 1:
            raise DataFormatError(f"row {row}: expected {k + 1} fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise DataFormatError(f"row {row}: non-numeric field ({exc})") from exc
        if not all(math.isfinite(v) for v in values):
            raise DataFormatError(f"row {row}: non-finite value")
        stream.append(Observation(values[:-1], values[-1]))
    return stream


def write_ledger(path, ledger: LedgerTable) -> None:
    """One row per step: n, then err/Err/L/M per significance level."""
    if ledger.steps < 1:
        raise ValueError("refusing to write an empty ledger")
    levels = ledger.levels
    columns = ["n"]
    for eps in levels:
        tag = repr(float(eps))
        columns += [f"err_{tag}", f"Err_{tag}", f"L_{tag}", f"M_{tag}"]
    per_level = {
        eps: (
            ledger.errors(eps),
            ledger.cumulative_errors(eps),
            ledger.widths(eps),
            ledger.medians(eps),
        )
        for eps in levels
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(ledger.steps):
            row = [str(i + 1)]
            for eps in levels:
                err, cum, width, median = per_level[eps]
                row += [str(err[i]), str(cum[i]), _fmt(width[i]), _fmt(median[i])]
            fh.write(",".join(row) + "\n")


def read_ledger(path) -> LedgerTable:
    """Parse a ledger file written by :func:`write_ledger`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty file: missing ledger header")
    header = lines[0].split(",")
    if header[0] != "n" or (len(header) - 1) % 4 != 0:
        raise DataFormatError(f"malformed ledger header {lines[0]!r}")
    levels = []
    for j in range(1, len(header), 4):
        group = header[j : j + 4]
        prefixes = [name.split("_", 1)[0] for name in group]
        tags = {name.split("_", 1)[1] for name in group if "_" in name}
        if prefixes != ["err", "Err", "L", "M"] or len(tags) != 1:
            raise DataFormatError(f"malformed ledger column group {group}")
        try:
            levels.append(float(tags.pop()))
        except ValueError as exc:
            raise DataFormatError(f"bad significance level in header: {exc}") from exc
    if len(set(levels)) != len(levels):
        raise DataFormatError(f"significance levels must be distinct, got {levels}")
    columns = [([], [], [], []) for _ in levels]
    for row, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataFormatError(f"row {row}: expected {len(header)} fields, got {len(fields)}")
        try:
            index = int(fields[0])
            parsed = [
                (int(fields[j]), int(fields[j + 1]), float(fields[j + 2]), float(fields[j + 3]))
                for j in range(1, len(header), 4)
            ]
        except ValueError as exc:
            raise DataFormatError(f"row {row}: non-numeric field ({exc})") from exc
        if index != row:
            raise DataFormatError(f"row {row}: step index {fields[0]} out of order")
        for j, (err_col, cum_col, width_col, median_col), (err, cum, width, median) in zip(
            range(1, len(header), 4), columns, parsed
        ):
            running = (cum_col[-1] if cum_col else 0) + err
            valid = (err in (0, 1), cum == running, width >= 0.0, median >= 0.0)
            if not all(valid):  # only what ``record_step`` writes; inf is a valid width
                at = valid.index(False)
                want = ("0 or 1", f"the running error count {running}", "a width >= 0")[min(at, 2)]
                name, value = header[j + at], fields[j + at]
                raise DataFormatError(f"row {row}: {name} is {value}, expected {want}")
            err_col.append(err)
            cum_col.append(cum)
            width_col.append(width)
            median_col.append(median)
    return LedgerTable(levels, dict(zip(levels, columns)))


def write_plot_data(path, ledger: LedgerTable) -> None:
    """Median-accuracy and cumulative-error curves, one block per level."""
    if ledger.steps < 1:
        raise ValueError("refusing to write plot data for an empty ledger")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for eps in ledger.levels:
            fh.write(f"# median-accuracy eps={repr(float(eps))}\n")
            for i, m in enumerate(ledger.medians(eps)):
                fh.write(f"{i + 1},{_fmt(m)}\n")
            fh.write("\n")
            fh.write(f"# cumulative-errors eps={repr(float(eps))}\n")
            for i, c in enumerate(ledger.cumulative_errors(eps)):
                fh.write(f"{i + 1},{c}\n")
            fh.write("\n")


def read_plot_data(path) -> dict[tuple[str, float], tuple[np.ndarray, np.ndarray]]:
    """Parse plot blocks back into {(curve name, eps): (steps, values)}."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    curves: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}
    key: tuple[str, float] | None = None
    steps: list[int] = []
    values: list[float] = []

    def flush():
        if key is not None:
            curves[key] = (np.array(steps, dtype=int), np.array(values, dtype=float))

    for number, line in enumerate(lines, start=1):
        if line.startswith("#"):
            flush()
            try:
                name, eps_part = line[1:].strip().rsplit(" eps=", 1)
                key = (name, float(eps_part))
            except ValueError as exc:
                raise DataFormatError(f"line {number}: malformed block header {line!r}") from exc
            if key in curves:
                raise DataFormatError(f"line {number}: repeated block header {line!r}")
            steps, values = [], []
        elif line:
            if key is None:
                raise DataFormatError(f"line {number}: data line {line!r} before any block header")
            try:
                n_str, v_str = line.split(",", 1)
                steps.append(int(n_str))
                values.append(float(v_str))
            except ValueError as exc:
                raise DataFormatError(f"line {number}: malformed data line {line!r}") from exc
    flush()
    return curves
