"""Synthetic benchmark generation and text serialization.

The benchmark stream has standard-Gaussian explanatory coordinates and
responses ``y = alpha + beta . x + noise`` where the coefficient vector has a
magnitude-10 leading block with alternating signs followed by magnitude-1
alternating entries.  File formats are plain comma-separated text with LF
endings; floats are written with 17 significant digits so that every
round-trip is bit-exact, and infinite widths use the literal token "inf".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ledger import LedgerTable
from .randomness import RandomStream, check_integer
from .stream import Observation, check_stream


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
        for name, minimum in (("k", 1), ("n", 0), ("lead_size", 0), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        for name in ("alpha", "lead_magnitude", "tail_magnitude", "noise_std"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def generate(spec: SyntheticSpec) -> list[Observation]:
    """Draw the synthetic stream; deterministic given the spec."""
    if spec.n == 0:
        return []
    rng = RandomStream(spec.seed)
    xs = rng.gaussian_matrix(spec.n, spec.k)
    noise = rng.gaussian(spec.n)
    ys = spec.alpha + xs @ beta_vector(spec) + spec.noise_std * noise
    return [Observation(xs[i], float(ys[i])) for i in range(spec.n)]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_stream(path, stream, dim: int | None = None) -> None:
    """Write observations as CSV with header x1,...,xK,y (LF endings).

    ``dim`` fixes the header width when the stream is empty; for a
    non-empty stream it must equal the rows' width.  Raises ``ValueError``
    for a ragged stream or a contradicting ``dim``, which would give a file
    that :func:`read_stream` rejects.
    """
    stream = list(stream)
    k = check_stream(stream)
    if not stream:
        k = dim or 0
    elif dim is not None and dim != k:
        raise ValueError(f"dim={dim} contradicts the stream's {k} features")
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
    k = lines[0].count(",")
    if lines[0] != ",".join([f"x{j + 1}" for j in range(k)] + ["y"]):
        raise DataFormatError(f"malformed header {lines[0]!r}: expected x1,...,xK,y")
    stream = []
    for row, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != k + 1:
            raise DataFormatError(f"row {row}: expected {k + 1} fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields]
            stream.append(Observation(values[:-1], values[-1]))
        except ValueError as exc:
            raise DataFormatError(f"row {row}: {exc}") from exc
    return stream


def _ledger_header(levels: tuple[float, ...]) -> str:
    names = (f"{name}_{eps!r}" for eps in levels for name in ("err", "Err", "L", "M"))
    return ",".join(("n", *names))


def write_ledger(path, ledger: LedgerTable) -> None:
    """One row per step: n, then err/Err/L/M per significance level."""
    if ledger.steps < 1:
        raise ValueError("refusing to write an empty ledger")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_ledger_header(ledger.levels) + "\n")
        for i in range(ledger.steps):
            fields = [str(i + 1)]
            for err, cum, width, median in ledger.row(i):
                fields += [str(err), str(cum), _fmt(width), _fmt(median)]
            fh.write(",".join(fields) + "\n")


def read_ledger(path) -> LedgerTable:
    """Parse a ledger file written by :func:`write_ledger`.

    Each row is replayed through :meth:`LedgerTable.append`, which checks
    err and L and derives Err and M; the file's Err and M must equal those.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty file: missing ledger header")
    header = lines[0].split(",")
    try:
        table = LedgerTable(float(name.split("_", 1)[-1]) for name in header[1::4])
    except ValueError as exc:
        raise DataFormatError(f"malformed ledger header {lines[0]!r}: {exc}") from exc
    if _ledger_header(table.levels) != lines[0]:
        raise DataFormatError(f"malformed ledger header {lines[0]!r}")
    if not table.levels:
        raise DataFormatError(f"ledger header {lines[0]!r} names no significance level")
    levels = table.levels
    for row, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataFormatError(f"row {row}: expected {len(header)} fields, got {len(fields)}")
        if fields[0] != str(table.steps + 1):
            raise DataFormatError(f"row {row}: step index {fields[0]} out of order")
        try:
            errors = dict(zip(levels, map(int, fields[1::4])))
            cums = list(map(int, fields[2::4]))
            widths = dict(zip(levels, map(float, fields[3::4])))
            medians = list(map(float, fields[4::4]))
        except ValueError as exc:
            raise DataFormatError(f"row {row}: non-numeric field ({exc})") from exc
        try:
            table.append(errors, widths)
        except ValueError as exc:
            raise DataFormatError(f"row {row}: {exc}") from exc
        derived = table.row(-1)
        for eps, cum, median, (_, want_cum, _, want_median) in zip(levels, cums, medians, derived):
            if cum != want_cum:
                problem = f"Err_{eps!r} is {cum}, expected the running error count {want_cum}"
            elif median != want_median:
                problem = f"M_{eps!r} is {median}, expected the running median {want_median}"
            else:
                continue
            raise DataFormatError(f"row {row}: {problem}")
    return table


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
