"""Bit-exact digests of every predictor's outputs on the reference streams.

Run from the repository root:

    PYTHONPATH=src python scripts/output_digest.py [--save OUT.npz] [--against OLD.npz]

For every (predictor, stream, smoothed) run of ``run_online`` it prints two
sha256 digests, every number as ``float.hex``:

* ``all``: the ledger (err, raw err, L and M of every level) and the trace
  (p-values and taus);
* ``flags``: the p-values and the err and raw-err flags alone.

A run that raises digests its exception's type and message instead.  The
streams are K=20 n=120 seeds 0-3, K=2 n=210 seeds 0-3, K=3 n=60 seeds 0-1,
two offset copies of seed 0 (K=20 n=120 with x + 1e4, K=2 n=210 with
y + 1e8), ``tie_heavy_stream()`` and ``integer_stream()``, at eps
0.3/0.05/0.01/0.005, seed 3 and 1000 Monte-Carlo draws.  The offset copies
put a refactor's bit-identity to the test at scales where a change in the
order of the arithmetic shows.

The digests depend on the BLAS kernel, so they only compare runs of two
trees on one host.  ``--save`` writes every run's outputs to a file;
``--against`` reads such a file from another tree and reports, per run that
differs, how many p-values and flags changed and the largest relative
change of a width.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from cpreg import (  # noqa: E402
    PREDICTOR_KINDS,
    Observation,
    RunConfig,
    SyntheticSpec,
    generate,
    run_online,
)
from test_predictor_iid import integer_stream, tie_heavy_stream  # noqa: E402

LEVELS = (0.3, 0.05, 0.01, 0.005)
STREAMS = {
    **{f"k20-n120-s{s}": (20, 120, s) for s in range(4)},
    **{f"k2-n210-s{s}": (2, 210, s) for s in range(4)},
    **{f"k3-n60-s{s}": (3, 60, s) for s in range(2)},
    # (K, n, seed, x offset, y offset)
    "k20-n120-s0-x+1e4": (20, 120, 0, 1e4, 0.0),
    "k2-n210-s0-y+1e8": (2, 210, 0, 0.0, 1e8),
    "tie-heavy": tie_heavy_stream,
    "integer": integer_stream,
}


def _stream(spec):
    if callable(spec):
        return spec()
    k, n, seed, *offsets = spec
    stream = generate(SyntheticSpec(k=k, n=n, seed=seed))
    if not offsets:
        return stream
    dx, dy = offsets
    return [Observation(obs.x + dx, obs.y + dy) for obs in stream]


def _outputs(kind: str, stream, smoothed: bool) -> dict[str, np.ndarray]:
    """The run's output columns by name, or its error message as ``error``."""
    config = RunConfig(predictor=kind, epsilons=LEVELS, smoothed=smoothed, seed=3)
    try:
        ledger, trace = run_online(config, stream)
    except Exception as exc:  # a refused run is an output too
        return {"error": np.array(f"{type(exc).__name__}: {exc}")}
    out = {"pvalues": np.array(trace.pvalues), "taus": np.array(trace.taus)}
    for eps in LEVELS:
        out[f"err{eps}"] = np.array(ledger.errors(eps), dtype=float)
        out[f"raw{eps}"] = np.array(ledger.raw_errors(eps), dtype=float)
        out[f"width{eps}"] = np.array(ledger.widths(eps))
        out[f"median{eps}"] = np.array(ledger.medians(eps))
    return out


def _digest(out: dict[str, np.ndarray], names) -> str:
    h = hashlib.sha256()
    for name in names:
        if name in out:
            values = out[name]
            if values.dtype.kind != "U":  # an error message digests as its text
                values = " ".join(map(float.hex, values.tolist()))
            h.update(f"{name}:{values}\n".encode())
    return h.hexdigest()


def _differences(new: dict[str, np.ndarray], old: dict[str, np.ndarray]) -> str | None:
    """What changed between two runs' outputs, or None if they are bit-identical."""
    if new.keys() != old.keys() or "error" in new:
        return None if _digest(new, new) == _digest(old, old) else "outputs differ in kind"
    changed = {name: int(np.count_nonzero(new[name] != old[name])) for name in new}
    if not any(changed.values()):
        return None
    flags = sum(n for name, n in changed.items() if name.startswith(("err", "raw")))
    widths = 0.0
    for eps in LEVELS:
        a, b = new[f"width{eps}"], old[f"width{eps}"]
        finite = np.isfinite(a) & np.isfinite(b)
        if not np.array_equal(np.isfinite(a), np.isfinite(b)):
            widths = np.inf
        elif finite.any():
            scale = np.maximum(np.abs(b[finite]), np.finfo(float).tiny)
            widths = max(widths, float(np.max(np.abs(a[finite] - b[finite]) / scale)))
    return f"p-values {changed['pvalues']}, flags {flags}, widths <= {widths:.2g} relative"


def _load(path: Path) -> dict[str, dict[str, np.ndarray]]:
    """Outputs written by ``--save``, by run and then by column."""
    runs = {}
    with np.load(path) as saved:
        for key in saved.files:
            run, name = key.rsplit("/", 1)
            runs.setdefault(run, {})[name] = saved[key]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="write every run's outputs to this .npz file")
    parser.add_argument("--against", type=Path, help="compare with a file written by --save")
    args = parser.parse_args(argv)
    old = _load(args.against) if args.against else None
    flags = ["pvalues"] + [f"{col}{eps}" for eps in LEVELS for col in ("err", "raw")]
    saved, moved = {}, 0
    for stream_name, spec in STREAMS.items():
        stream = _stream(spec)
        for kind in PREDICTOR_KINDS:
            for smoothed in (False, True):
                run = f"{kind}/{stream_name}/{'smoothed' if smoothed else 'deterministic'}"
                out = _outputs(kind, stream, smoothed)
                print(run, "all", _digest(out, sorted(out)), "flags", _digest(out, flags))
                saved.update({f"{run}/{name}": values for name, values in out.items()})
                if old is not None:
                    change = _differences(out, old[run]) if run in old else "not in the saved file"
                    if change:
                        moved += 1
                        print("  changed:", change)
    if args.save:
        np.savez(args.save, **saved)
    if old is not None:
        print(f"{moved} runs differ from {args.against}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
