"""Benchmark of the cpreg package, measured from outside through its public API.

    python3 perfbench/run.py --workload paper-online --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer split from traced passes of every
predictor, next to untraced passes that give the tracing overhead.  Every
metric line gives name, value, unit and sample count; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run (environment, samples, problems and,
with tracing, the spans of each predictor's first traced pass) goes to
``.bench_build/perfbench/``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    # One BLAS thread, set before numpy loads, in this process and the
    # interpreters it starts.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cpreg" / "__init__.py").is_file():
        print(f"perfbench: no cpreg package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import cpreg

    if Path(cpreg.__file__).resolve().parent != (SRC / "cpreg").resolve():
        print(f"perfbench: imported cpreg from {cpreg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
