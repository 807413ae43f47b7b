"""Set-up and one pass of each predictor over a workload's streams.

A pass is what a user of the package waits for: ``run_online`` over every
stream on region workloads, ``run_trace`` plus the validity batteries of
``cpreg validate`` on the others.  The program receives only the
``Observation`` lists read back from the files that set-up wrote.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from cpreg import (
    RunConfig,
    SyntheticSpec,
    binomial_band,
    generate,
    independence_test,
    read_stream,
    run_online,
    run_trace,
    uniformity_test,
    write_stream,
)

from .checks import FALSE_ALARM_LEVEL
from .spec import Workload
from .tracing import Counts, Recorder, traced_pass

IMPORT_PROBE = "import time; t = time.perf_counter(); import cpreg; print(time.perf_counter() - t)"


def import_seconds(src: Path) -> float:
    """Time to import cpreg in a fresh interpreter, as a CLI call pays it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout.strip())


def setup(workload: Workload, seed: int, workdir: Path, src: Path):
    """Import, generate and round-trip the streams; returns (streams, timings)."""
    timings = {"import": import_seconds(src)}
    start = perf_counter()
    generated = [generate(SyntheticSpec(k=workload.k, n=workload.n, seed=seed + i)) for i in range(workload.streams)]
    timings["generate"] = perf_counter() - start
    paths = [workdir / f"stream{i}.csv" for i in range(workload.streams)]
    start = perf_counter()
    for path, stream in zip(paths, generated):
        write_stream(path, stream, dim=workload.k)
    timings["write_stream"] = perf_counter() - start
    start = perf_counter()
    streams = [read_stream(path) for path in paths]
    timings["read_stream"] = perf_counter() - start
    if streams != generated:
        raise RuntimeError("stream round trip through write_stream/read_stream is not exact")
    return streams, timings


def configs(workload: Workload, kind: str, seed: int) -> list[RunConfig]:
    return [
        RunConfig(predictor=kind, epsilons=workload.epsilons, smoothed=workload.smoothed, seed=seed + i)
        for i in range(workload.streams)
    ]


def validate_batteries(kind: str, k: int, eps: float, trace):
    """The batteries ``cpreg validate`` runs on one trace, with its eligibility rule."""
    eligible_from = {"gauss": k + 3, "mva": 3}.get(kind, 1)
    uni = uniformity_test(trace, level=FALSE_ALARM_LEVEL)
    errs = trace.errors(eps)[eligible_from - 1 :]
    indep = independence_test(errs) if errs.size >= 200 else None
    band = binomial_band(errs.size, eps, FALSE_ALARM_LEVEL)
    return uni, indep, errs, band


def run_pass(workload: Workload, kind: str, seed: int, streams) -> list[tuple]:
    """Untraced pass: per stream, (ledger, trace, None) or (None, trace, batteries)."""
    results = []
    for config, stream in zip(configs(workload, kind, seed), streams):
        if workload.regions:
            ledger, trace = run_online(config, stream)
            results.append((ledger, trace, None))
        else:
            trace = run_trace(config, stream)
            results.append((None, trace, validate_batteries(kind, workload.k, workload.epsilons[0], trace)))
    return results


def run_traced_pass(workload: Workload, kind: str, seed: int, streams, run_id: str):
    """The same pass through the benchmark's traced loop; also returns its
    span recorder and counts."""
    rec, counts = Recorder(run_id), Counts()
    results = []
    for config, stream in zip(configs(workload, kind, seed), streams):
        ledger, trace = traced_pass(config, stream, rec, counts, workload.regions)
        batteries = None
        if not workload.regions:
            batteries = rec.call(
                "protocol.batteries", validate_batteries, kind, workload.k, workload.epsilons[0], trace
            )
        results.append((ledger, trace, batteries))
    return results, rec, counts
