"""Measurement, checks and report of one benchmark run (see run.py)."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
import scipy

from cpreg import read_ledger, t_sf, t_upper_point, write_ledger, write_plot_data

from .calibration import NOMINAL_S, probe
from .checks import battery_verdict, check_online, check_trace, same_outputs
from .spec import PREDICTOR_SPANS, PREDICTORS, WORKLOADS, units
from .tracing import time_calls
from .workloads import run_pass, run_traced_pass, setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A sample runs passes of one predictor for at least MIN_SAMPLE_S; in
# each round every predictor runs samples for at least ROUND_SHARE_S, so
# that the fast predictors get many samples while the slow one takes one.
MIN_SAMPLE_S = 0.1
ROUND_SHARE_S = 0.5
PROBE_WINDOW = 3
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="cpreg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def environment(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


class Tally:
    """Attempted and failed (predictor, stream) runs, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, None] = {}  # distinct problems, in order found

    def add(self, kind: str, per_stream: list[list[str]]) -> None:
        for i, problems in enumerate(per_stream):
            self.attempted += 1
            self.failed += bool(problems)
            self.problems.update(dict.fromkeys(f"{kind} stream {i}: {p}" for p in problems))


def check_pass(workload, kind, results, reference=None) -> list[list[str]]:
    """Problems per stream: full checks on a first pass; later passes must
    reproduce the ``(results, problems)`` of the first and inherit its problems."""
    if reference is not None:
        return [
            problems if same_outputs(ledger, trace, ref[0], ref[1]) else ["output differs from the first pass"]
            for (ledger, trace, _), ref, problems in zip(results, *reference)
        ]
    if workload.regions:
        return [
            check_online(kind, workload.k, workload.n, workload.smoothed, ledger, trace)
            for ledger, trace, _ in results
        ]
    verdict = battery_verdict([batteries for _, _, batteries in results])
    return [check_trace(workload.n, trace) + verdict for _, trace, _ in results]


def quartiles(values) -> str:
    low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{low:.6g}..{high:.6g}"


class Sampler:
    """Timings, each followed by a calibration probe (see calibration.py).

    A timing is scaled to reference seconds by NOMINAL_S over the median
    of the PROBE_WINDOW probes on either side of it.  The window follows
    the host's drift, which takes seconds, and evens out the jitter of
    single probes.
    """

    def __init__(self):
        self.probes = [probe()]

    def mark(self, seconds: float) -> tuple[float, int]:
        """Record ``seconds`` measured since the last probe, then probe."""
        self.probes.append(probe())
        return seconds, len(self.probes) - 2

    def scaled(self, mark: tuple[float, int]) -> float:
        """A marked timing in reference seconds."""
        seconds, before = mark
        window = self.probes[max(0, before - PROBE_WINDOW + 1) : before + 1 + PROBE_WINDOW]
        return seconds * NOMINAL_S / statistics.median(window)

    def sample(self, fn):
        """Call ``fn`` until MIN_SAMPLE_S has passed; (mark of the time per call, outputs)."""
        outputs = []
        start = perf_counter()
        while not outputs or perf_counter() - start < MIN_SAMPLE_S:
            outputs.append(fn())
        return self.mark((perf_counter() - start) / len(outputs)), outputs


def measure(workload, seed, streams, seconds, traced, tally, sampler):
    """Rounds of samples over every predictor until ``seconds`` are spent.

    In each round every predictor runs untraced samples for at least
    ROUND_SHARE_S and, with tracing, one traced sample after them; the
    predictor order rotates per round.  Returns per predictor the marks
    of the untraced samples (time per pass), the layer split of each
    traced pass, the counts and spans of the first traced pass, and the
    output of the first pass.
    """
    untraced = {kind: [] for kind in PREDICTORS}
    layers = {kind: [] for kind in PREDICTORS}
    counts: dict = {}
    first_spans: dict = {}
    run_ids = itertools.count()
    min_rounds = 2 if traced else 3
    start = perf_counter()
    # An untimed first pass per predictor lets the allocator and caches
    # settle and gets the full output checks; timed passes must repeat it.
    reference = {}
    for kind in PREDICTORS:
        results = run_pass(workload, kind, seed, streams)
        reference[kind] = results, check_pass(workload, kind, results)
        tally.add(kind, reference[kind][1])
    sampler.mark(0.0)
    rounds, round_cost = 0, 0.0
    while rounds < min_rounds or perf_counter() - start + round_cost <= seconds:
        round_start = perf_counter()
        for kind in PREDICTORS[rounds % 5 :] + PREDICTORS[: rounds % 5]:
            share_start = perf_counter()
            while perf_counter() - share_start < ROUND_SHARE_S:
                mark, outputs = sampler.sample(lambda: run_pass(workload, kind, seed, streams))
                untraced[kind].append(mark)
                for results in outputs:
                    tally.add(kind, check_pass(workload, kind, results, reference[kind]))
            if not traced:
                continue
            traced_passes = sampler.sample(
                lambda: run_traced_pass(workload, kind, seed, streams, f"{kind}/{next(run_ids)}")
            )[1]
            for results, rec, pass_counts in traced_passes:
                tally.add(kind, check_pass(workload, kind, results, reference[kind]))
                counts.setdefault(kind, pass_counts)
                first_spans.setdefault(kind, rec.spans)
                layers[kind].append(rec.layers())
        rounds += 1
        round_cost = perf_counter() - round_start
    return untraced, layers, counts, reference, first_spans


def ledger_io(references, workdir) -> dict[str, float]:
    """Median times of the ``cpreg run``/``report`` tail over every ledger."""
    ledgers = [ledger for results in references for ledger, _, _ in results if ledger is not None]
    samples = {"write_ledger": [], "read_ledger": [], "write_plot_data": []}
    for _ in range(3):
        totals = dict.fromkeys(samples, 0.0)
        for i, ledger in enumerate(ledgers):
            path, plot = workdir / f"ledger{i}.csv", workdir / f"curves{i}.txt"
            start = perf_counter()
            write_ledger(path, ledger)
            totals["write_ledger"] += perf_counter() - start
            start = perf_counter()
            table = read_ledger(path)
            totals["read_ledger"] += perf_counter() - start
            start = perf_counter()
            write_plot_data(plot, table)
            totals["write_plot_data"] += perf_counter() - start
            if any(table.widths(e) != ledger.widths(e) or table.errors(e) != ledger.errors(e) for e in ledger.levels):
                raise RuntimeError("ledger round trip through write_ledger/read_ledger is not exact")
        for name, value in totals.items():
            samples[name].append(value)
    return {name: statistics.median(values) for name, values in samples.items()}


def per_layer_metrics(untraced, layers, counts, setups, ledger_times) -> dict:
    metrics = {}
    for kind in PREDICTORS:
        for span in PREDICTOR_SPANS:
            metrics[f"{span}_s.{kind}"] = statistics.fmean(s.get(span, 0.0) for s in layers[kind])
        metrics[f"regions.raw_pieces.{kind}"] = counts[kind].raw_pieces
        metrics[f"protocol.disagree.{kind}"] = counts[kind].disagree
        metrics[f"trace.run_s.{kind}"] = statistics.fmean(s["total"] for s in layers[kind])
    metrics["protocol.batteries_s"] = sum(
        statistics.fmean(s.get("protocol.batteries", 0.0) for s in layers[kind]) for kind in PREDICTORS
    )
    t_model = [counts[kind] for kind in ("gauss", "mva")]
    metrics["studentt.t_upper_point_s"] = time_calls(t_upper_point, [a for c in t_model for a in c.t_upper_args], 0.1)
    metrics["studentt.t_sf_s"] = time_calls(t_sf, [a for c in t_model for a in c.t_sf_args], 0.1)
    for name in ("write_stream", "read_stream"):
        metrics[f"dataset.{name}_s"] = statistics.median(s[name] for s in setups)
    for name, value in ledger_times.items():
        metrics[f"dataset.{name}_s"] = value
    metrics["iid.critical_points"] = counts["iid"].critical_points
    metrics["iid-gauss.mc_steps"] = counts["iid-gauss"].mc_steps
    metrics["iid-gauss.exact_steps"] = counts["iid-gauss"].exact_steps
    metrics["randomness.normals_drawn"] = counts["iid-gauss"].normals_drawn
    traced_total = sum(metrics[f"trace.run_s.{kind}"] for kind in PREDICTORS)
    untraced_total = sum(statistics.fmean(untraced[kind]) for kind in PREDICTORS)
    metrics["trace.overhead_frac"] = traced_total / untraced_total - 1.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload].tiny() if args.tiny else WORKLOADS[args.workload]
    env = environment(args)
    print(f"# perfbench {json.dumps(env, sort_keys=True)}", flush=True)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        sampler = Sampler()
        setups, setup_marks = [], []
        for _ in range(SETUP_REPEATS):
            streams, timings = setup(workload, args.seed, workdir, SRC)
            setups.append(timings)
            setup_marks.append(sampler.mark(sum(timings.values())))
        marks, layers, counts, reference, first_spans = measure(
            workload, args.seed, streams, args.seconds, bool(args.trace), tally, sampler
        )
        untraced = {kind: [seconds for seconds, _ in kind_marks] for kind, kind_marks in marks.items()}
        scaled = {kind: [sampler.scaled(mark) for mark in kind_marks] for kind, kind_marks in marks.items()}
        ledger_times = ledger_io([results for results, _ in reference.values()], workdir) if args.trace else {}

    if args.trace:
        metrics = per_layer_metrics(untraced, layers, counts, setups, ledger_times)
        notes = {f"trace.run_s.{kind}": f"mean of {len(layers[kind])} traced passes" for kind in PREDICTORS}
    else:
        metrics = {"setup_s": statistics.median(sampler.scaled(mark) for mark in setup_marks)}
        metrics.update({f"run_s.{kind}": statistics.median(scaled[kind]) for kind in PREDICTORS})
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes = {
            f"run_s.{kind}": f"reference seconds, median of {len(times)} samples; quartiles {quartiles(times)};"
            f" unscaled median {statistics.median(untraced[kind]):.6g} s"
            for kind, times in scaled.items()
        }
        notes["setup_s"] = (
            f"reference seconds, median of {len(setups)};"
            f" unscaled median {statistics.median(sum(s.values()) for s in setups):.6g} s"
        )
    speeds = [NOMINAL_S / p for p in sampler.probes]
    print(
        f"# host speed (NOMINAL_S / probe): median {statistics.median(speeds):.4g},"
        f" quartiles {quartiles(speeds)} over {len(speeds)} probes"
    )
    unit = units(bool(args.trace))
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit[name]}{note}")
    if args.trace:
        for kind in PREDICTORS:
            split = sum(metrics[f"{span}_s.{kind}"] for span in PREDICTOR_SPANS)
            split += statistics.fmean(s.get("protocol.batteries", 0.0) for s in layers[kind])
            print(
                f"# split {kind}: layers add to {split:.6g} s; traced pass {metrics[f'trace.run_s.{kind}']:.6g} s;"
                f" untraced pass {statistics.fmean(untraced[kind]):.6g} s; means of {len(layers[kind])} and {len(untraced[kind])}"
            )
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} frac ({tally.failed} of {tally.attempted} runs)")
    for problem in list(tally.problems)[:20]:
        print(f"# problem: {problem}")

    record = {
        "env": env,
        "marks": marks,  # per predictor: [seconds per pass, index of the probe before] per sample
        "scaled_samples": scaled,
        "setup_marks": setup_marks,
        "probes": sampler.probes,
        "problems": list(tally.problems),
    }
    record["metrics"] = metrics
    if args.trace:
        record["spans"] = first_spans
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0

