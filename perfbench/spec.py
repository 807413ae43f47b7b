"""What the benchmark measures: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repository root is rendered from this module;
``python3 perfbench/spec.py`` rewrites it, and the smoke test checks that
the committed file still matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

PREDICTORS = ("iid", "gauss", "mva", "iid-gauss", "wilks")
RUN_SECONDS = 50
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    """One input set: ``streams`` synthetic streams of n rows and K features.

    ``regions`` selects the protocol: ``run_online`` (regions at every
    level, ledger) or ``run_trace`` followed by the validity batteries.
    """

    name: str
    k: int
    n: int
    streams: int
    smoothed: bool
    epsilons: tuple[float, ...]
    regions: bool
    why: str

    def tiny(self) -> "Workload":
        """The same protocol at a size that runs in about a second."""
        k, n = TINY_SIZES[self.name]
        return replace(self, k=k, n=n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-online", k=20, n=120, streams=1, smoothed=False,
            epsilons=(0.05, 0.01, 0.005), regions=True,
            why="paper tables at K=20 n=120 (the paper's n/K=6), deterministic: regions, ledger, iid sweep, t quantiles,"
            " iid-gauss Monte Carlo; exposes ROADMAP items 2, 3, 4 and the studentt cleanup",
        ),
        Workload(
            "validate-trace", k=2, n=210, streams=2, smoothed=True,
            epsilons=(0.05,), regions=False,
            why="cpreg validate --synthetic at K=2 n=210 over 2 seeds: p-value traces and batteries,"
            " no regions or ledger; bypasses item 2's region work, exposes item 4's draws",
        ),
    )
}

TINY_SIZES = {"paper-online": (3, 40), "validate-trace": (2, 210)}


def _metric(name, unit, better, bound=None):
    entry = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        entry["bound"] = bound
    return entry


END_TO_END = [
    _metric("setup_s", "s", "lower", 0.25),
    *(_metric(f"run_s.{p}", "s", "lower", 0.25) for p in PREDICTORS),
    _metric("peak_rss_mb", "MB", "lower", 0.1),
]

# Span names, as recorded around the calls into each layer (see tracing.py).
PREDICTOR_SPANS = (
    "predictors.begin_step",
    "predictors.raw_region",
    "predictors.pvalue",
    "predictors.observe",
    "regions.hull_contains",
    "ledger.record_step",
    "protocol.self",
)
PREDICTOR_COUNTS = ("regions.raw_pieces", "protocol.disagree")
GLOBAL_TIMES = (
    "protocol.batteries_s",
    "studentt.t_upper_point_s",
    "studentt.t_sf_s",
    "dataset.write_stream_s",
    "dataset.read_stream_s",
    "dataset.write_ledger_s",
    "dataset.read_ledger_s",
    "dataset.write_plot_data_s",
)
GLOBAL_COUNTS = (
    "iid.critical_points",
    "iid-gauss.mc_steps",
    "iid-gauss.exact_steps",
    "randomness.normals_drawn",
)

PER_LAYER = [
    *(_metric(f"{span}_s.{p}", "s", "lower") for p in PREDICTORS for span in PREDICTOR_SPANS),
    *(_metric(f"{count}.{p}", "count", "lower") for p in PREDICTORS for count in PREDICTOR_COUNTS),
    *(_metric(f"trace.run_s.{p}", "s", "lower") for p in PREDICTORS),
    *(_metric(name, "s", "lower") for name in GLOBAL_TIMES),
    *(_metric(name, "count", "lower") for name in GLOBAL_COUNTS),
    _metric("trace.overhead_frac", "frac", "lower"),
]


def render() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, for the metrics a run with this trace flag prints."""
    return {m["name"]: m["unit"] for m in (PER_LAYER if trace else END_TO_END)}


if __name__ == "__main__":
    BENCHMARK_JSON.write_text(json.dumps(render(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BENCHMARK_JSON}")
