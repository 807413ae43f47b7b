"""Spans around the public calls of one protocol pass.

``traced_pass`` is the benchmark's own copy of the ``run_online`` /
``run_trace`` loop.  It makes the same calls in the same order, so its
ledger and p-value trace must equal the untraced ones, and it records a
span (name, start, end, parent, run id) around each call into a layer.
Spans stay in memory until the benchmark ends.

Counts are gathered inside ``bench.counts`` spans; their time belongs to
the benchmark, not to the program, and is left out of every layer.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from cpreg import (
    OnlineLedger,
    PValueTrace,
    RandomStream,
    check_stream,
    critical_points,
    make_predictor,
)

COUNTS = "bench.counts"


class Recorder:
    """In-memory span log of one traced pass, tagged with its run id."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self._parent = -1

    def call(self, name: str, fn, *args):
        parent = self._parent
        index = len(self.spans)
        self.spans.append(None)
        self._parent = index
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (name, start, perf_counter(), parent, self.run)
            self._parent = parent

    def layers(self) -> dict[str, float]:
        """Busy time per span name, plus ``protocol.self`` and ``total``.

        ``protocol.self`` is the time of the ``protocol.run`` spans not
        covered by their children; ``total`` is the pass time without the
        benchmark's own counting.
        """
        busy: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            if parent >= 0:
                children[parent] += end - start
            else:
                top += end - start
        busy["protocol.self"] = sum(
            end - start - children[index]
            for index, (name, start, end, _, _) in enumerate(self.spans)
            if name == "protocol.run"
        )
        busy["total"] = top - busy[COUNTS]
        return busy


@dataclass
class Counts:
    """Work counted at the layer boundaries of one traced pass."""

    raw_pieces: int = 0
    disagree: int = 0
    critical_points: int = 0
    mc_steps: int = 0
    exact_steps: int = 0
    normals_drawn: int = 0  # computed: mc_samples x n per Monte-Carlo step
    t_upper_args: list = field(default_factory=list)  # (delta, df) passed to t_upper_point
    t_sf_args: list = field(default_factory=list)  # (|t|, df) passed to t_sf


def _hull_contains(raw, y):
    reported = raw.convex_hull()
    return (0 if reported.contains(y) else 1), (0 if raw.contains(y) else 1), reported.length


def _count_step(config, ctx, y, pvalue, raws, raw_errors, counts: Counts) -> None:
    kind = config.predictor
    for eps, raw in raws.items():
        counts.raw_pieces += len(raw.pieces)
        counts.disagree += int((raw_errors[eps] == 0) != (pvalue > eps))
    if kind == "iid" and raws:
        counts.critical_points += critical_points(ctx.residuals).size
    elif kind == "iid-gauss":
        if ctx.exact:
            counts.exact_steps += 1
        else:
            counts.mc_steps += 1
            counts.normals_drawn += config.mc_samples * ctx.n
    elif kind == "gauss" and ctx.informative and ctx.scale > 0.0:
        counts.t_upper_args += [(eps / 2.0, ctx.df) for eps in raws]
        counts.t_sf_args.append((abs((y - ctx.center) / ctx.scale), ctx.df))
    elif kind == "mva" and ctx.informative:
        n = ctx.n
        counts.t_upper_args += [(eps / 2.0, n - 2) for eps in raws]
        gap = (ctx.last[0] - ctx.mean[0]) * y + (ctx.last[1] - ctx.mean[1])
        ss = max(ctx.spread[0] * y * y + ctx.spread[1] * y + ctx.spread[2], 0.0)
        if ss > 0.0:
            stat = math.sqrt((n - 1.0) * (n - 2.0) / n) * gap / math.sqrt(ss)
            counts.t_sf_args.append((abs(stat), n - 2))


def traced_pass(config, stream, rec: Recorder, counts: Counts, regions: bool):
    """One run of the protocol with spans; returns (ledger or None, trace)."""

    def run():
        observations = list(stream)
        check_stream(observations)
        predictor = make_predictor(config)
        taus = RandomStream(config.seed, substream=0) if config.smoothed else None
        ledger = OnlineLedger(config.epsilons) if regions else None
        trace = PValueTrace(smoothed=config.smoothed)
        for obs in observations:
            tau = taus.uniform() if taus is not None else 1.0
            ctx = rec.call("predictors.begin_step", predictor.begin_step, obs.x)
            raws, errors, raw_errors, widths = {}, {}, {}, {}
            if regions:
                for eps in config.epsilons:
                    raws[eps] = rec.call("predictors.raw_region", predictor.raw_region, ctx, eps, tau)
                    errors[eps], raw_errors[eps], widths[eps] = rec.call(
                        "regions.hull_contains", _hull_contains, raws[eps], obs.y
                    )
            pvalue = rec.call("predictors.pvalue", predictor.pvalue, ctx, obs.y, tau)
            rec.call("predictors.observe", predictor.observe, obs)
            if regions:
                rec.call("ledger.record_step", ledger.record_step, errors, raw_errors, widths)
            trace.append(pvalue, tau)
            rec.call(COUNTS, _count_step, config, ctx, obs.y, pvalue, raws, raw_errors, counts)
        return ledger, trace

    return rec.call("protocol.run", run)


def time_calls(fn, args: list, min_seconds: float, samples: int = 3) -> float:
    """Median time of one sweep of ``fn(*a) for a in args``."""
    if not args:
        return 0.0
    times = []
    for _ in range(samples):
        start, reps = perf_counter(), 0
        while True:
            for a in args:
                fn(*a)
            reps += 1
            if perf_counter() - start >= min_seconds:
                break
        times.append((perf_counter() - start) / reps)
    return statistics.median(times)
