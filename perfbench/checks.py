"""Output checks behind the ``failed`` count.

Every check returns a list of problems; an empty list means the output
passed.  Binomial bands and battery thresholds use ``FALSE_ALARM_LEVEL``
rather than the CLI's 1%: a run checks 15 (predictor, level) error counts
and a benchmark campaign makes dozens of runs, so at 1% chance alone would fail
some seed (smoothed wilks on seed 3 makes 15 errors at eps 0.01 against
a 1% upper band of 13, while its rate over 40 seeds is 0.0111).
"""

from __future__ import annotations

import math

from scipy import stats

from cpreg import error_frequency_check

FALSE_ALARM_LEVEL = 1e-6
# Two-sided normal critical value at FALSE_ALARM_LEVEL.
Z_CRIT = float(stats.norm.isf(FALSE_ALARM_LEVEL / 2.0))


def first_eligible(kind: str, k: int, eps: float) -> int:
    """First step at which the predictor's region can miss the response.

    gauss predicts the real line before K+3, mva before step 3, and
    iid-gauss's degenerate-conditional convention before min(1/eps, K+3).
    """
    if kind == "gauss":
        return k + 3
    if kind == "mva":
        return 3
    if kind == "iid-gauss":
        return min(math.ceil(1.0 / eps), k + 3)
    return 1


def check_online(kind: str, k: int, n: int, smoothed: bool, ledger, trace) -> list[str]:
    """Ledger shape, nesting, thresholds and error counts of one run_online."""
    problems = []
    levels = ledger.levels
    if ledger.steps != n or len(trace) != n:
        return [f"{ledger.steps} ledger steps and {len(trace)} p-values, expected {n}"]
    for eps in levels:
        if len(ledger.widths(eps)) != n or min(ledger.widths(eps)) < 0.0:
            problems.append(f"eps {eps}: widths missing or negative")
    for wide_eps, narrow_eps in zip(levels[1:], levels):
        wider, narrower = ledger.widths(wide_eps), ledger.widths(narrow_eps)
        bad = [i + 1 for i in range(n) if narrower[i] > wider[i]]
        if bad:
            problems.append(f"hull at eps {narrow_eps} wider than at eps {wide_eps} at steps {bad[:5]}")
    for eps in levels:
        eligible = first_eligible(kind, k, eps)
        report = error_frequency_check(
            ledger, eps, eligible_from=min(eligible, n + 1), use_raw=smoothed, level=FALSE_ALARM_LEVEL
        )
        if smoothed and not report.passed:
            problems.append(
                f"eps {eps}: {report.errors} raw errors in {report.trials} steps,"
                f" band [{report.lower}, {report.upper}]"
            )
        if not smoothed:
            if report.errors > report.upper:
                problems.append(
                    f"eps {eps}: {report.errors} errors in {report.trials} steps above band {report.upper}"
                )
            first = ledger.first_bounded_step(eps)
            if kind == "gauss" and n >= k + 3 and first != k + 3:
                problems.append(f"eps {eps}: gauss first bounded at {first}, expected {k + 3}")
            floor = {"iid": math.ceil(1.0 / eps), "mva": 3}.get(kind)
            if floor is not None and first is not None and first < floor:
                problems.append(f"eps {eps}: {kind} first bounded at {first} < {floor}")
    return problems


def battery_verdict(results) -> list[str]:
    """The CLI's seeds-1 rule over one predictor's battery results.

    ``results`` holds, per stream, what ``workloads.validate_batteries``
    returns: uniformity report, independence report (None below 200
    eligible steps, as in the CLI), error indicators and binomial band.
    """
    passes = {"uniformity": 0, "independence": 0, "frequency": 0}
    for uni, indep, errs, (lower, upper) in results:
        passes["uniformity"] += uni.passed
        passes["independence"] += indep is None or indep.degenerate or (
            abs(indep.lag1) * math.sqrt(errs.size) < Z_CRIT and abs(indep.runs_z) < Z_CRIT
        )
        passes["frequency"] += lower <= int(errs.sum()) <= upper
    seeds = len(results)
    required = seeds - 1 if seeds > 1 else 1
    return [
        f"{battery}: {count}/{seeds} seeds pass, need {required}"
        for battery, count in passes.items()
        if count < required
    ]


def check_trace(n: int, trace) -> list[str]:
    if len(trace) != n:
        return [f"{len(trace)} p-values, expected {n}"]
    return []


def same_outputs(ledger_a, trace_a, ledger_b, trace_b) -> bool:
    """Bit-identical errors, raw errors, widths, p-values and tie-breaks."""
    if trace_a.pvalues != trace_b.pvalues or trace_a.taus != trace_b.taus:
        return False
    if ledger_a is None or ledger_b is None:
        return ledger_a is ledger_b
    return ledger_a.levels == ledger_b.levels and all(
        ledger_a.errors(eps) == ledger_b.errors(eps)
        and ledger_a.raw_errors(eps) == ledger_b.raw_errors(eps)
        and ledger_a.widths(eps) == ledger_b.widths(eps)
        for eps in ledger_a.levels
    )
