"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N ...: PASS/FAIL`` line in addition to
its assertions, so a verbose run doubles as a checklist.  The synthetic
benchmark (100 features, alternating +-10 block then +-1, intercept 100,
unit noise) is regenerated from fixed seeds; every run here is deterministic
given those seeds.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats

from cpreg import (
    FeatureSchedule,
    GaussPredictor,
    IidPredictor,
    MvaPredictor,
    Observation,
    RunConfig,
    SyntheticSpec,
    binomial_band,
    generate,
    independence_test,
    read_plot_data,
    run_online,
    run_trace,
    t_sf,
    t_upper_point,
    uniformity_test,
    wilks_region,
    write_plot_data,
)
from cpreg.ledger import running_median
from oracles import gauss_tstat

EPS = (0.05, 0.01, 0.005)
TABLE_SEEDS = range(5)


def report(criterion: str, ok: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def table_ledgers():
    """Deterministic benchmark runs used by criteria 1, 2 and 8."""
    runs = {}
    for kind, seeds in (
        ("iid", TABLE_SEEDS),
        ("gauss", TABLE_SEEDS),
        ("mva", TABLE_SEEDS),
        ("iid-gauss", (0,)),
    ):
        for seed in seeds:
            stream = generate(SyntheticSpec(seed=seed))
            config = RunConfig(predictor=kind, epsilons=EPS, smoothed=False, seed=seed)
            runs[kind, seed] = run_online(config, stream)[0]
    return runs


def test_criterion_1_first_bounded_thresholds(table_ledgers):
    ok = True
    for seed in TABLE_SEEDS:
        for eps in EPS:
            fb = table_ledgers["iid", seed].first_bounded_step(eps)
            ok &= fb is not None and fb >= math.ceil(1.0 / eps)
        fb05 = table_ledgers["iid", seed].first_bounded_step(0.05)
        ok &= 20 <= fb05 <= 25
        for eps in EPS:
            ok &= table_ledgers["gauss", seed].first_bounded_step(eps) == 103
            fb = table_ledgers["mva", seed].first_bounded_step(eps)
            ok &= fb is not None and fb >= 3
        # the quadratic becomes bounded almost immediately at the loosest level
        ok &= table_ledgers["mva", seed].first_bounded_step(0.05) <= 10
    for eps in EPS:
        fb = table_ledgers["iid-gauss", 0].first_bounded_step(eps)
        ok &= fb is not None and fb >= min(math.ceil(1.0 / eps), 103)
    report("1 (first informative step per model)", ok)
    assert ok


def test_criterion_2_median_accuracy_transitions(table_ledgers):
    ok = True
    for seed in TABLE_SEEDS:
        ffm = table_ledgers["iid", seed].first_finite_median_step(0.005)
        ok &= ffm is not None and abs(ffm - 399) <= 2
        for eps in EPS:
            ok &= table_ledgers["gauss", seed].first_finite_median_step(eps) == 205
    report("2 (median-length transitions)", ok)
    assert ok


def test_criterion_3_smoothed_validity_batteries():
    eps = 0.05
    seeds = 20
    ok = True
    for kind, eligible_from in (("gauss", 5), ("mva", 3), ("iid", 1)):
        passes = {"uniformity": 0, "independence": 0, "frequency": 0}
        for s in range(seeds):
            stream = generate(SyntheticSpec(k=2, n=1000, seed=100 + s))
            trace = run_trace(RunConfig(predictor=kind, epsilons=(eps,), seed=s), stream)
            passes["uniformity"] += uniformity_test(trace).passed
            errs = trace.errors(eps)[eligible_from - 1 :]
            passes["independence"] += independence_test(errs).passed
            lo, hi = binomial_band(errs.size, eps)
            passes["frequency"] += lo <= int(errs.sum()) <= hi
        ok &= all(c >= seeds - 1 for c in passes.values())
        print(f"  {kind}: {passes}")
    report("3 (smoothed validity batteries)", ok)
    assert ok


def test_criterion_4_deterministic_conservativeness():
    eps = 0.05
    steps = 600
    _, upper = binomial_band(steps, eps)
    ok = True
    for s in range(20):
        stream = generate(SyntheticSpec(k=2, n=steps, seed=200 + s))
        trace = run_trace(
            RunConfig(predictor="iid", epsilons=(eps,), smoothed=False), stream
        )
        ok &= int(trace.errors(eps).sum()) <= upper
        p = trace.pvalue_array()
        for t in (0.05, 0.1, 0.25):
            ok &= np.mean(p <= t) <= t + 3.0 * math.sqrt(t * (1.0 - t) / steps)
    report("4 (deterministic runs stay conservative)", ok)
    assert ok


def _ridge_scores(xs, ys, schedule):
    """From-scratch absolute ridge residuals of every slot (grid-vectorized).

    ``ys`` may be a matrix whose columns are candidate completions; returns
    the matching matrix of absolute residuals.
    """
    n, k_total = xs.shape
    used = schedule.features_used(n, k_total)
    design = np.column_stack((np.ones(n), xs[:, :used]))
    gram = design.T @ design + schedule.ridge * np.eye(used + 1)
    coef = np.linalg.solve(gram, design.T @ ys)
    return np.abs(ys - design @ coef)


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(12345)
    schedule = FeatureSchedule()
    grid = np.linspace(-50.0, 50.0, 2001)
    levels = (0.05, 0.1, 0.3)
    disagreements = 0
    checked = {"iid": 0, "mva": 0, "gauss": 0}
    for i in range(200):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(0, 4))
        eps = levels[i % len(levels)]
        xs = rng.normal(size=(n, k))
        ys = rng.normal(size=n - 1) * 3.0
        completions = np.vstack((np.repeat(ys[:, None], grid.size, axis=1), grid[None, :]))
        scores = _ridge_scores(xs, completions, schedule)
        own = scores[-1]
        greater = (scores[:-1] > own[None, :]).sum(axis=0)
        ties = (scores[:-1] == own[None, :]).sum(axis=0) + 1
        iid_member = (greater + ties) / n > eps

        iid = IidPredictor(schedule)
        mva = MvaPredictor(schedule)
        gauss = GaussPredictor()
        for x, y in zip(xs[:-1], ys):
            obs = Observation(x, float(y))
            iid.observe(obs)
            mva.observe(obs)
            gauss.observe(obs)

        region = iid.raw_region(iid.begin_step(xs[-1]), eps, 1.0)
        edges = [v for p in region.pieces for v in (p.lo, p.hi) if np.isfinite(v)]
        for j, y in enumerate(grid):
            if edges and min(abs(y - e) for e in edges) < 1e-9:
                continue
            disagreements += region.contains(y) != iid_member[j]
            checked["iid"] += 1

        if n >= 3:
            # the statistic needs signed residuals, recomputed from scratch
            used = schedule.features_used(n, k)
            design = np.column_stack((np.ones(n), xs[:, :used]))
            gram = design.T @ design + schedule.ridge * np.eye(used + 1)
            resid = completions - design @ np.linalg.solve(gram, design.T @ completions)
            gap = resid[-1] - resid[:-1].mean(axis=0)
            ss = ((resid[:-1] - resid[:-1].mean(axis=0)[None, :]) ** 2).sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                stat = np.sqrt((n - 1.0) * (n - 2.0) / n) * gap / np.sqrt(ss)
            crit = t_upper_point(eps / 2.0, n - 2)
            mva_member = np.abs(stat) < crit
            region = mva.raw_region(mva.begin_step(xs[-1]), eps, 1.0)
            edges = [v for p in region.pieces for v in (p.lo, p.hi) if np.isfinite(v)]
            for j, y in enumerate(grid):
                if edges and min(abs(y - e) for e in edges) < 1e-9:
                    continue
                disagreements += region.contains(y) != bool(mva_member[j])
                checked["mva"] += 1

        if n >= k + 3:
            design = np.column_stack((np.ones(n - 1), xs[:-1]))
            coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
            zn = np.concatenate(([1.0], xs[-1]))
            rss = float(((ys - design @ coef) ** 2).sum())
            lev = float(zn @ np.linalg.solve(design.T @ design, zn))
            scale = math.sqrt(rss / (n - k - 2) * (1.0 + lev))
            region = gauss.raw_region(gauss.begin_step(xs[-1]), eps, 1.0)
            edges = [v for p in region.pieces for v in (p.lo, p.hi) if np.isfinite(v)]
            if scale > 0.0:
                tstat = (grid - float(zn @ coef)) / scale
                member = np.abs(tstat) < t_upper_point(eps / 2.0, n - k - 2)
                for j, y in enumerate(grid):
                    if edges and min(abs(y - e) for e in edges) < 1e-9:
                        continue
                    disagreements += region.contains(y) != bool(member[j])
                    checked["gauss"] += 1
    ok = disagreements == 0 and all(c > 100_000 for c in checked.values())
    report(f"5 (dual-route region membership, {sum(checked.values())} points)", ok)
    assert ok, (disagreements, checked)


def test_criterion_6_studentized_statistic_law():
    draws = 100_000
    passes = 0
    reps = 20
    tdist = scipy.stats.t(7)
    for rep in range(reps):
        rng = np.random.default_rng(3000 + rep)
        x = rng.normal(size=(draws, 10))
        y = 1.0 + 2.0 * x + 0.5 * rng.normal(size=(draws, 10))
        xs, ys = x[:, :9], y[:, :9]
        xn, yn = x[:, 9], y[:, 9]
        sx = xs.sum(axis=1)
        sy = ys.sum(axis=1)
        sxx = (xs * xs).sum(axis=1)
        sxy = (xs * ys).sum(axis=1)
        det = 9.0 * sxx - sx * sx
        slope = (9.0 * sxy - sx * sy) / det
        intercept = (sy - slope * sx) / 9.0
        resid = ys - intercept[:, None] - slope[:, None] * xs
        rss = (resid * resid).sum(axis=1)
        lev = 1.0 / 9.0 + (xn - sx / 9.0) ** 2 / (sxx - sx * sx / 9.0)
        tstat = (yn - intercept - slope * xn) / np.sqrt(rss / 7.0 * (1.0 + lev))
        passes += scipy.stats.kstest(tstat, tdist.cdf).pvalue > 0.01
        if rep == 0:
            # spot-check the vectorized pivot against the predictor itself
            for row in range(0, 2000, 97):
                pred = GaussPredictor()
                for j in range(9):
                    pred.observe(Observation(x[row, j : j + 1], float(y[row, j])))
                direct = gauss_tstat(pred, x[row, 9:10], float(y[row, 9]))
                assert direct == pytest.approx(tstat[row], rel=1e-9)
    ok = passes >= reps - 1
    report(f"6 (studentized pivot matches t(7), {passes}/{reps} KS passes)", ok)
    assert ok


def test_criterion_7_order_statistic_error_rate():
    reps = 100_000
    rng = np.random.default_rng(424242)
    data = rng.uniform(size=(reps, 50))
    below = (data[:, :49] < data[:, 49:]).sum(axis=1)
    errors = (below <= 1) | (below >= 48)  # outside the 2nd..48th order statistics
    freq = errors.mean()
    target = 4.0 / 50.0
    band = 3.0 * math.sqrt(target * (1.0 - target) / reps)
    ok = abs(freq - target) <= band
    for row in range(0, reps, 5000):  # cross-check the counting shortcut
        region, level = wilks_region(np.sort(data[row, :49]), 2)
        assert level == pytest.approx(target)
        assert (not region.contains(data[row, 49])) == bool(errors[row])
    report(f"7 (rank-interval error rate {freq:.4f} vs {target:.4f})", ok)
    assert ok


def test_criterion_8_benchmark_curves(table_ledgers, tmp_path):
    finals = {}
    ok = True
    for kind in ("iid", "gauss", "mva", "iid-gauss"):
        ledger = table_ledgers[kind, 0]
        medians = ledger.medians(0.05)
        finals[kind] = medians[-1]
        ok &= math.isfinite(medians[-1])
        # the running median must be recomputable from the raw lengths
        widths = ledger.widths(0.05)
        for i in range(0, 600, 7):
            ok &= medians[i] == running_median(widths[: i + 1])
        path = tmp_path / f"{kind}.csv"
        write_plot_data(path, ledger)
        curves = read_plot_data(path)
        steps, replay = curves[("median-accuracy", 0.05)]
        ok &= list(steps) == list(range(1, 601)) and list(replay) == medians
    spread = max(finals.values()) / min(finals.values())
    ok &= spread <= 2.0
    report(f"8 (final median lengths within factor {spread:.2f})", ok)
    assert ok, finals


def test_criterion_9_tail_quantile_against_quadrature():
    def density(x, df):
        return math.exp(
            math.lgamma((df + 1.0) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - (df + 1.0) / 2.0 * math.log1p(x * x / df)
        )

    def tail(x, df):
        # request far below the self-check so quad keeps refining its
        # error estimate instead of stopping at the default 1.49e-8
        value, err = scipy.integrate.quad(
            density, x, np.inf, args=(df,), limit=200, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-11
        return value

    worst = 0.0
    for delta in (0.025, 0.005, 0.0025):
        for df in (1, 7, 98, 598):
            # quantiles reach ~127 (df=1, delta=0.0025); a moderate bracket
            # end keeps the heavy-tail quadrature in its accurate range
            oracle = scipy.optimize.brentq(
                lambda x: tail(x, df) - delta, 0.0, 1e3, xtol=1e-12, rtol=1e-15
            )
            worst = max(worst, abs(t_upper_point(delta, df) - oracle))
    ok = worst < 1e-8
    report(f"9 (tail quantiles, worst abs error {worst:.2e})", ok)
    assert ok
