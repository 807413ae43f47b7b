"""On-line protocol: run loops, p-value traces, and the validity batteries."""

import numpy as np
import pytest

from test_predictor_iid import tie_heavy_stream

from cpreg import (
    IidGaussPredictor,
    NumericalError,
    Observation,
    OnlineLedger,
    PValueTrace,
    PREDICTOR_KINDS,
    RandomStream,
    RunConfig,
    SyntheticSpec,
    binomial_band,
    error_frequency_check,
    generate,
    independence_test,
    make_predictor,
    run_online,
    run_trace,
    uniformity_test,
)


def small_stream(n=40, k=1, seed=0):
    return generate(SyntheticSpec(k=k, n=n, alpha=1.0, lead_magnitude=2.0, seed=seed))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(predictor="nope")
    with pytest.raises(ValueError):
        RunConfig(predictor="iid", epsilons=())
    with pytest.raises(ValueError):
        RunConfig(predictor="iid", epsilons=(0.05, 1.5))
    with pytest.raises(ValueError):
        RunConfig(predictor="iid", epsilons=(0.01, 0.05))  # must decrease
    with pytest.raises(ValueError):
        RunConfig(predictor="iid", epsilons=(0.05, 0.05))
    with pytest.raises(ValueError):
        RunConfig(predictor="iid-gauss", mc_samples=0)
    assert RunConfig(predictor="wilks", epsilons=[0.1, 0.05]).epsilons == (0.1, 0.05)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: RunConfig(predictor="iid", seed=v), "seed"),
        (lambda v: RunConfig(predictor="iid-gauss", mc_samples=v), "mc_samples"),
        (lambda v: IidGaussPredictor(mc_samples=v), "mc_samples"),
        (lambda v: SyntheticSpec(seed=v), "seed"),
        (lambda v: RandomStream(v), "seed"),
    ],
    ids=["run-seed", "run-mc-samples", "predictor-mc-samples", "spec-seed", "stream-seed"],
)
def test_integer_settings_are_not_truncated(make, field):
    # a fractional seed or draw count used to run as its integer part
    for value in (1.5, 2.5, 1.9, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            make(value)
    assert getattr(make(np.int64(3)), field) == 3  # what operator.index accepts stays valid


def test_empty_stream():
    ledger, trace = run_online(RunConfig(predictor="iid"), [])
    assert len(trace) == 0
    assert ledger.errors(0.05) == []


def test_reruns_are_bit_identical_and_trace_matches_full_run():
    # K = 2, n = 120 gives iid-gauss 116 Monte-Carlo steps
    stream = generate(SyntheticSpec(k=2, n=120, seed=7))
    for kind in PREDICTOR_KINDS:
        for smoothed in (False, True):
            config = RunConfig(
                predictor=kind, epsilons=(0.2, 0.1), smoothed=smoothed, seed=3, mc_samples=200
            )
            where = (kind, smoothed)
            ledger_a, trace_a = run_online(config, stream)
            ledger_b, trace_b = run_online(config, stream)
            assert trace_a.pvalues == trace_b.pvalues, where
            assert trace_a.taus == trace_b.taus, where
            assert np.array_equal(ledger_a.errors(0.1), ledger_b.errors(0.1)), where
            assert ledger_a.widths(0.2) == ledger_b.widths(0.2), where
            # the trace-only fast path consumes randomness identically
            trace_c = run_trace(config, stream)
            assert trace_c.pvalues == trace_a.pvalues, where
            assert trace_c.taus == trace_a.taus, where


def test_smoothed_taus_are_the_one_at_a_time_draws():
    # a run draws its tie-breaks in one call; they are the per-step draws
    stream = small_stream(n=50, k=2, seed=1)
    for seed in (0, 11):
        for kind in ("wilks", "gauss"):
            draws = RandomStream(seed, 0)
            expected = [draws.uniform() for _ in stream]
            config = RunConfig(predictor=kind, seed=seed)
            assert run_trace(config, stream).taus == expected, (kind, seed)
            assert run_online(config, stream)[1].taus == expected, (kind, seed)


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_raw_errors_are_the_trace_errors(kind):
    # membership in {y : p(y) > eps} is the event p(truth) > eps, also where
    # a one-piece region stands for its own hull and is tested once
    config = RunConfig(predictor=kind, smoothed=False)
    ledger, trace = run_online(config, generate(SyntheticSpec(k=20, n=120, seed=0)))
    for eps in config.epsilons:
        assert ledger.raw_errors(eps) == list(trace.errors(eps)), eps


def test_raw_errors_of_split_regions_are_the_trace_errors():
    # iid regions of several pieces are tested for membership twice: here
    # the hull of a split region covers a truth the region itself misses
    split = generate(SyntheticSpec(k=1, n=60, seed=5))
    for stream, splits in ((tie_heavy_stream(), False), (split, True)):
        for smoothed in (False, True):
            config = RunConfig(predictor="iid", epsilons=(0.3, 0.2, 0.1), smoothed=smoothed, seed=4)
            ledger, trace = run_online(config, stream)
            for eps in config.epsilons:
                assert ledger.raw_errors(eps) == list(trace.errors(eps)), (eps, smoothed)
            differs = [ledger.raw_errors(eps) != ledger.errors(eps) for eps in config.epsilons]
            assert any(differs) == splits, smoothed


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_run_online_asks_for_every_level_in_one_call(kind, monkeypatch):
    # one raw_regions call per step with all the levels; none without a ledger
    config = RunConfig(predictor=kind, epsilons=(0.3, 0.1, 0.05), mc_samples=100)
    cls = type(make_predictor(config))
    regions_of = cls.raw_regions
    calls = []

    def spy(predictor, ctx, levels, tau):
        calls.append(tuple(levels))
        return regions_of(predictor, ctx, levels, tau)

    monkeypatch.setattr(cls, "raw_regions", spy)
    stream = small_stream(n=30, k=2, seed=5)
    run_online(config, stream)
    assert calls == [config.epsilons] * len(stream)
    calls.clear()
    contexts, begin_step = [], cls.begin_step

    def spy_begin(predictor, x_new):
        contexts.append(begin_step(predictor, x_new))
        return contexts[-1]

    monkeypatch.setattr(cls, "begin_step", spy_begin)
    run_trace(config, stream)
    assert calls == []
    if kind == "iid-gauss":
        # and without a region request no Monte-Carlo step gathers its lines per draw
        monte_carlo = [ctx for ctx in contexts if not ctx.exact]
        assert len(monte_carlo) == len(stream) - 4
        for ctx in monte_carlo:
            assert not {"slot_base", "slot_slope"} & vars(ctx).keys(), ctx.n


@pytest.mark.parametrize(
    "kind, past",
    [("iid", 10), ("gauss", 10), ("mva", 10), ("wilks", 10), ("iid-gauss", 2), ("iid-gauss", 10)],
    ids=["iid", "gauss", "mva", "wilks", "iid-gauss-exact", "iid-gauss-mc"],
)
def test_level_and_tie_parameter_validation(kind, past):
    # OnlinePredictor checks every level and tau before the predictor sees them
    pred = make_predictor(RunConfig(predictor=kind, mc_samples=100))
    stream = small_stream(n=past + 1, k=1)
    for obs in stream[:past]:
        pred.observe(obs)
    ctx = pred.begin_step(stream[past].x)
    if kind == "iid-gauss":
        assert ctx.exact == (past == 2)
    for eps in (0.0, 1.0, -0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="significance level"):
            pred.raw_region(ctx, eps, 1.0)
        with pytest.raises(ValueError, match="significance level"):
            pred.raw_regions(ctx, (0.05, eps), 1.0)
    for tau in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="smoothing draw"):
            pred.raw_regions(ctx, (0.05,), tau)
        with pytest.raises(ValueError, match="smoothing draw"):
            pred.pvalue(ctx, 0.0, tau)
    assert len(pred.raw_regions(ctx, (0.3, 0.05), 0.5)) == 2
    assert 0.0 <= pred.pvalue(ctx, stream[past].y, 0.5) <= 1.0


def test_uninformative_steps_cannot_err():
    stream = small_stream(n=8, k=1)
    ledger, trace = run_online(RunConfig(predictor="gauss", epsilons=(0.5,), seed=1), stream)
    # one feature: the first K + 2 = 3 steps predict the whole line
    assert list(ledger.errors(0.5)[:3]) == [0, 0, 0]
    assert all(np.isinf(w) for w in ledger.widths(0.5)[:3])
    # smoothed pre-threshold p-values are the tie-breaking draws themselves
    assert trace.pvalues[:3] == trace.taus[:3]


def test_trace_errors_identity():
    trace = PValueTrace(smoothed=True)
    for p in (0.2, 0.05, 0.031, 1.0, 0.0):
        trace.append(p, 0.5)
    assert list(trace.errors(0.05)) == [0, 1, 1, 0, 1]
    with pytest.raises(ValueError):
        trace.append(1.5, 0.5)
    with pytest.raises(ValueError):
        trace.append(-0.1, 0.5)


def test_deterministic_run_is_conservative():
    stream = small_stream(n=60, seed=4)
    smoothed = run_trace(RunConfig(predictor="iid", epsilons=(0.1,), seed=9), stream)
    plain = run_trace(RunConfig(predictor="iid", epsilons=(0.1,), smoothed=False), stream)
    assert all(d >= s for d, s in zip(plain.pvalues, smoothed.pvalues))
    assert plain.taus == [1.0] * len(stream)


def test_errors_nest_across_levels():
    stream = small_stream(n=80, seed=7)
    ledger, _ = run_online(RunConfig(predictor="iid", epsilons=(0.2, 0.1, 0.02), seed=2), stream)
    e_loose, e_mid, e_tight = (np.asarray(ledger.errors(e)) for e in (0.2, 0.1, 0.02))
    assert np.all(e_tight <= e_mid)
    assert np.all(e_mid <= e_loose)


def test_failures_carry_their_position():
    stream = small_stream(n=5)
    broken = stream[:2] + [Observation(np.array([1.0, 2.0]), 0.0)]
    # dimension drift is caught while checking the stream, before any step
    with pytest.raises(ValueError, match="observation 3"):
        run_online(RunConfig(predictor="gauss"), broken)
    # numerical trouble inside the loop reports the step it happened at
    collinear = [Observation(np.array([1.0]), float(y)) for y in (0.1, 1.2, -0.4, 0.8)]
    with pytest.raises(ArithmeticError, match="step 4"):
        run_online(RunConfig(predictor="gauss", epsilons=(0.5,)), collinear)


@pytest.mark.parametrize("run", [run_online, run_trace])
def test_failures_name_the_predictor(run):
    collinear = [Observation(np.array([1.0]), float(y)) for y in (0.1, 1.2, -0.4, 0.8)]
    with pytest.raises(ArithmeticError, match=r"^gauss step 4: "):
        run(RunConfig(predictor="gauss", epsilons=(0.5,)), collinear)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("kind", ["iid", "iid-gauss", "gauss", "mva"])
def test_overflowing_ridge_gram_fails_at_step_1(kind):
    def stream(scale):
        return [Observation(np.array([(-1.0) ** i * scale * (i + 1)]), float(i)) for i in range(8)]

    # a lone point gets p = tau while U'U (the raw design moments) is still finite ...
    _, trace = run_online(RunConfig(predictor=kind, epsilons=(0.5,)), stream(1e150))
    assert trace.pvalues[0] == trace.taus[0]
    # ... and once U'U overflows the step fails instead of reporting p = 0
    with pytest.raises(NumericalError, match=rf"^{kind} step 1: .*non-finite"):
        run_online(RunConfig(predictor=kind, epsilons=(0.5,)), stream(1e200))


def huge_responses(scale):
    return [Observation(o.x, o.y * scale) for o in generate(SyntheticSpec(k=2, n=60, seed=1))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_iid_folds_no_moments_to_overflow(scale):
    # iid reads only its rows, so responses whose square overflows change
    # nothing: its p-values are ranks of residuals linear in y
    config = RunConfig(predictor="iid")
    plain = run_trace(config, huge_responses(1.0))
    assert run_trace(config, huge_responses(scale)).pvalues == plain.pvalues
    ledger, _ = run_online(config, huge_responses(scale))
    assert ledger.steps == 60


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("kind", ["gauss", "mva", "iid-gauss"])
@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_the_moment_fold_refuses_overflowing_responses(kind, scale):
    with pytest.raises(NumericalError, match=rf"^{kind} step 1: design moments have non-finite"):
        run_trace(RunConfig(predictor=kind), huge_responses(scale))


def test_uniformity_battery():
    rng = np.random.default_rng(0)
    grid = (np.arange(1, 501) - 0.5) / 500.0
    rng.shuffle(grid)
    trace = PValueTrace(smoothed=True, pvalues=list(grid), taus=[0.5] * 500)
    report = uniformity_test(trace)
    assert report.passed and report.pvalue > 0.9
    flat = PValueTrace(smoothed=True, pvalues=[0.5] * 500, taus=[0.5] * 500)
    assert not uniformity_test(flat).passed
    with pytest.raises(ValueError):
        uniformity_test(PValueTrace(smoothed=False, pvalues=list(grid), taus=[1.0] * 500))
    with pytest.raises(ValueError):
        uniformity_test(PValueTrace(smoothed=True, pvalues=[0.5] * 99, taus=[0.5] * 99))


def test_uniformity_battery_is_bitwise_scipy_kstest():
    from scipy import stats

    rng = np.random.default_rng(3)
    samples = [rng.uniform(size=n) for n in (100, 257, 1000)]
    samples += [
        np.round(rng.uniform(size=300), 2),  # ties
        rng.uniform(size=400) ** 3,  # far from uniform
        np.zeros(100),
        np.ones(100),
        np.repeat([0.0, 1.0], 60),
    ]
    stream = generate(SyntheticSpec(k=2, n=210, seed=4))
    for kind in ("iid", "wilks", "gauss"):
        samples.append(run_trace(RunConfig(predictor=kind, seed=4), stream).pvalue_array())
    for sample in samples:
        trace = PValueTrace(smoothed=True, pvalues=sample.tolist(), taus=[0.5] * sample.size)
        report = uniformity_test(trace)
        oracle = stats.kstest(sample, "uniform")
        assert report.statistic == oracle.statistic
        assert report.pvalue == oracle.pvalue
        assert report.passed == (oracle.pvalue > report.level)


def test_binomial_band_is_the_two_quantiles():
    from scipy import stats

    trials = np.array([*range(301), 500, 1000, 2000, 5000])
    for eps in (0.5, 0.3, 0.2, 0.1, 0.05, 0.01, 0.005):
        for level in (0.05, 0.01, 1e-6):
            lower = stats.binom.ppf(level / 2.0, trials, eps).astype(int).tolist()
            upper = stats.binom.ppf(1.0 - level / 2.0, trials, eps).astype(int).tolist()
            band = [binomial_band(n, eps, level) for n in trials.tolist()]
            assert band == list(zip(lower, upper)), (eps, level)


def test_independence_battery():
    rng = np.random.default_rng(1)
    report = independence_test(rng.uniform(size=500))
    assert report.passed and not report.degenerate
    alternating = np.tile([0.0, 1.0], 150)
    report = independence_test(alternating)
    assert not report.passed
    assert abs(report.runs_z) > report.runs_critical
    report = independence_test(np.zeros(300))
    assert report.passed and report.degenerate
    with pytest.raises(ValueError):
        independence_test(np.zeros(199))


def make_ledger(errors, eps=0.05):
    ledger = OnlineLedger((eps,))
    for e in errors:
        ledger.record_step({eps: e}, {eps: e}, {eps: 1.0})
    return ledger


def test_error_frequency_battery():
    report = error_frequency_check(make_ledger([0, 0, 0, 0, 0]), 0.05)
    assert report.passed and report.errors == 0 and report.trials == 5
    report = error_frequency_check(make_ledger([1] * 400), 0.05)
    assert not report.passed
    assert report.lower >= 6 and report.upper <= 36  # exact band for 400 trials
    # eligibility window drops steps where no error was possible
    report = error_frequency_check(make_ledger([1, 1, 0, 0, 0]), 0.05, eligible_from=3)
    assert report.trials == 3 and report.errors == 0
    # the window may be empty, but may not start before step 1 or after n + 1
    report = error_frequency_check(make_ledger([1, 1]), 0.05, eligible_from=3)
    assert report.trials == 0 and report.passed
    mostly_errors = make_ledger([1] * 10 + [0])
    for eligible_from in (0, -3, 13):
        with pytest.raises(ValueError):
            error_frequency_check(mostly_errors, 0.05, eligible_from=eligible_from)
