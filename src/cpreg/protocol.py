"""On-line prediction protocol and validity diagnostics.

``run_online`` drives a predictor over a stream one observation at a time:
regions for every significance level are computed strictly before the true
response is revealed, errors and widths go into an :class:`OnlineLedger`,
and the realized p-value at the true response goes into a
:class:`PValueTrace`.  A smoothed run draws the tie-breaks of all its
steps in one call on substream 0 of its seed, the same sequence as one
draw per step.  The diagnostics below check the exact finite-sample
guarantees: smoothed p-values are IID uniform, smoothed errors are IID
Bernoulli(eps), and deterministic predictors are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ledger import OnlineLedger
from .randomness import RandomStream, check_integer
from .residuals import DEFAULT_RIDGE, check_ridge
from .stream import check_stream
from .studentt import _special
from .predictors import (
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
    OnlinePredictor,
    WilksPredictor,
    check_epsilon,
)

PREDICTOR_KINDS = ("iid", "gauss", "mva", "iid-gauss", "wilks")

# Two-sided 0.01-level critical value of a standard normal.
NORMAL_CRIT_01 = 2.5758293035489004


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run besides the data stream."""

    predictor: str
    epsilons: tuple[float, ...] = (0.05, 0.01, 0.005)
    smoothed: bool = True
    seed: int = 0
    mc_samples: int = 1000
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; choose one of {PREDICTOR_KINDS}"
            )
        eps = tuple(check_epsilon(e) for e in self.epsilons)
        if not eps:
            raise ValueError("need at least one significance level")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError(f"significance levels must be strictly decreasing, got {eps}")
        object.__setattr__(self, "mc_samples", check_integer("mc_samples", self.mc_samples, 1))
        object.__setattr__(self, "seed", check_integer("seed", self.seed))
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "ridge", check_ridge(self.ridge))


@dataclass
class PValueTrace:
    """Realized p-value and tie-breaking draw at each step."""

    smoothed: bool
    pvalues: list[float] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)

    def append(self, pvalue: float, tau: float) -> None:
        if not 0.0 <= pvalue <= 1.0:
            raise ValueError(f"p-value {pvalue} outside [0, 1]")
        self.pvalues.append(float(pvalue))
        self.taus.append(float(tau))

    def __len__(self) -> int:
        return len(self.pvalues)

    def pvalue_array(self) -> np.ndarray:
        return np.asarray(self.pvalues, dtype=float)

    def errors(self, eps: float) -> np.ndarray:
        """Raw-region error indicators: the region {y : p(y) > eps} missed
        the truth exactly when the realized p-value is <= eps."""
        return (self.pvalue_array() <= eps).astype(int)


def make_predictor(config: RunConfig) -> OnlinePredictor:
    if config.predictor == "iid":
        return IidPredictor(config.ridge)
    if config.predictor == "gauss":
        return GaussPredictor()
    if config.predictor == "mva":
        return MvaPredictor(config.ridge)
    if config.predictor == "iid-gauss":
        return IidGaussPredictor(
            config.ridge, RandomStream(config.seed, substream=1), config.mc_samples
        )
    return WilksPredictor()


def _run(config: RunConfig, stream, ledger: OnlineLedger | None) -> PValueTrace:
    """The protocol loop; regions are built and recorded only into a ledger."""
    stream = list(stream)
    check_stream(stream)
    predictor = make_predictor(config)
    if config.smoothed:
        taus = RandomStream(config.seed, substream=0).uniforms(len(stream))
    else:
        taus = [1.0] * len(stream)
    trace = PValueTrace(smoothed=config.smoothed)
    for n, (obs, tau) in enumerate(zip(stream, taus), start=1):
        try:
            ctx = predictor.begin_step(obs.x)
            if ledger is not None:
                errors, raw_errors, widths = {}, {}, {}
                raws = predictor.raw_regions(ctx, config.epsilons, tau)
                for eps, raw in zip(config.epsilons, raws):
                    reported = raw.convex_hull()
                    err = 0 if reported.contains(obs.y) else 1
                    errors[eps] = err
                    # A region of at most one piece is its own hull.
                    if reported is not raw:
                        err = 0 if raw.contains(obs.y) else 1
                    raw_errors[eps] = err
                    widths[eps] = reported.length
            pvalue = predictor.pvalue(ctx, obs.y, tau)
            predictor.observe(obs)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"{config.predictor} step {n}: {exc}") from exc
        if ledger is not None:
            ledger.record_step(errors, raw_errors, widths)
        trace.append(pvalue, tau)
    return trace


def run_online(config: RunConfig, stream) -> tuple[OnlineLedger, PValueTrace]:
    """Feed the stream through the configured predictor step by step."""
    ledger = OnlineLedger(config.epsilons)
    return ledger, _run(config, stream, ledger)


def run_trace(config: RunConfig, stream) -> PValueTrace:
    """P-value trace only — skips region assembly for the test batteries.

    Raw-region errors are recoverable from the trace because membership in
    {y : p(y) > eps} is by definition the event p(truth) > eps.
    """
    return _run(config, stream, None)


@dataclass(frozen=True)
class UniformityReport:
    statistic: float
    pvalue: float
    level: float
    passed: bool


def uniformity_test(trace: PValueTrace, level: float = 0.01) -> UniformityReport:
    """One-sample Kolmogorov-Smirnov test of the p-value trace against U[0,1]."""
    if not trace.smoothed:
        raise ValueError(
            "uniformity requires a smoothed run: deterministic p-values are only super-uniform"
        )
    if len(trace) < 100:
        raise ValueError(f"need at least 100 steps for the uniformity test, got {len(trace)}")
    from scipy import stats  # deferred: only the batteries need scipy.stats

    # The two-sided exact test of stats.kstest(pvalues, "uniform"), without
    # its per-call dispatch: the uniform cdf of a p-value is the p-value.
    x = np.sort(trace.pvalue_array())
    n = x.size
    d_plus = (np.arange(1.0, n + 1) / n - x).max()
    d_minus = (x - np.arange(0.0, n) / n).max()
    statistic = float(max(d_plus, d_minus))
    pvalue = min(max(float(stats.kstwo.sf(statistic, n)), 0.0), 1.0)
    return UniformityReport(
        statistic=statistic, pvalue=pvalue, level=level, passed=pvalue > level
    )


@dataclass(frozen=True)
class IndependenceReport:
    lag1: float
    lag1_critical: float
    runs_z: float
    runs_critical: float
    passed: bool
    degenerate: bool = False


def independence_test(values) -> IndependenceReport:
    """Lag-1 autocorrelation plus a runs test on a binary or continuous sequence.

    Both tests run at the 1% level.
    """
    z = np.asarray(values, dtype=float)
    if z.ndim != 1 or z.size < 200:
        raise ValueError(f"need a 1-D sequence of at least 200 values, got shape {z.shape}")
    n = z.size
    crit = NORMAL_CRIT_01 / np.sqrt(n)
    centered = z - z.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return IndependenceReport(0.0, crit, 0.0, NORMAL_CRIT_01, passed=True, degenerate=True)
    lag1 = float(centered[:-1] @ centered[1:]) / denom
    binary = z > np.median(z) if np.unique(z).size > 2 else z > z.min()
    n_hi = int(binary.sum())
    n_lo = n - n_hi
    if n_hi == 0 or n_lo == 0:
        return IndependenceReport(lag1, crit, 0.0, NORMAL_CRIT_01, passed=True, degenerate=True)
    runs = 1 + int(np.sum(binary[1:] != binary[:-1]))
    mean_runs = 1.0 + 2.0 * n_hi * n_lo / n
    var_runs = 2.0 * n_hi * n_lo * (2.0 * n_hi * n_lo - n) / (n * n * (n - 1.0))
    runs_z = (runs - mean_runs) / np.sqrt(var_runs) if var_runs > 0.0 else 0.0
    passed = abs(lag1) < crit and abs(runs_z) < NORMAL_CRIT_01
    return IndependenceReport(lag1, crit, float(runs_z), NORMAL_CRIT_01, passed=passed)


@dataclass(frozen=True)
class FrequencyReport:
    frequency: float
    errors: int
    trials: int
    lower: int
    upper: int
    passed: bool


def binomial_band(trials: int, eps: float, level: float = 0.01) -> tuple[int, int]:
    """Central (1 - level) band of error counts under Binomial(trials, eps)."""
    if trials == 0:
        return 0, 0  # bdtrik is NaN there
    special, probs = _special(), (level / 2.0, 1.0 - level / 2.0)
    count = np.ceil(special.bdtrik(probs, trials, eps))  # binom.ppf's classic recipe
    below = np.maximum(count - 1.0, 0.0)
    lower, upper = np.where(special.bdtr(below, trials, eps) >= probs, below, count).tolist()
    return int(lower), int(upper)


def frequency_window(
    errors, eps: float, eligible_from: int = 1, level: float = 0.01
) -> tuple[np.ndarray, FrequencyReport]:
    """The error indicators from step ``eligible_from`` on, and their count
    against the exact binomial band.

    The window runs to the last step, and is empty when ``eligible_from``
    is one past the last.
    """
    errors = np.asarray(errors)
    if not 1 <= eligible_from <= errors.size + 1:
        raise ValueError(f"eligible_from {eligible_from} outside 1..{errors.size + 1}")
    window = errors[eligible_from - 1 :]
    count = int(window.sum())
    trials = window.size
    lower, upper = binomial_band(trials, eps, level)
    return window, FrequencyReport(
        frequency=count / trials if trials else 0.0,
        errors=count,
        trials=trials,
        lower=lower,
        upper=upper,
        passed=lower <= count <= upper,
    )


def error_frequency_check(
    ledger: OnlineLedger,
    eps: float,
    eligible_from: int = 1,
    use_raw: bool = False,
    level: float = 0.01,
) -> FrequencyReport:
    """Compare the realized error frequency with the exact binomial band.

    ``eligible_from`` restricts the count to steps where an error was
    actually possible (e.g. the first informative step of a model-based
    predictor); earlier steps predict the whole line and cannot err.  The
    window runs from that step to the last recorded one, and is empty
    when ``eligible_from`` is one past the last.
    """
    errs = ledger.raw_errors(eps) if use_raw else ledger.errors(eps)
    return frequency_window(errs, eps, eligible_from, level)[1]
