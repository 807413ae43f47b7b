"""Command-line front end.

Subcommands: ``generate`` (synthetic benchmark data), ``run`` (on-line
prediction, emitting a ledger), ``validate`` (seed-replicated validity
batteries), and ``report`` (plot-ready curves from a ledger).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure,
4 validity batteries failed (``validate`` only).
Progress goes to standard error; data goes to files or standard output.
"""

from __future__ import annotations

import argparse
import sys

from .dataset import (
    DataFormatError,
    SyntheticSpec,
    generate,
    read_ledger,
    read_stream,
    write_ledger,
    write_plot_data,
    write_stream,
)
from .predictors import check_epsilon
from .protocol import (
    PREDICTOR_KINDS,
    RunConfig,
    frequency_window,
    independence_test,
    make_predictor,
    run_online,
    run_trace,
    uniformity_test,
)
from .residuals import DEFAULT_RIDGE

DEFAULT_EPS = "0.05,0.01,0.005"
# Synthetic validation battery dimensions (kept small so 20 seeds run fast).
VALIDATE_K = 2
VALIDATE_N = 1000


class UsageError(Exception):
    """Bad flags or flag combinations (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _eps_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad significance list {text!r}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="cpreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark stream")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--k", type=int, default=100, help="number of explanatory variables")
    gen.add_argument("--n", type=int, default=600, help="number of observations")
    gen.add_argument("--seed", type=int, default=0, help="generation seed")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run a predictor on-line over a data file")
    run.add_argument("--data", required=True, help="input stream CSV")
    run.add_argument("--predictor", required=True, choices=PREDICTOR_KINDS)
    run.add_argument("--eps", type=_eps_list, default=_eps_list(DEFAULT_EPS))
    run.add_argument("--smoothed", type=_bool_flag, default=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mc-samples", type=int, default=1000)
    run.add_argument("--ridge", type=float, default=DEFAULT_RIDGE)
    run.add_argument("--out", required=True, help="output ledger path")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="seed-replicated validity batteries")
    source = val.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="input stream CSV")
    source.add_argument("--synthetic", action="store_true", help="use fresh synthetic data")
    val.add_argument("--predictor", required=True, choices=PREDICTOR_KINDS)
    val.add_argument("--seeds", type=int, default=20)
    val.add_argument("--eps", type=float, default=0.05)
    val.set_defaults(func=cmd_validate)

    rep = sub.add_parser("report", help="plot-ready curves from a ledger")
    rep.add_argument("--ledger", required=True, help="input ledger path")
    rep.add_argument("--out", required=True, help="output curves path")
    rep.set_defaults(func=cmd_report)
    return parser


def cmd_generate(args) -> int:
    try:
        spec = SyntheticSpec(k=args.k, n=args.n, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    stream = generate(spec)
    write_stream(args.out, stream, dim=spec.k)
    _progress(f"wrote {len(stream)} observations ({spec.k} features) to {args.out}")
    return 0


def cmd_run(args) -> int:
    try:
        config = RunConfig(
            predictor=args.predictor,
            epsilons=args.eps,
            smoothed=args.smoothed,
            seed=args.seed,
            mc_samples=args.mc_samples,
            ridge=args.ridge,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    stream = read_stream(args.data)
    _progress(f"running {args.predictor} over {len(stream)} observations")
    ledger, _ = run_online(config, stream)
    if ledger.steps == 0:
        raise DataFormatError(f"no observations in {args.data}")
    write_ledger(args.out, ledger)
    _progress(f"wrote ledger ({ledger.steps} steps) to {args.out}")
    return 0


def cmd_validate(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"need at least one seed, got {args.seeds}")
    try:
        check_epsilon(args.eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    file_stream = read_stream(args.data) if args.data else None
    if file_stream is not None and not file_stream:
        raise DataFormatError(f"no observations in {args.data}")
    counts = {"uniformity": 0, "independence": 0, "frequency": 0}
    for seed in range(args.seeds):
        if file_stream is None:
            stream = generate(SyntheticSpec(k=VALIDATE_K, n=VALIDATE_N, seed=seed))
        else:
            stream = file_stream
        config = RunConfig(
            predictor=args.predictor, epsilons=(args.eps,), smoothed=True, seed=seed
        )
        trace = run_trace(config, stream)
        eligible_from = make_predictor(config).first_informative_step(stream[0].x.size)
        uni = uniformity_test(trace)
        errs = trace.errors(args.eps)
        window, freq = frequency_window(errs, args.eps, min(eligible_from, errs.size + 1))
        indep = independence_test(window) if window.size >= 200 else None
        counts["uniformity"] += uni.passed
        counts["independence"] += indep.passed if indep is not None else True
        counts["frequency"] += freq.passed
        _progress(
            f"seed {seed}: uniformity={'ok' if uni.passed else 'FAIL'}"
            f" independence={'ok' if indep is None or indep.passed else 'FAIL'}"
            f" frequency={'ok' if freq.passed else 'FAIL'}"
        )
    required = args.seeds - 1 if args.seeds > 1 else 1
    overall = all(c >= required for c in counts.values())
    for name, c in counts.items():
        print(f"{name}: {c}/{args.seeds} pass")
    print(f"overall: {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 4


def cmd_report(args) -> int:
    table = read_ledger(args.ledger)
    write_plot_data(args.out, table)
    _progress(f"wrote {2 * len(table.levels)} curve blocks to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"cpreg: usage error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"cpreg: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # DataFormatError included
        print(f"cpreg: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
