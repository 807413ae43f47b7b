"""Command-line interface: exit codes and file outputs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpreg
from cpreg import Observation, binomial_band, read_ledger, read_plot_data, read_stream, write_stream
from cpreg import protocol
from cpreg.cli import main

SEED_VERDICTS = [f"seed {s}: uniformity=ok independence=ok frequency=ok" for s in range(2)]
SUMMARY = ["uniformity: 2/2 pass", "independence: 2/2 pass", "frequency: 2/2 pass", "overall: PASS"]

# Exercises the CLI in a fresh interpreter, where sys.modules shows what
# each subcommand really imported.
IMPORT_BUDGET_SCRIPT = """
import sys
import cpreg
from cpreg.cli import main
print("import", "scipy.stats" in sys.modules)
main(["generate", "--out", sys.argv[1], "--k", "3", "--n", "230", "--seed", "5"])
main(["run", "--data", sys.argv[1], "--predictor", "gauss", "--out", sys.argv[2]])
print("run", "scipy.stats" in sys.modules)
code = main(["validate", "--data", sys.argv[1], "--predictor", "gauss", "--seeds", "2"])
print("validate", "scipy.stats" in sys.modules, code)
"""


def test_generate_writes_the_requested_stream(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--out", str(out), "--k", "3", "--n", "5", "--seed", "1"]) == 0
    stream = read_stream(out)
    assert len(stream) == 5
    assert stream[0].x.size == 3


def test_generate_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert main(["generate", "--out", str(path), "--k", "2", "--n", "9", "--seed", seed]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_empty_stream_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["generate", "--out", str(out), "--k", "2", "--n", "0"]) == 0
    assert out.read_text() == "x1,x2,y\n"


def test_run_wide_design(tmp_path):
    data = tmp_path / "data.csv"
    ledger_path = tmp_path / "ledger.csv"
    assert main(["generate", "--out", str(data), "--k", "100", "--n", "120"]) == 0
    code = main(
        [
            "run",
            "--data",
            str(data),
            "--predictor",
            "gauss",
            "--eps",
            "0.05",
            "--out",
            str(ledger_path),
        ]
    )
    assert code == 0
    table = read_ledger(ledger_path)
    widths = table.widths(0.05)
    # 100 features leave no degrees of freedom before step 103
    assert all(math.isinf(w) for w in widths[:102])
    assert all(math.isfinite(w) for w in widths[102:])
    assert table.errors(0.05)[:102] == [0] * 102


def test_run_deterministic_variant(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "ledger.csv"
    assert main(["generate", "--out", str(data), "--k", "1", "--n", "40"]) == 0
    args = ["run", "--data", str(data), "--predictor", "iid", "--out", str(out)]
    assert main(args + ["--smoothed", "false"]) == 0
    assert read_ledger(out).steps == 40


def test_usage_errors_exit_1(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["run", "--data", "d.csv", "--predictor", "nope", "--out", str(out)]) == 1
    assert main(["generate", "--out", str(out), "--n", "-3"]) == 1
    assert main(["validate", "--synthetic", "--predictor", "wilks", "--seeds", "0"]) == 1
    assert main(["validate", "--synthetic", "--predictor", "wilks", "--eps", "2.0"]) == 1
    data = tmp_path / "d.csv"
    write_stream(data, [Observation(np.array([0.0]), 1.0)])
    assert (
        main(
            [
                "run",
                "--data",
                str(data),
                "--predictor",
                "iid",
                "--eps",
                "0.05,abc",
                "--out",
                str(out),
            ]
        )
        == 1
    )


def test_data_errors_exit_2(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", "--data", str(tmp_path / "no.csv"), "--predictor", "iid", "--out", str(out)]) == 2
    assert main(["report", "--ledger", str(tmp_path / "no.csv"), "--out", str(out)]) == 2
    empty = tmp_path / "empty.csv"
    assert main(["generate", "--out", str(empty), "--k", "2", "--n", "0"]) == 0
    assert main(["run", "--data", str(empty), "--predictor", "iid", "--out", str(out)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,oops\n")
    assert main(["run", "--data", str(bad), "--predictor", "iid", "--out", str(out)]) == 2


def test_numerical_failures_exit_3(tmp_path):
    data = tmp_path / "collinear.csv"
    ys = (0.1, 1.2, -0.4, 0.8, 0.3)
    write_stream(data, [Observation(np.array([1.0]), y) for y in ys])
    out = tmp_path / "out.csv"
    code = main(["run", "--data", str(data), "--predictor", "gauss", "--eps", "0.5", "--out", str(out)])
    assert code == 3


@pytest.mark.parametrize("kind", ["iid", "mva", "iid-gauss"])
def test_singular_ridge_system_exits_3(tmp_path, capsys, kind):
    # a constant feature duplicates the dummy column and the ridge vanishes
    # next to it, so the ridge Cholesky factor breaks down
    data = tmp_path / "constant.csv"
    write_stream(data, [Observation(np.array([1.0]), y) for y in (0.1, 1.2, -0.4, 0.8)])
    out = tmp_path / "out.csv"
    argv = ["run", "--data", str(data), "--predictor", kind, "--eps", "0.5", "--ridge", "1e-300"]
    assert main(argv + ["--out", str(out)]) == 3
    assert "not positive definite: its leading minor of order 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("kind", ["iid", "gauss", "mva", "iid-gauss"])
def test_overflowing_features_exit_3(tmp_path, kind):
    data = tmp_path / "huge.csv"
    write_stream(data, [Observation(np.array([(-1.0) ** i * 1e200 * (i + 1)]), i) for i in range(8)])
    out = tmp_path / "out.csv"
    code = main(["run", "--data", str(data), "--predictor", kind, "--eps", "0.5", "--out", str(out)])
    assert code == 3


def test_validate_synthetic_passes(capsys):
    code = main(["validate", "--synthetic", "--predictor", "wilks", "--seeds", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "uniformity: 2/2 pass" in lines
    assert "independence: 2/2 pass" in lines
    assert "frequency: 2/2 pass" in lines
    assert lines[-1] == "overall: PASS"


@pytest.mark.parametrize("kind, skipped", [("gauss", 5), ("mva", 2), ("iid", 0)])
def test_validate_skips_steps_before_the_first_informative_one(tmp_path, capsys, monkeypatch, kind, skipped):
    # K=3: gauss is informative from step K+3 = 6, mva from step 3, iid from step 1
    data = tmp_path / "v.csv"
    assert main(["generate", "--out", str(data), "--k", "3", "--n", "230", "--seed", "5"]) == 0
    capsys.readouterr()
    trials = []

    def band(n, eps, level=0.01):
        trials.append(n)
        return binomial_band(n, eps, level)

    monkeypatch.setattr(protocol, "binomial_band", band)  # called by the shared frequency window
    assert main(["validate", "--data", str(data), "--predictor", kind, "--seeds", "2"]) == 0
    assert trials == [230 - skipped] * 2
    out = capsys.readouterr()
    assert out.err.splitlines() == SEED_VERDICTS
    assert out.out.splitlines() == SUMMARY


def test_only_validate_loads_scipy_stats(tmp_path):
    src = str(Path(cpreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT, str(tmp_path / "d.csv"), str(tmp_path / "l.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert out[:2] == ["import False", "run False"]
    assert out[2:] == SUMMARY + ["validate True 0"]
    assert [line for line in done.stderr.splitlines() if line.startswith("seed")] == SEED_VERDICTS


def test_validate_failure_exits_4(tmp_path, capsys):
    # a steadily rising response is never exchangeable: every new y is the
    # largest so far, so the p-values pile up at the bottom
    data = tmp_path / "trend.csv"
    write_stream(data, [Observation(np.array([0.0]), float(i)) for i in range(150)])
    code = main(["validate", "--data", str(data), "--predictor", "wilks", "--seeds", "1"])
    assert code == 4
    lines = capsys.readouterr().out.splitlines()
    assert "uniformity: 0/1 pass" in lines
    assert lines[-1] == "overall: FAIL"


def test_report_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    ledger_path = tmp_path / "ledger.csv"
    curves_path = tmp_path / "curves.csv"
    assert main(["generate", "--out", str(data), "--k", "1", "--n", "30"]) == 0
    assert (
        main(
            [
                "run",
                "--data",
                str(data),
                "--predictor",
                "gauss",
                "--eps",
                "0.2,0.1",
                "--out",
                str(ledger_path),
            ]
        )
        == 0
    )
    assert main(["report", "--ledger", str(ledger_path), "--out", str(curves_path)]) == 0
    table = read_ledger(ledger_path)
    curves = read_plot_data(curves_path)
    for eps in (0.2, 0.1):
        steps, medians = curves[("median-accuracy", eps)]
        assert list(medians) == table.medians(eps)
        first_finite = next(
            (i + 1 for i, m in enumerate(table.medians(eps)) if math.isfinite(m)), None
        )
        plotted = next((int(s) for s, m in zip(steps, medians) if math.isfinite(m)), None)
        assert first_finite == plotted
        _, cum = curves[("cumulative-errors", eps)]
        assert list(cum) == table.cumulative_errors(eps)
