"""Command-line interface: exit codes and file outputs."""

import math

import numpy as np
import pytest

from cpreg import Observation, read_ledger, read_plot_data, read_stream, write_stream
from cpreg.cli import main


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


def test_validate_synthetic_passes(capsys):
    code = main(["validate", "--synthetic", "--predictor", "wilks", "--seeds", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "uniformity: 2/2 pass" in lines
    assert "independence: 2/2 pass" in lines
    assert "frequency: 2/2 pass" in lines
    assert lines[-1] == "overall: PASS"


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
