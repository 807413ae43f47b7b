"""Synthetic benchmark generator and the CSV/plot file formats."""

import numpy as np
import pytest

from cpreg import (
    DataFormatError,
    Observation,
    OnlineLedger,
    SyntheticSpec,
    beta_vector,
    generate,
    read_ledger,
    read_plot_data,
    read_stream,
    write_ledger,
    write_plot_data,
    write_stream,
)


def test_coefficient_layout():
    beta = beta_vector(SyntheticSpec(k=100))
    assert beta[0] == 10.0 and beta[1] == -10.0
    assert beta[8] == 10.0 and beta[9] == -10.0
    assert beta[10] == 1.0 and beta[11] == -1.0
    assert beta[98] == 1.0 and beta[99] == -1.0
    # fewer variables than the leading block: all large
    assert list(beta_vector(SyntheticSpec(k=3))) == [10.0, -10.0, 10.0]


def test_response_moments():
    # theoretical variance: 10 * 10^2 + 90 * 1^2 + 1 around a mean of 100
    stream = generate(SyntheticSpec(n=20_000, seed=3))
    ys = np.array([obs.y for obs in stream])
    assert abs(ys.mean() - 100.0) < 0.7
    assert abs(ys.var(ddof=1) - 1091.0) < 35.0


def test_responses_sit_on_the_plane_when_noise_vanishes():
    spec = SyntheticSpec(k=5, n=50, noise_std=1e-9, seed=8)
    beta = beta_vector(spec)
    for obs in generate(spec):
        assert abs(obs.y - 100.0 - obs.x @ beta) < 1e-6


def test_features_are_drawn_before_the_noise():
    # changing the noise level must not move the explanatory variables
    a = generate(SyntheticSpec(k=4, n=20, seed=5, noise_std=1.0))
    b = generate(SyntheticSpec(k=4, n=20, seed=5, noise_std=2.0))
    for oa, ob in zip(a, b):
        assert np.array_equal(oa.x, ob.x)
        assert oa.y != ob.y
    assert [o.y for o in generate(SyntheticSpec(k=4, n=20, seed=5, noise_std=1.0))] == [
        o.y for o in a
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(k=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=-1)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_std=0.0)
    assert generate(SyntheticSpec(n=0)) == []


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lead_size", -1, "lead_size must be non-negative, got -1"),
        ("lead_size", 2.5, "lead_size must be an integer, got 2.5"),
        ("alpha", float("nan"), "alpha must be finite, got nan"),
        ("lead_magnitude", float("inf"), "lead_magnitude must be finite, got inf"),
        ("tail_magnitude", -float("inf"), "tail_magnitude must be finite, got -inf"),
        ("noise_std", float("inf"), "noise_std must be finite, got inf"),
        ("noise_std", float("nan"), "noise_std must be finite, got nan"),
    ],
)
def test_spec_refuses_each_bad_field_by_name(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SyntheticSpec(k=3, n=4, **{field: value})


def test_spec_keeps_an_integer_lead_size():
    spec = SyntheticSpec(k=3, n=4, lead_size=np.int64(0))
    assert type(spec.lead_size) is int
    assert list(beta_vector(spec)) == [1.0, -1.0, 1.0]


def test_stream_file_round_trip(tmp_path):
    stream = generate(SyntheticSpec(k=3, n=7, seed=11))
    path = tmp_path / "stream.csv"
    write_stream(path, stream)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,y"
    back = read_stream(path)
    assert len(back) == 7
    for a, b in zip(stream, back):
        assert np.array_equal(a.x, b.x)  # 17 significant digits: exact
        assert a.y == b.y


def test_full_size_stream_round_trip(tmp_path):
    stream = generate(SyntheticSpec(seed=0))
    path = tmp_path / "big.csv"
    write_stream(path, stream)
    back = read_stream(path)
    assert len(back) == 600
    assert all(np.array_equal(a.x, b.x) and a.y == b.y for a, b in zip(stream, back))


def test_empty_stream_file_keeps_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_stream(path, [], dim=2)
    assert path.read_text() == "x1,x2,y\n"
    assert read_stream(path) == []


def test_a_ragged_stream_is_not_written(tmp_path):
    # its second row would sit under an x1,x2,y header with two fields
    path = tmp_path / "ragged.csv"
    ragged = [Observation(np.array([1.0, 2.0]), 0.0), Observation(np.array([3.0]), 1.0)]
    with pytest.raises(ValueError, match="observation 2 has 1 features, expected 2"):
        write_stream(path, ragged)
    assert not path.exists()


def test_a_dim_that_contradicts_the_rows_is_refused(tmp_path):
    path = tmp_path / "stream.csv"
    stream = generate(SyntheticSpec(k=2, n=3, seed=1))
    with pytest.raises(ValueError, match="dim=5 contradicts the stream's 2 features"):
        write_stream(path, stream, dim=5)
    assert not path.exists()
    write_stream(path, stream, dim=2)  # a dim that agrees is fine
    assert read_stream(path) == stream


def test_stream_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="header"):
        read_stream(path)
    path.write_text("x1,x3,y\n0,0,0\n")
    with pytest.raises(DataFormatError, match="header"):
        read_stream(path)
    path.write_text("x1,y\n1.0\n")
    with pytest.raises(DataFormatError, match="row 1"):
        read_stream(path)
    path.write_text("x1,y\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(DataFormatError, match="row 2"):
        read_stream(path)
    path.write_text("x1,y\n1.0,inf\n")
    with pytest.raises(DataFormatError, match="row 1"):
        read_stream(path)


def make_ledger():
    ledger = OnlineLedger((0.1, 0.01))
    widths = [np.inf, np.inf, 3.0, 2.5, 4.0]
    errors = [0, 0, 1, 0, 1]
    for w, e in zip(widths, errors):
        ledger.record_step({0.1: e, 0.01: 0}, {0.1: e, 0.01: 0}, {0.1: w, 0.01: np.inf})
    return ledger


def test_ledger_file_round_trip(tmp_path):
    ledger = make_ledger()
    path = tmp_path / "ledger.csv"
    write_ledger(path, ledger)
    table = read_ledger(path)
    assert table.levels == (0.1, 0.01)
    assert table.steps == 5
    for eps in (0.1, 0.01):
        assert table.errors(eps) == ledger.errors(eps)
        assert table.cumulative_errors(eps) == ledger.cumulative_errors(eps)
        assert table.widths(eps) == ledger.widths(eps)  # inf survives the trip
        assert table.medians(eps) == ledger.medians(eps)
        assert table.first_bounded_step(eps) == ledger.first_bounded_step(eps)
        assert table.first_finite_median_step(eps) == ledger.first_finite_median_step(eps)
    # a parsed table can be written back verbatim
    path2 = tmp_path / "ledger2.csv"
    write_ledger(path2, table)
    assert path.read_text() == path2.read_text()


def test_single_step_ledger_shape(tmp_path):
    ledger = OnlineLedger((0.05,))
    ledger.record_step({0.05: 0}, {0.05: 0}, {0.05: np.inf})
    path = tmp_path / "one.csv"
    write_ledger(path, ledger)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,err_0.05,Err_0.05,L_0.05,M_0.05"
    assert len(lines) == 2
    assert lines[1].split(",") == ["1", "0", "0", "inf", "inf"]


def test_ledger_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_ledger(path, OnlineLedger((0.05,)))
    path.write_text("n,err_0.05,Err_0.05,L_0.05\n")
    with pytest.raises(DataFormatError, match="header"):
        read_ledger(path)
    path.write_text("n,err_0.05,Err_0.05,L_0.05,M_0.01\n")
    with pytest.raises(DataFormatError):
        read_ledger(path)
    path.write_text("n" + ",err_0.05,Err_0.05,L_0.05,M_0.05" * 2 + "\n")
    with pytest.raises(ValueError, match="distinct"):
        read_ledger(path)
    path.write_text("n,err_0.05,Err_0.05,L_0.05,M_0.05\n2,0,0,1.0,1.0\n")
    with pytest.raises(DataFormatError, match="out of order"):
        read_ledger(path)
    path.write_text("n,err_0.05,Err_0.05,L_0.05,M_0.05\n1,0,0,1.0,1.0\n\n3,0,0,2.0,2.0\n")
    with pytest.raises(DataFormatError, match="^row 3: step index 3 out of order"):
        read_ledger(path)  # a skipped step is not read as the next one
    path.write_text("n,err_0.05,Err_0.05,L_0.05,M_0.05\n1,0,0,1.0\n")
    with pytest.raises(DataFormatError, match="row 1"):
        read_ledger(path)


@pytest.mark.parametrize("text", ["n\n1\n", "n\n"])
def test_a_ledger_header_with_no_levels_is_refused(tmp_path, text):
    path = tmp_path / "no-levels.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="^ledger header 'n' names no significance level$"):
        read_ledger(path)


def test_ledger_values_the_ledger_never_writes_are_refused(tmp_path):
    path = tmp_path / "bad.csv"
    header = "n,err_0.05,Err_0.05,L_0.05,M_0.05,err_0.01,Err_0.01,L_0.01,M_0.01\n"
    for rows, where in (
        ("1,0,0,-1.0,nan,0,0,inf,inf\n", "row 1: L_0.05 is -1.0"),
        ("1,0,0,1.0,nan,0,0,inf,inf\n", "row 1: M_0.05 is nan"),
        ("1,0,0,1.0,1.0,0,0,nan,inf\n", "row 1: L_0.01 is nan"),
        ("1,2,2,1.0,1.0,0,0,inf,inf\n", "row 1: err_0.05 is 2, expected 0 or 1"),
        ("1,0,0,1.0,1.0,-1,0,inf,inf\n", "row 1: err_0.01 is -1"),
        ("1,0,1,1.0,1.0,0,0,inf,inf\n", "row 1: Err_0.05 is 1, expected the running error count 0"),
        ("1,1,1,1.0,1.0,0,0,inf,inf\n2,1,1,1.0,1.0,0,0,inf,inf\n", "row 2: Err_0.05 is 1"),
        ("1,0,0,1.0,7.0,0,0,inf,inf\n", "row 1: M_0.05 is 7.0, expected the running median 1.0"),
        (
            "1,0,0,1.0,1.0,0,0,inf,inf\n2,0,0,3.0,1.0,0,0,inf,inf\n",
            "row 2: M_0.05 is 1.0, expected the running median 3.0",
        ),
        ("1,0,0,1.0,1.0,0,0,inf,2.5\n", "row 1: M_0.01 is 2.5, expected the running median inf"),
    ):
        path.write_text(header + rows)
        with pytest.raises(DataFormatError, match=f"^{where}"):
            read_ledger(path)
    # infinite widths and medians are what an unbounded region writes
    path.write_text(header + "1,1,1,inf,inf,0,0,inf,inf\n2,0,1,2.5,inf,1,1,inf,inf\n")
    assert read_ledger(path).cumulative_errors(0.05) == [1, 1]


def test_duplicated_ledger_levels_are_a_format_error(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("n,err_0.05,Err_0.05,L_0.05,M_0.05,err_0.050,Err_0.050,L_0.050,M_0.050\n")
    with pytest.raises(DataFormatError, match="distinct"):
        read_ledger(path)


def test_plot_data_round_trip(tmp_path):
    ledger = make_ledger()
    path = tmp_path / "plot.csv"
    write_plot_data(path, ledger)
    curves = read_plot_data(path)
    assert set(curves) == {
        ("median-accuracy", 0.1),
        ("cumulative-errors", 0.1),
        ("median-accuracy", 0.01),
        ("cumulative-errors", 0.01),
    }
    steps, medians = curves[("median-accuracy", 0.1)]
    assert list(steps) == [1, 2, 3, 4, 5]
    assert list(medians) == ledger.medians(0.1)
    _, cum = curves[("cumulative-errors", 0.1)]
    assert list(cum) == ledger.cumulative_errors(0.1)
    with pytest.raises(ValueError):
        write_plot_data(tmp_path / "nope.csv", OnlineLedger((0.05,)))


def test_plot_data_format_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2.0\n")
    with pytest.raises(DataFormatError, match="before any block"):
        read_plot_data(path)
    path.write_text("# median-accuracy\n1,2.0\n")
    with pytest.raises(DataFormatError, match="block header"):
        read_plot_data(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ("# median-accuracy eps=0.05\n1,2.0\n12.0\n", "line 3: malformed data line '12.0'"),
        ("# cumulative-errors eps=0.05\nx,2.0\n", "line 2: malformed data line 'x,2.0'"),
        (
            "# cumulative-errors eps=0.05\n1,0\n\n# cumulative-errors eps=0.05\n1,1\n",
            "line 4: repeated block header",
        ),
    ],
    ids=["no comma", "non-integer step", "repeated block"],
)
def test_plot_data_errors_name_the_line(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=f"^{where}"):
        read_plot_data(path)
