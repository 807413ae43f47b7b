"""The package's export list."""

import ast
from pathlib import Path

import cpreg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = [
    "AffineResiduals",
    "DataFormatError",
    "GaussPredictor",
    "IidGaussPredictor",
    "IidPredictor",
    "Interval",
    "LedgerTable",
    "MvaPredictor",
    "NumericalError",
    "Observation",
    "OnlineLedger",
    "OnlinePredictor",
    "PREDICTOR_KINDS",
    "PValueTrace",
    "PredictionRegion",
    "RandomStream",
    "RidgeResidualMap",
    "RunConfig",
    "SyntheticSpec",
    "WilksPredictor",
    "__version__",
    "beta_vector",
    "binomial_band",
    "check_nested",
    "check_stream",
    "critical_points",
    "error_frequency_check",
    "frequency_window",
    "generate",
    "independence_test",
    "make_predictor",
    "open_solution_set",
    "point",
    "read_ledger",
    "read_plot_data",
    "read_stream",
    "run_online",
    "run_trace",
    "t_sf",
    "t_upper_point",
    "uniformity_test",
    "write_ledger",
    "write_plot_data",
    "write_stream",
]


def test_every_export_resolves_once():
    assert len(cpreg.__all__) == len(set(cpreg.__all__))
    assert [name for name in cpreg.__all__ if not hasattr(cpreg, name)] == []


def test_the_public_surface_is_pinned():
    assert sorted(cpreg.__all__) == PUBLIC


def test_the_benchmark_imports_only_exported_names():
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "cpreg":
                imported.update(alias.name for alias in node.names)
    assert imported  # the benchmark drives the package through its exports
    assert sorted(imported - set(cpreg.__all__)) == []
