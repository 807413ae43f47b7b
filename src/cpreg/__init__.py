"""On-line confidence prediction for regression.

Conformal and classical predictors that emit nested prediction regions one
observation at a time, with exact finite-sample validity diagnostics, a
synthetic benchmark generator, and text serialization for ledgers and
plot curves.
"""

from .dataset import (
    DataFormatError,
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
from .ledger import LedgerTable, OnlineLedger
from .linalg import NumericalError
from .predictors import (
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
    OnlinePredictor,
    WilksPredictor,
    critical_points,
    iid_pvalue,
    open_solution_set,
    wilks_region,
)
from .protocol import (
    PREDICTOR_KINDS,
    PValueTrace,
    RunConfig,
    binomial_band,
    error_frequency_check,
    frequency_window,
    independence_test,
    make_predictor,
    run_online,
    run_trace,
    uniformity_test,
)
from .randomness import RandomStream
from .regions import Interval, PredictionRegion, check_nested, point
from .residuals import AffineResiduals, FeatureSchedule, RidgeResidualMap
from .stream import Observation, check_stream
from .studentt import t_sf, t_upper_point

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Observation",
    "check_stream",
    "Interval",
    "PredictionRegion",
    "point",
    "check_nested",
    "FeatureSchedule",
    "AffineResiduals",
    "RidgeResidualMap",
    "RandomStream",
    "NumericalError",
    "OnlineLedger",
    "LedgerTable",
    "OnlinePredictor",
    "IidPredictor",
    "iid_pvalue",
    "critical_points",
    "GaussPredictor",
    "MvaPredictor",
    "open_solution_set",
    "IidGaussPredictor",
    "WilksPredictor",
    "wilks_region",
    "PREDICTOR_KINDS",
    "RunConfig",
    "PValueTrace",
    "make_predictor",
    "run_online",
    "run_trace",
    "uniformity_test",
    "independence_test",
    "error_frequency_check",
    "frequency_window",
    "binomial_band",
    "SyntheticSpec",
    "beta_vector",
    "generate",
    "DataFormatError",
    "read_stream",
    "write_stream",
    "read_ledger",
    "write_ledger",
    "read_plot_data",
    "write_plot_data",
    "t_sf",
    "t_upper_point",
]
