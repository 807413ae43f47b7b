"""On-line confidence prediction for regression.

Conformal and classical predictors that emit nested prediction regions one
observation at a time, with exact finite-sample validity diagnostics, a
synthetic benchmark generator, and text serialization for ledgers and
plot curves.
"""

from .dataset import (
    DataFormatError,
    LedgerTable,
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
from .ledger import OnlineLedger, running_median
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
    independence_test,
    make_predictor,
    run_online,
    run_trace,
    uniformity_test,
)
from .randomness import RandomStream
from .regions import Interval, PredictionRegion, check_nested, point
from .residuals import AffineResiduals, FeatureSchedule, RidgeResidualMap, ridge_residual_affine
from .stream import Observation, check_stream
from .studentt import regularized_incomplete_beta, t_cdf, t_sf, t_upper_point

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
    "ridge_residual_affine",
    "RandomStream",
    "NumericalError",
    "OnlineLedger",
    "running_median",
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
    "binomial_band",
    "SyntheticSpec",
    "beta_vector",
    "generate",
    "DataFormatError",
    "LedgerTable",
    "read_stream",
    "write_stream",
    "read_ledger",
    "write_ledger",
    "read_plot_data",
    "write_plot_data",
    "regularized_incomplete_beta",
    "t_cdf",
    "t_sf",
    "t_upper_point",
]
