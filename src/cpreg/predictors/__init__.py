"""On-line confidence predictors sharing one two-phase step interface."""

from .base import OnlinePredictor, check_epsilon, check_tau
from .gauss import GaussPredictor, gauss_tstat
from .iid import IidPredictor, critical_points, iid_pvalue
from .iid_gauss import IidGaussPredictor, iidgauss_sample_conditional
from .mva import MvaPredictor, mva_residual_affine, open_solution_set
from .wilks import WilksPredictor, wilks_region

__all__ = [
    "OnlinePredictor",
    "check_epsilon",
    "check_tau",
    "IidPredictor",
    "iid_pvalue",
    "critical_points",
    "GaussPredictor",
    "gauss_tstat",
    "MvaPredictor",
    "mva_residual_affine",
    "open_solution_set",
    "IidGaussPredictor",
    "iidgauss_sample_conditional",
    "WilksPredictor",
    "wilks_region",
]
