"""On-line confidence predictors sharing one two-phase step interface."""

from .base import OnlinePredictor, check_epsilon, check_tau
from .gauss import GaussPredictor
from .iid import IidPredictor, critical_points, iid_pvalue
from .iid_gauss import IidGaussPredictor
from .mva import MvaPredictor, open_solution_set
from .wilks import WilksPredictor, wilks_region

__all__ = [
    "OnlinePredictor",
    "check_epsilon",
    "check_tau",
    "IidPredictor",
    "iid_pvalue",
    "critical_points",
    "GaussPredictor",
    "MvaPredictor",
    "open_solution_set",
    "IidGaussPredictor",
    "WilksPredictor",
    "wilks_region",
]
