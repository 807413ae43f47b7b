"""On-line confidence predictors sharing one two-phase step interface."""

from .base import OnlinePredictor, check_epsilon, check_tau
from .gauss import GaussPredictor
from .iid import IidPredictor, critical_points
from .iid_gauss import IidGaussPredictor
from .mva import MvaPredictor, open_solution_set
from .wilks import WilksPredictor

__all__ = [
    "OnlinePredictor",
    "check_epsilon",
    "check_tau",
    "IidPredictor",
    "critical_points",
    "GaussPredictor",
    "MvaPredictor",
    "open_solution_set",
    "IidGaussPredictor",
    "WilksPredictor",
]
