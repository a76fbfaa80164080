"""Return-time prediction for web users under right censoring."""

__version__ = "0.1.0"

from .data import Dataset, Session, UserHistory, WindowConfig, assign_windows, stratified_split
from .metrics import Predictions

__all__ = [
    "Dataset",
    "Session",
    "UserHistory",
    "WindowConfig",
    "Predictions",
    "assign_windows",
    "stratified_split",
    "__version__",
]
