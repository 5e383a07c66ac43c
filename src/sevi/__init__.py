"""Street-level economic vitality diagnostics.

Computes nine streetscape indicators, calibrated distance-decay spillover
fields, entropy-weighted TOPSIS composites, rank/PCA statistics, and
time-sliced geographically weighted regression from tabular detection,
anchor, and crowd-intensity inputs.
"""

from .exceptions import (ComputationError, ConfigError, SeviError, StageError,
                         ValidationError)
from .geodata import CityTables, TablePaths, load_tables, project_to_metric
from .pipeline import PipelineConfig, robustness, run

__version__ = "0.1.0"

__all__ = [
    "CityTables", "ComputationError", "ConfigError", "PipelineConfig",
    "SeviError", "StageError", "TablePaths", "ValidationError",
    "load_tables", "project_to_metric",
    "robustness", "run", "__version__",
]
