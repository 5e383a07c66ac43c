"""Street-level economic vitality diagnostics.

Computes nine streetscape indicators, calibrated distance-decay spillover
fields, entropy-weighted TOPSIS composites, rank/PCA statistics, and
time-sliced geographically weighted regression from tabular detection,
anchor, and crowd-intensity inputs.

`import sevi` loads the exceptions alone. numpy loads with the first name
that needs it: each name of `__all__` from `geodata` or `pipeline` imports
its module on first access.
"""

from importlib import import_module

from .exceptions import (ComputationError, ConfigError, SeviError, StageError,
                         ValidationError)

__version__ = "0.1.0"

# the module of each numpy-backed name of __all__
_LAZY = {"CityTables": "geodata", "TablePaths": "geodata", "load_tables": "geodata",
         "project_to_metric": "geodata",
         "PipelineConfig": "pipeline", "robustness": "pipeline", "run": "pipeline"}

__all__ = [
    "CityTables", "ComputationError", "ConfigError", "PipelineConfig",
    "SeviError", "StageError", "TablePaths", "ValidationError",
    "load_tables", "project_to_metric",
    "robustness", "run", "__version__",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
