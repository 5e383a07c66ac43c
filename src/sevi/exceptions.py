"""Exception hierarchy shared across the package.

Validation errors describe bad inputs or configuration (CLI exit code 1);
computation errors describe failures that arise mid-analysis (exit code 2).
"""


class SeviError(Exception):
    """Base class for all package errors."""


class ValidationError(SeviError):
    """Invalid input data, schema violation, or bad configuration."""


class SchemaError(ValidationError):
    """Tabular input violates its schema; carries file/row/column context."""

    def __init__(self, path, row, column, message):
        self.path = str(path)
        self.row = row
        self.column = column
        super().__init__(f"{self.path}: row {row}, column {column!r}: {message}")


class ConfigError(ValidationError):
    """Pipeline configuration is malformed or carries unknown keys."""


class ComputationError(SeviError):
    """A numerical or analytical step could not be completed."""


class CalibrationError(ComputationError):
    """Bandwidth calibration has no usable category."""


class ModelOutputError(ComputationError):
    """Remote-model output could not be parsed; keeps the raw text for audit."""

    def __init__(self, message, raw_text):
        self.raw = raw_text
        super().__init__(message)


class TransportError(ComputationError):
    """Remote-model call failed after retries."""


class StageError(SeviError):
    """Wraps any error raised inside a named pipeline stage; `setting`, if
    given, names the spillover setting that the stage's analysis ran under."""

    def __init__(self, stage, cause, setting=None):
        self.stage = stage
        self.cause = cause
        where = f" for {setting}" if setting else ""
        super().__init__(f"stage '{stage}' failed{where}: {cause}")
