"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError,
FormatError, ShapeError (and any OSError) -> 3, NumericError,
ConvergenceError and UndefinedCorrelationError -> 4.
"""


class CnaLabError(Exception):
    """Base class for all package errors."""


class ConfigError(CnaLabError):
    """Malformed or inconsistent experiment configuration."""


class ShapeError(CnaLabError):
    """Incompatible tensor or layer shapes."""


class DataError(CnaLabError):
    """Dataset construction or validation failure."""


class FormatError(CnaLabError):
    """Corrupt, truncated, or unrecognized on-disk artifact."""


class NumericError(CnaLabError):
    """Non-finite value produced where finite math was required."""


class UndefinedCorrelationError(CnaLabError):
    """Pearson correlation requested on a zero-variance vector.

    Carries the name of the offending vector so reports can surface
    "undefined" instead of silently imputing 0 or NaN.
    """

    def __init__(self, vector_name, message=None):
        self.vector_name = vector_name
        super().__init__(message or f"zero sample variance in vector '{vector_name}'")


class ConvergenceError(CnaLabError):
    """Iterative solver hit its iteration cap. Carries the last iterate."""

    def __init__(self, message, last_value=None):
        self.last_value = last_value
        super().__init__(message)
