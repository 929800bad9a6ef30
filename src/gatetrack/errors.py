"""Exception types shared across the package.

Every error the package raises on purpose derives from
:class:`GateTrackError`, so a caller can catch the package's failures in
one clause.  Each subclass also derives from the built-in type that names
its kind of fault (``ValueError`` or ``ArithmeticError``).
"""


class GateTrackError(Exception):
    """Base class for all package errors."""


class ShapeError(GateTrackError, ValueError):
    """Tensor dimensions do not match the operation's contract."""


class ConfigError(GateTrackError, ValueError):
    """Invalid configuration value or unknown configuration key."""


class ParameterError(GateTrackError, ValueError):
    """Invalid numeric parameter (e.g. non-positive temperature)."""


class ParseError(GateTrackError, ValueError):
    """A data file failed to parse; carries file path and line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class NumericError(GateTrackError, ArithmeticError):
    """A computation produced NaN or Inf where finite values are required."""
