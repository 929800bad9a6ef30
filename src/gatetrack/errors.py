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


class NumericError(GateTrackError, ArithmeticError):
    """A computation produced NaN or Inf where finite values are required."""
