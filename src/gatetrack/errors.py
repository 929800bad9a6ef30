"""Exception types shared across the package.

Every error the package raises on purpose derives from
:class:`GateTrackError`, so a caller can catch the package's failures in
one clause.  Each subclass also derives from the built-in type that names
its kind of fault (``ValueError`` or ``ArithmeticError``).  The range
checks of sizes and rates that raise :class:`ConfigError` live here too, so
every module that validates a setting states each rule once.
"""

import math
import numbers


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


def _require_size(key, value, low=1):
    """A size, count or period must be an int >= ``low`` (bool is not a size)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")


_RANGES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
           "in [0, 1]": lambda v: 0 <= v <= 1, "in [0, 1)": lambda v: 0 <= v < 1}


def _require_real(key, value, rule="> 0"):
    """A rate, scale or weight must be a finite real number (bool is not one)
    satisfying ``rule``, a key of ``_RANGES``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not _RANGES[rule](value)):
        raise ConfigError(f"{key} must be a finite number {rule}, got {value!r}")
