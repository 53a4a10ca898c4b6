"""Exception types raised by the toolkit, and check_integer, the integer
parameter check every module (the solvers of prox too) shares.

Every error the library raises deliberately derives from ToolkitError so
callers can distinguish toolkit failures from programming mistakes.
"""

import numbers


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ToolkitError):
    """A file or archive does not follow its declared layout."""


class DataError(ToolkitError):
    """Input values are invalid (NaN, Inf, wrong value domain)."""


class DimensionError(ToolkitError):
    """Array shapes or sizes do not line up."""


class ParameterError(ToolkitError):
    """A configuration value is outside its allowed range."""


class DomainError(ToolkitError):
    """An input is outside the domain of an operation (empty class, ...)."""


class NumericalError(ToolkitError):
    """A computation produced non-finite values or a decomposition failed."""


def check_integer(name, value, low):
    """Raise ParameterError unless value is an integer (numpy integers
    pass, bool does not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
