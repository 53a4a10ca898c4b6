"""Exception types raised by the toolkit, and the checks every module shares:
check_integer for integer parameters (the solvers of prox too),
check_labels, the one rule for class labels wherever they enter, and
check_real, the one rule for the numbers of samples, models and matrices.

Every error the library raises deliberately derives from ToolkitError so
callers can distinguish toolkit failures from programming mistakes.
"""

import numbers

import numpy as np


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


def check_labels(labels, name="labels", C=None):
    """Raise DataError unless labels have an integer dtype (bool is not one)
    and all lie in 1..C, or with no C in 1..2**63 - 1, which every label
    reader accepts."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"{name} must be integers, got dtype {labels.dtype}")
    high = 2**63 - 1 if C is None else C
    # int() compares uint64 with these bounds exactly, on any numpy
    if labels.size and not 1 <= int(labels.min()) <= int(labels.max()) <= high:
        raise DataError(f"{name} must lie in 1..{high}")


def check_real(a, name):
    """a as a float64 array, not copied if it is one; DataError unless its
    dtype is boolean, integer or real floating and every entry is finite."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise DataError(f"{name} must hold real numbers, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise DataError(f"{name} contains NaN or Inf")
    return a
