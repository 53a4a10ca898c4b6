"""Exception types raised by the toolkit, and the checks every module shares:
check_number, the one rule for scalar settings (the solvers of prox too),
check_labels, the one rule for class labels wherever they enter, and
check_real, the one rule for the numbers of samples, models and matrices.

Every error the library raises deliberately derives from ToolkitError so
callers can distinguish toolkit failures from programming mistakes.
"""

import math
import numbers

import numpy as np

POSITIVE = math.ulp(0.0)  # the least positive float: as a low, it refuses 0


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


def check_number(name, value, low, high=math.inf, integer=False):
    """Raise ParameterError, naming the setting, unless value is a real number
    (an integer if integer is set; numpy scalars pass, bool and arrays do not),
    finite and in [low, high]. Integers compare exactly, other reals as floats."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, kind) and not isinstance(value, bool):
        x = value if isinstance(value, numbers.Integral) else float(value)
        if -math.inf < x < math.inf and low <= x <= high:
            return
    what = "an integer" if integer else "finite and"
    rule = f"be {what} >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
    raise ParameterError(f"{name} must {rule}, got {value!r}")


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
    with np.errstate(over="ignore"):  # a longdouble beyond float64 becomes Inf
        a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise DataError(f"{name} contains NaN or Inf")
    return a
