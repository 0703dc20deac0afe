"""Exception types shared across the package, and the input checks that raise them."""
import math

import numpy as np


class QLGraphError(Exception):
    """Base class for all qlgraph errors."""

    sample = stage = None  # a pipeline failure's sample and stage ("base", "eigensolve")


class InvalidParameterError(QLGraphError, ValueError):
    """A precondition on an operation's inputs was violated.

    Several arguments are several errors; the message joins them with "; ".
    """

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


class GenerationFailureError(QLGraphError, RuntimeError):
    """Random graph generation did not succeed within the retry budget."""

    def __init__(self, message: str, restarts: int, item: int = 0):
        super().__init__(message)
        self.restarts, self.item = restarts, item  # item: the failing seed's position in a batch


class NumericalFailureError(QLGraphError, RuntimeError):
    """A numerical routine (eigensolver) failed to converge."""


def shown(value) -> str:
    """repr(value), or for an int past sys.get_int_max_str_digits() its digit count."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding such an int"
    digits = round(math.log10(abs(value)))  # off by at most one
    digits += (10**digits <= abs(value)) - (10**(digits - 1) > abs(value))
    return f"an int of {digits} digits"


def require_int(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int; InvalidParameterError unless it is an int or np.integer
    (bool refused) in [lo, hi], a bound of None being no bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {shown(value)}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = (f"at most {hi}" if lo is None else f"at least {lo}" if hi is None
                 else f"in [{lo}, {hi}]")
        raise InvalidParameterError(f"{name} must be {bound}, got {shown(value)}")
    return value


def real_float(value) -> float:
    """value as a Python float if it is a real number (an int, a float or a numpy
    one, never a bool) within float range, else NaN, which fails every comparison.
    Compared as a Python float, a numpy float casts no bound down to its precision."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int past float range
        return math.nan


def real_array(name: str, value) -> np.ndarray:
    """value as a float64 array, value itself if it is one; InvalidParameterError
    unless it holds bools, integers or floats: a cast would drop an imaginary part."""
    try:
        a = np.asarray(value)
    except ValueError:  # rows of different lengths
        raise InvalidParameterError(f"{name} must be an array, got ragged rows") from None
    if a.dtype.kind not in "biuf":
        raise InvalidParameterError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)
