"""Exception types shared across the package."""
import numpy as np


class QLGraphError(Exception):
    """Base class for all qlgraph errors."""


class InvalidParameterError(QLGraphError, ValueError):
    """A precondition on an operation's inputs was violated.

    Several arguments are several errors; the message joins them with "; ".
    """

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


class GenerationFailureError(QLGraphError, RuntimeError):
    """Random graph generation did not succeed within the retry budget."""

    def __init__(self, message: str, restarts: int):
        super().__init__(message)
        self.restarts = restarts


class NumericalFailureError(QLGraphError, RuntimeError):
    """A numerical routine (eigensolver) failed to converge."""


def require_int(name: str, value) -> int:
    """value as an int; InvalidParameterError unless it is an int or np.integer (bool refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
