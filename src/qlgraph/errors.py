"""Exception types shared across the package."""


class QLGraphError(Exception):
    """Base class for all qlgraph errors."""


class InvalidParameterError(QLGraphError, ValueError):
    """A precondition on an operation's inputs was violated."""


class GenerationFailureError(QLGraphError, RuntimeError):
    """Random graph generation did not succeed within the retry budget."""

    def __init__(self, message: str, restarts: int):
        super().__init__(message)
        self.restarts = restarts


class NumericalFailureError(QLGraphError, RuntimeError):
    """A numerical routine (eigensolver) failed to converge."""
