"""Exception hierarchy for the trichain package."""

__all__ = [
    "TrichainError", "InvalidParameterError", "DomainError", "DegenerateSpectrumError", "PoleError",
    "ConsistencyError", "AccuracyError", "ScheduleError",
]


class TrichainError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(TrichainError, ValueError):
    """A physical parameter, state vector, or index is malformed."""


class DomainError(TrichainError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateSpectrumError(TrichainError):
    """The non-equidistance error is undefined for this spectrum."""


class PoleError(TrichainError, ZeroDivisionError):
    """Evaluation requested at (or too close to) a pole of the response."""


class ConsistencyError(TrichainError):
    """Two independent computation routes disagree; indicates a bug, not bad input."""


class AccuracyError(TrichainError):
    """A numerical integration failed its accuracy/conservation bound."""


class ScheduleError(TrichainError, ValueError):
    """A coupling schedule is malformed or does not cover the requested window."""
