"""Exception types shared across the package."""

from __future__ import annotations


class TimedChoiceError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TimedChoiceError, ValueError):
    """A domain object or argument violates its invariants."""


class ConfigurationError(TimedChoiceError, ValueError):
    """An operation was configured inconsistently (bad flags, modes, shapes)."""


class SolverError(TimedChoiceError, RuntimeError):
    """A numerical solver failed to converge.

    ``iterate`` is the ``p`` array found and ``residual`` its KKT residual,
    so callers can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, *, iterate=None, residual: float | None = None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class CutoffTieError(TimedChoiceError, ValueError):
    """Expected-utility ranking hit an exact tie (a risk-aversion cutoff).

    Raised instead of returning an arbitrary strict ordering. ``sigma`` is
    the offending risk-aversion value, ``pairs`` the tied lottery labels.
    """

    def __init__(self, sigma: float, pairs):
        self.sigma = sigma
        self.pairs = tuple(pairs)
        tied = ", ".join(f"{a} ~ {b}" for a, b in self.pairs)
        super().__init__(f"expected-utility tie at sigma={sigma!r}: {tied}")
