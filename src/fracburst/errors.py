"""Exception types shared across the package."""

__all__ = [
    "FracburstError",
    "DomainError",
    "OverflowRangeError",
    "NonConvergenceError",
    "PrecisionLossError",
    "BracketingError",
    "NotApplicableError",
    "ConfigError",
]


class FracburstError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FracburstError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OverflowRangeError(FracburstError, OverflowError):
    """A result lies outside the normal double-precision range.

    Either it exceeds the largest double, or it is smaller in magnitude
    than the smallest normal double (2.2e-308) and would come back as a
    subnormal or zero without its accuracy.
    """


class NonConvergenceError(FracburstError, ArithmeticError):
    """A series failed its truncation test within the term budget."""


class PrecisionLossError(NonConvergenceError):
    """A series converged but cancellation ate the accuracy guarantee.

    Subclass of NonConvergenceError so callers that treat "outside the
    validated range" as one condition can catch a single type.
    """


class BracketingError(FracburstError, RuntimeError):
    """No interior minimum was found inside the allowed search interval."""


class NotApplicableError(FracburstError, ValueError):
    """The blow-up theorem's hypotheses fail for the given system.

    Carries the full list of violated conditions; the bound is not
    extrapolated outside the proven parameter region.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        lines = "; ".join(self.violations)
        super().__init__(f"no branch of the blow-up theorem applies: {lines}")


class ConfigError(FracburstError, ValueError):
    """A scenario configuration file failed validation."""
