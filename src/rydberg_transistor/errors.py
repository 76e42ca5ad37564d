"""Exception types shared across the package."""


class TransistorError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TransistorError, ValueError):
    """An argument lies outside the physical/mathematical domain of an operation."""


class UndefinedContrastError(DomainError):
    """Switch contrast is undefined (zero reference transmission)."""


class InsufficientDataError(TransistorError, ValueError):
    """Not enough data points/runs for the requested analysis."""


class FitConvergenceError(TransistorError, RuntimeError):
    """An optimizer failed to converge; carries diagnostics for the caller."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(TransistorError, ValueError):
    """Configuration validation failed; lists every violated invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
