"""Exception types shared across the package."""


class QscError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QscError, ValueError):
    """Operands have inconsistent dimensions."""


class IndexEscapeError(QscError, ValueError):
    """A mode / conservation index escapes the configured truncation.

    Operations reject instead of silently clipping: a clipped index would
    corrupt a multiplication table without any visible symptom.
    """


class ResourceLimitError(QscError, RuntimeError):
    """A computation would exceed the configured memory budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class BlowUpError(QscError, RuntimeError):
    """A numerical integration escaped to infinity."""

    def __init__(self, message, escape_time=None):
        super().__init__(message)
        self.escape_time = escape_time


class NotConvergedError(QscError, RuntimeError):
    """An iterative scheme hit its iteration cap before converging."""


class ConfigError(QscError, ValueError):
    """One or more validation errors in an experiment configuration.

    ``errors`` is the full list; validation never stops at the first
    problem.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
