"""Exception types shared across the package."""


class QdeqError(Exception):
    """Base class for package errors."""


class DimensionError(QdeqError, ValueError):
    """A vector/state/parameter length does not match its contract."""


class InvalidGateError(QdeqError, ValueError):
    """A gate or circuit violates a structural invariant (bad index, bad slots)."""


class UnsupportedGateError(QdeqError, ValueError):
    """An operation was requested on a gate kind that does not support it."""


class DegenerateInputError(QdeqError, ValueError):
    """An input cannot be encoded (e.g. zero vector under amplitude encoding).

    ``rows`` carries the offending batch row indices when the batched path raised.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class SolverDivergedError(QdeqError, RuntimeError):
    """The root solver produced non-finite values. ``step`` is the failing step index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class ConfigError(QdeqError, ValueError):
    """A run configuration failed validation (unknown key, bad value)."""


class DataFormatError(QdeqError, ValueError):
    """A dataset or checkpoint file is malformed."""


class TrainingAborted(QdeqError, RuntimeError):
    """Training stopped because too many batches diverged or failed to encode in one epoch."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
