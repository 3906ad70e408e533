"""Exception types shared across the package."""


class DoqkdError(Exception):
    """Base class for all package errors."""


class ConfigError(DoqkdError):
    """Invalid configuration file or parameter set."""


class NoPeakError(DoqkdError):
    """A coincidence histogram has no usable peak above the accidental floor."""


class ProtocolAbort(DoqkdError):
    """Two-party sifting aborted (frame format mismatch between parties)."""


class EstimationError(DoqkdError):
    """Covariance estimation failed (insufficient counts or unphysical baseline)."""


class ReconciliationError(DoqkdError):
    """Error-reconciliation input is malformed (bad block length, bad prior)."""


class StageError(DoqkdError):
    """A pipeline stage failed; the message carries the stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
