"""Exception types shared across the package.

Every error raised on purpose derives from ``DsmcfError`` so callers can
catch the whole family at an API boundary while ordinary bugs (TypeError,
IndexError, ...) still surface loudly.
"""

from __future__ import annotations

__all__ = [
    "DsmcfError",
    "NonSpacelikeError",
    "BelowThresholdError",
    "OutOfDomainError",
    "ModeUnsupportedError",
    "BlowupError",
    "ConvergenceError",
    "SpanTooShortError",
    "ParseError",
    "ValidationError",
    "VersionMismatchError",
    "CorruptFileError",
    "IoError",
]


class DsmcfError(Exception):
    """Base class for all package-specific errors."""


class NonSpacelikeError(DsmcfError):
    """A graph jet lost the spacelike margin (1 - e^{-2u}|du|^2 too small).

    Carries the offending location when known so a failed flow run can be
    diagnosed without re-running.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class BelowThresholdError(DsmcfError):
    """A cutoff bound was requested below its configured height threshold."""


class OutOfDomainError(DsmcfError):
    """A point left the interpolable hull of a grid."""


class ModeUnsupportedError(DsmcfError):
    """The requested check only exists for one grid mode."""


class BlowupError(DsmcfError):
    """The height field exceeded the configured cap during a flow run."""


class ConvergenceError(DsmcfError):
    """An implicit step's Newton solve failed, or its step size underflowed."""


class SpanTooShortError(DsmcfError):
    """A trajectory does not cover the time span a rescaling needs."""


class ParseError(DsmcfError):
    """Config or snapshot text could not be parsed, or held unknown keys."""


class ValidationError(DsmcfError):
    """A config value violated its documented range."""


class VersionMismatchError(DsmcfError):
    """A snapshot file was written by an incompatible format version."""


class CorruptFileError(DsmcfError):
    """A snapshot file failed its checksum or is truncated."""


class IoError(DsmcfError):
    """A report or snapshot could not be written to its output path."""
