"""Exception types shared across the package."""


class VdcembedError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(VdcembedError):
    """A caller-supplied parameter violates a precondition."""


class ConfigError(VdcembedError):
    """A config file is malformed or carries unknown/invalid keys."""


class FormatError(VdcembedError):
    """A substrate, request or assignment text file cannot be parsed."""


class UnknownElementError(VdcembedError):
    """A referenced element id does not exist (dangling reference)."""


class PathLookupError(VdcembedError):
    """A (pair, index) lookup into a path table does not resolve."""


class CommitRejectedError(VdcembedError):
    """A strict commit was refused; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        super().__init__(f"commit rejected: {lines}")


class StaleSnapshotError(VdcembedError):
    """The embedding state changed between model build and plan extraction."""


class IncompleteTraceError(VdcembedError):
    """A trace ended without a terminal record; aggregates would be partial."""


class AuditError(VdcembedError):
    """A from-scratch consistency audit found a bookkeeping mismatch."""
