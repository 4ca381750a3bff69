"""Exception types shared across the package."""


class DrumError(Exception):
    """Base class for all package errors; ``diagnostics`` holds what the
    failing step knew (sizes, solver status), empty when it has nothing."""

    def __init__(self, message="", diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SchemaError(DrumError):
    """Malformed input data: unknown ids, bad shapes, index mismatches."""


class RejectedRecordError(SchemaError):
    """A panel record set that cannot be assembled into menu paths."""


class SizeError(DrumError):
    """A construction would exceed the configured size guard."""


class ParameterError(DrumError):
    """Invalid configuration parameter."""


class UsageError(DrumError):
    """A command line the ``drum`` parser cannot read: an unknown option, a
    badly typed or missing value, here or in a ``--config`` file. ``usage``
    is the usage line of the (sub)command that failed."""

    def __init__(self, message="", usage=""):
        super().__init__(message)
        self.usage = usage


class GeometryError(DrumError):
    """A budget arrangement is degenerate or outside the supported catalog."""


class SolverError(DrumError):
    """An LP/QP solver failed to reach the required accuracy."""


class ModelRejectedError(DrumError):
    """An operation presupposing model consistency met inconsistent data."""


class AllocationError(DrumError):
    """Pooling needed a within-patch allocation that was not supplied."""
