"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
the CLI can map them to exit codes and name the offending module in its
message.
"""


class BulkSurfError(Exception):
    """Base class for all package errors."""


# geometry
class InvalidPreset(BulkSurfError):
    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key  # the GeometryPreset field at fault


class PointOutsideDomain(BulkSurfError):
    pass


# mesh
class InvalidResolution(BulkSurfError):
    pass


class LengthMismatch(BulkSurfError):
    pass


# solver
class SingularJacobian(BulkSurfError):
    pass


class CflViolation(BulkSurfError):
    pass


class LinearSolveFailure(BulkSurfError):
    pass


class NewtonDivergence(BulkSurfError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class UnknownCase(BulkSurfError):
    pass


# equilibrium
class NonpositiveMass(BulkSurfError):
    pass


class NoPositiveRoot(BulkSurfError):
    pass


# diagnostics
class NonfiniteField(BulkSurfError):
    pass


class MassMismatch(BulkSurfError):
    pass


class InsufficientData(BulkSurfError):
    pass


class NonpositiveEntropy(BulkSurfError):
    pass


class DegenerateSampler(BulkSurfError):
    pass


class EigenFailure(BulkSurfError):
    pass


class WorkerFailure(BulkSurfError):
    """A worker process ended without reporting its result."""


# config / cli
class ParseError(BulkSurfError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(BulkSurfError):
    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
