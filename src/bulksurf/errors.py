"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
the CLI can map them to exit codes and name the offending module in its
message.
"""

import contextlib


class BulkSurfError(Exception):
    """Base class for all package errors."""


class ValidationError(BulkSurfError, ValueError):
    """An input outside its owner's rules; `key` names it as the owner does."""

    def __init__(self, message, key=None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key
        self.reason = message


@contextlib.contextmanager
def rekeyed(name):
    """Re-raise a keyed ValidationError of the block under the key `name(key)`."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(exc.reason, key=name(exc.key)) from exc


# geometry
class InvalidPreset(ValidationError):
    pass


class PointOutsideDomain(BulkSurfError):
    pass


# mesh
class InvalidResolution(ValidationError):
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


class UnknownCase(ValidationError):
    pass


# equilibrium
class NonpositiveMass(ValidationError):
    pass


class NoPositiveRoot(BulkSurfError):
    pass


class UndefinedClosure(ValidationError, NoPositiveRoot):
    """Rate constants for which the chosen closure has no positive kappa."""


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
