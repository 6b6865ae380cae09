"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible (or full rank) is numerically singular."""


class ZeroMagnitudeError(ValueError):
    """A magnitude required to be nonzero is numerically zero."""


class InconsistentDataError(ValueError):
    """Measurement data violates a consistency bound and cannot be inverted."""


class BudgetExceededError(RuntimeError):
    """A combinatorial enumeration would exceed the configured budget."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""
