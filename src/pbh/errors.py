"""Exception types shared across the package."""


class PbhError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(PbhError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(PbhError):
    """Identifier in an expression that is neither a coordinate nor a declared parameter."""


class DomainError(PbhError):
    """Evaluation left the domain of an elementary function (sqrt of a negative, log of a non-positive, ...)."""


class SingularityError(PbhError):
    """A field hit a singular point (vanishing differential, excluded region)."""

    def __init__(self, message, point=None):
        if point is not None:
            message = f"{message} at point {tuple(point)}"
        super().__init__(message)
        self.point = tuple(point) if point is not None else None


class SingularMatrixError(PbhError):
    """Matrix inversion / linear solve hit a zero pivot."""


class NotPositiveDefiniteError(PbhError):
    """A metric matrix failed the positive-definiteness check."""


class RankDeficiencyError(PbhError):
    """An immersion's differential dropped rank at a sample point."""


class JetOrderError(PbhError):
    """Requested derivative order exceeds what the jet configuration supports."""


class SchemaError(PbhError):
    """Malformed scenario input; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"scenario field '{field}': {message}")
        self.field = field


class BatchSplit(Exception):
    """Internal signal: the entries of a batched evaluation need different code
    paths (a pivot row, a zero test). The caller evaluates them one at a time."""
