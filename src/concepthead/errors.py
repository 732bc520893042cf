"""Exception types shared across the package."""


class ConceptHeadError(Exception):
    """Base class for all package errors."""


class ShapeError(ConceptHeadError, ValueError):
    """Operands have incompatible shapes."""


class DomainError(ConceptHeadError, ValueError):
    """Input values outside an operation's domain."""


class NumericError(DomainError):
    """An operation produced NaN or Inf."""


class ConfigError(ConceptHeadError, ValueError):
    """Invalid configuration or parameter values."""


class FormatError(ConceptHeadError, ValueError):
    """Malformed binary file. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MetricError(ConceptHeadError, ValueError):
    """A metric is undefined for the given inputs."""


class RecordConsumedError(ConceptHeadError):
    """backward was asked to walk an operation record it has already walked."""
