"""Exception types shared across the package."""

__all__ = [
    "GuardExceededError",
    "LindegError",
    "NotFlatError",
    "NotIrreducibleError",
    "NotRealizableError",
    "NotSubrepresentationError",
    "ValidationError",
]


class LindegError(Exception):
    """Base class for package-specific errors."""


class ValidationError(LindegError, ValueError):
    """Malformed or inconsistent input data."""


class NotRealizableError(ValidationError):
    """A rank table that no quiver representation realizes."""

    def __init__(self, message: str, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


class NotSubrepresentationError(ValidationError):
    """A subspace tuple that the representation maps do not preserve."""


class NotFlatError(LindegError):
    """The degeneration is not in the flat locus of its stratum."""


class NotIrreducibleError(LindegError):
    """The degeneration is not irreducible."""


class GuardExceededError(LindegError):
    """An enumeration size guard would be exceeded."""
