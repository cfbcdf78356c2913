"""Exception types shared across the package, and the one guard rule."""

from typing import Callable

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


def _check_size(what: str, k: int, size: Callable[[], int], guard: int) -> None:
    """Raise GuardExceededError if an enumeration of ``size()`` items, at least
    2^k, exceeds ``guard``, and ValidationError if ``guard`` is negative or
    not an int (a bool included).

    ``size`` runs only when 2^k does not settle the guard.  A size past 64
    bits is printed as "at least 2^k" (k from the exact size if taken), since
    Python refuses to print an int of more than 4300 decimal digits.
    """
    if type(guard) is not int or guard < 0:
        raise ValidationError(f"guard must be an integer >= 0, got {guard!r}")
    exact = None
    if k < max(64, guard.bit_length()):
        exact = size()
        if exact <= guard:
            return
        k = exact.bit_length() - 1
    shown = exact if k < 64 else f"at least 2^{k}"
    raise GuardExceededError(f"{what} of size {shown} exceeds the guard {guard}")
