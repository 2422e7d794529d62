"""Exception types shared across the package, and the count-argument check."""

from numbers import Integral


class MinrelError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MinrelError, ValueError):
    """Input data or arguments violate an operation's contract."""


def require_count(value, name: str, least: int) -> int:
    """``value`` as an int; :class:`InvalidInputError` unless it is an integer >= ``least``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value!r}")
    return int(value)
