"""Exception types shared across the package, and its one integer-argument check.

Every integer argument (m, seed, reps, folds, subset sizes, workers, factor
counts, n_noise, min_relevant) is checked by :func:`require_count`.
"""

from numbers import Integral


class MinrelError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MinrelError, ValueError):
    """Input data or arguments violate an operation's contract."""


def require_count(value, name: str, least: int) -> int:
    """``value`` as a Python int; :class:`InvalidInputError` unless an integer >= ``least``.

    A bool is not an integer here.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
