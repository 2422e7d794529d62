"""Exception types shared across the package, and its one check per kind of argument.

Every integer argument (m, seed, reps, folds, subset sizes, factor counts, n_noise,
min_relevant, rows_dropped) goes through :func:`require_count`, every name (metric, criterion,
experiment, NA policy) through :func:`require_choice`, every set of relevant columns and a
dataset's names through :func:`require_names` and every sign through :func:`require_sign`.
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


def require_choice(value, choices: tuple, what: str):
    """``value``; :class:`InvalidInputError` unless it is one of the tuple ``choices`` of strings.

    A non-string (a list, None, an array) gets the message before any comparison.
    """
    if not isinstance(value, str) or value not in choices:
        raise InvalidInputError(f"unknown {what} {value!r}; expected one of {choices}")
    return value


def require_names(value, what: str) -> tuple:
    """``value`` as a tuple of names; :class:`InvalidInputError` for a ``str``: it is one name."""
    if isinstance(value, str):
        raise InvalidInputError(f"{what} must be a collection of names, got the string {value!r}")
    return tuple(value)


def require_sign(value, name: str) -> int:
    """``value`` as a Python int; :class:`InvalidInputError` unless it is +1 or -1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value not in (1, -1):
        raise InvalidInputError(f"{name} must be +1 or -1, got {value!r}")
    return int(value)
