"""Bivariate dependence coefficients, each defined once.

The centerpiece is the rank minrelation coefficient: an asymmetric score in
[-1, 1] that is high when one variable consistently stays below the other
(an estimate that p(X <= Y) is large), rather than when the two move
together symmetrically. It is computed on triangular squared-rank
transforms of the inputs and trades off two squared-distance masses:

    above = sum over i of  I(x~ > -y~dec) * (x~ + y~dec)^2
    below = sum over i of  I(x~ >  y~inc) * (x~ - y~inc)^2
    value = (above - below) / (above + below)

where x~ is the decreasing transform of X and y~dec / y~inc are the
decreasing / increasing transforms of Y. ``above`` collects mass supporting
the relation (points clear of the anti-diagonal y = -x), ``below`` collects
violations of X <= Y (points under the diagonal y = x). Points exactly on a
diagonal contribute to neither sum. A zero denominator is reported as a
degenerate zero, never an error.

Every metric, including the raw variants of the trade-off and the Pearson
and Spearman baselines, is one :data:`METRIC_TABLE` entry
``Metric(prepare, kernel, ranked)``:

- ``prepare`` maps one column to a tuple of arrays. A ``ranked`` metric's
  column is its :class:`ColumnTransforms` (one sort, shared by every
  ranked metric); any other metric's column is its values, never sorted.
- ``kernel(x, y)`` takes two prepared columns and returns ``(values,
  degenerate)`` arrays. Either side may be a batch, each part stacked
  with one row per column. Every reduction runs over the last axis, and a
  row reduces the same alone as in a batch.

A two-column call, a matrix cell (:mod:`minrel.matrix`) and a ranking
score (:mod:`minrel.ranking`) are each one call of that kernel, so they
agree bit for bit by construction. Every mass is one :func:`_mass`
reduction. The ``max_iota_sq`` kernel, :func:`minrel_profile` and the
profile matrix share :func:`_orientations`: four orientations from four
masses, not eight. All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError
from .ranks import ColumnLike, ColumnTransforms, as_values, centred, column_transforms, dots


@dataclass(frozen=True)
class CoefficientValue:
    """A coefficient in [-1, 1]; ``degenerate`` marks a zero denominator."""

    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class MinrelProfile:
    """The four tabulated orientations of the coefficient for one pair."""

    iota_xy: CoefficientValue
    iota_yx: CoefficientValue
    iota_negx_y: CoefficientValue
    iota_negy_x: CoefficientValue
    max_iota_sq: float

    def oriented_values(self) -> tuple[CoefficientValue, ...]:
        return (self.iota_xy, self.iota_yx, self.iota_negx_y, self.iota_negy_x)


def _pair_values(x: ColumnLike, y: ColumnLike) -> tuple[np.ndarray, np.ndarray]:
    xv = as_values(x, "x")
    yv = as_values(y, "y")
    if xv.size != yv.size:
        raise InvalidInputError(f"columns differ in length: {xv.size} vs {yv.size}")
    return xv, yv


def _pair_columns(x: ColumnLike, y: ColumnLike, ranked: bool) -> tuple:
    """Both columns as a metric takes them: transforms when ``ranked``, else values.

    A column given as its transforms is not re-ranked.
    """
    xv, yv = _pair_values(x, y)
    if not ranked:
        return xv, yv
    return _transforms(x, xv), _transforms(y, yv)


def _transforms(column: ColumnLike, values: np.ndarray) -> ColumnTransforms:
    if isinstance(column, ColumnTransforms):
        return column
    return column_transforms(values)


def _mass(s: np.ndarray) -> np.ndarray:
    """The one mass reduction: row sums of max(s, 0)^2, squaring ``s`` in place.

    max(x + y, 0)^2 equals I(x > -y) * (x + y)^2 exactly: a rounded sum of
    two doubles is positive exactly when the true sum is. A row's pairwise
    sum is the same alone or in a batch (never ``einsum`` or ``dot``).
    """
    np.maximum(s, 0.0, out=s)
    s *= s
    return s.sum(axis=-1)


def _masses(
    x_dec: np.ndarray, y_dec: np.ndarray, y_inc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The trade-off's two masses, ``above`` and ``below``; see the module docstring.

    Either side may be a batch with one row per column.
    """
    s = np.add(x_dec, y_dec)
    return _mass(s), _mass(np.subtract(x_dec, y_inc, out=s))


def _ratio(numerator, denominator) -> tuple[np.ndarray, np.ndarray]:
    """numerator / denominator, and the mask of zero denominators (value 0)."""
    # Counts may arrive as Python ints, whose == gives a Python bool and
    # whose ~ is not a logical not; np.logical_not handles every type.
    degenerate = denominator == 0.0
    out = np.zeros(np.shape(denominator))
    value = np.divide(numerator, denominator, out=out, where=np.logical_not(degenerate))
    return value, degenerate


def _tradeoff(above: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(above - below) / (above + below), and the mask of zero denominators (value 0)."""
    return _ratio(above - below, above + below)


def _coefficient(value: np.ndarray, degenerate: np.ndarray) -> CoefficientValue:
    return CoefficientValue(float(value), bool(degenerate))


def _iota(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The trade-off of X to Y: ``x`` starts with x~, ``y`` is (y~dec, y~inc)."""
    return _tradeoff(*_masses(x[0], *y))


def _orientations(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """iota of (X, Y), (Y, X), (-X, Y) and (-Y, X) on a last axis of 4, from four masses.

    With dec(-X) = -inc(X), ``above`` is (P, P, R, Q) and ``below`` is
    (Q, R, S, S) for P = mass(decX + decY), Q = mass(decX - incY),
    R = mass(decY - incX) and S = mass(-incX - incY). a - b equals (-b) + a
    exactly, so each is the mass :func:`_iota` forms, bit for bit. The other
    four sign combinations are these four negated, exactly.
    """
    (x_dec, x_inc), (y_dec, y_inc) = x, y
    work = np.add(x_dec, y_dec)
    p = _mass(work)
    q = _mass(np.subtract(x_dec, y_inc, out=work))
    r = _mass(np.subtract(y_dec, x_inc, out=work))
    np.negative(x_inc, out=work)
    s = _mass(np.subtract(work, y_inc, out=work))
    return _tradeoff(np.stack([p, p, r, q], axis=-1), np.stack([q, r, s, s], axis=-1))


def _max_iota_sq(values: np.ndarray, degenerate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest square of :func:`_orientations`, and where every orientation is degenerate.

    ``max`` is exact, so the order of the orientations does not matter.
    """
    return np.square(values).max(axis=-1), degenerate.all(axis=-1)


def _correlation(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of :func:`ranks.centred` columns and the mask of constant pairs.

    Constant columns give a degenerate zero.
    """
    (cx, vx), (cy, vy) = x, y
    value, degenerate = _ratio(dots(cx, cy), np.sqrt(vx * vy))
    return np.minimum(np.maximum(value, -1.0), 1.0), degenerate


def _never_degenerate(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return value, np.zeros(np.shape(value), dtype=bool)


def _p_leq(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    (xv,), (yv,) = x, y
    return _never_degenerate(np.count_nonzero(xv <= yv, axis=-1) / xv.shape[-1])


def _concordance(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(concordant - discordant) / m for x_i <= y_i."""
    (xv,), (yv,) = x, y
    m = xv.shape[-1]
    return _never_degenerate((2 * np.count_nonzero(xv <= yv, axis=-1) - m) / m)


def _raw_indicator(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    (xv,), (yv,) = x, y
    return _tradeoff(np.count_nonzero(xv > -yv, axis=-1), np.count_nonzero(xv > yv, axis=-1))


def _raw_squared(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_iota` with raw values as both transforms, scaled so no square overflows.

    The scale is the exact power of two that puts the pair's largest |value| in
    [0.5, 1); it cancels in the ratio.
    """
    (xv,), (yv,) = x, y
    largest = np.maximum(np.abs(xv).max(axis=-1), np.abs(yv).max(axis=-1))
    exponent = -np.frexp(largest)[1][..., None]
    ys = np.ldexp(yv, exponent)
    return _iota((np.ldexp(xv, exponent),), (ys, ys))


class Metric(NamedTuple):
    """A metric as ``kernel(prepare(x), prepare(y))``; see the module docstring."""

    prepare: Callable[..., tuple]
    kernel: Callable[[tuple, tuple], tuple[np.ndarray, np.ndarray]]
    ranked: bool


def _values(values: np.ndarray) -> tuple[np.ndarray]:
    return (values,)


#: The one metric table: every metric identifier, in CLI order.
METRIC_TABLE: dict[str, Metric] = {
    "pearson": Metric(centred, _correlation, ranked=False),
    "spearman": Metric(lambda t: t.centred, _correlation, ranked=True),
    "iota": Metric(lambda t: t.oriented(1), _iota, ranked=True),
    # iota2(X, Y) == iota(-Y, -X), on the transforms of -X.
    "iota2": Metric(lambda t: t.oriented(-1), lambda x, y: _iota(y, x), ranked=True),
    "max_iota_sq": Metric(
        lambda t: t.oriented(1), lambda x, y: _max_iota_sq(*_orientations(x, y)), ranked=True
    ),
    "minrel_simple": Metric(_values, _concordance, ranked=False),
    "p_leq_hat": Metric(_values, _p_leq, ranked=False),
    "iota_raw_indicator": Metric(_values, _raw_indicator, ranked=False),
    "iota_raw_squared": Metric(_values, _raw_squared, ranked=False),
}

#: Metric identifiers usable with :func:`evaluate_metric` and the CLI.
METRICS = tuple(METRIC_TABLE)


def _pair(metric: str, x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """A metric of one column pair: one call of its kernel."""
    prepare, kernel, ranked = METRIC_TABLE[metric]
    x, y = _pair_columns(x, y, ranked)
    return _coefficient(*kernel(prepare(x), prepare(y)))


def evaluate_metric(x: ColumnLike, y: ColumnLike, metric: str) -> CoefficientValue:
    """Apply a metric identifier from :data:`METRICS` to a column pair."""
    if metric not in METRIC_TABLE:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return _pair(metric, x, y)


def p_leq_hat(x: ColumnLike, y: ColumnLike) -> float:
    """Fraction of sample points with x_i <= y_i."""
    return _pair("p_leq_hat", x, y).value


def minrel_simple(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Concordant-minus-discordant count for x_i <= y_i, scaled to [-1, 1]."""
    return _pair("minrel_simple", x, y)


def iota_raw_indicator(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Pure-count trade-off between violations of x <= -y and of x <= y.

    Assumes the caller centered the inputs; no normalization is applied.
    """
    return _pair("iota_raw_indicator", x, y)


def iota_raw_squared(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Squared-distance-weighted trade-off on raw (caller-centered) values."""
    return _pair("iota_raw_squared", x, y)


def rank_minrelation(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """The rank minrelation coefficient of X to Y.

    High (near +1) when Y rarely drops below X after both marginals are
    mapped to triangular squared ranks; near -1 when the same holds against
    -Y; near 0 for independent columns. Constant columns are legal (all-tied
    ranks) and flagged degenerate only if both trade-off masses vanish.
    """
    return _pair("iota", x, y)


def _require_sign(sign: int, name: str) -> int:
    if sign not in (1, -1):
        raise InvalidInputError(f"{name} must be +1 or -1, got {sign!r}")
    return int(sign)


def iota_oriented(
    x: ColumnLike, y: ColumnLike, sign_x: int = 1, sign_y: int = 1
) -> CoefficientValue:
    """rank_minrelation of (sign_x * X, sign_y * Y).

    Flipping ``sign_y`` negates the result exactly; flipping ``sign_x``
    generally does not (the measure is asymmetric).
    """
    sx = _require_sign(sign_x, "sign_x")
    sy = _require_sign(sign_y, "sign_y")
    tx, ty = _pair_columns(x, y, ranked=True)
    return _coefficient(*_iota(tx.oriented(sx), ty.oriented(sy)))


def iota2(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Sibling coefficient trading p(X<=Y) against p(-X<=Y).

    Computed through its exact identity with the main coefficient:
    iota2(X, Y) == rank_minrelation(-Y, -X).
    """
    return _pair("iota2", x, y)


def minrel_profile(x: ColumnLike, y: ColumnLike) -> MinrelProfile:
    """All four tabulated orientations plus their maximal square.

    One call of :func:`_orientations` and :func:`_max_iota_sq`, the
    ``max_iota_sq`` kernel, so the square equals :func:`max_iota_sq`.
    """
    tx, ty = _pair_columns(x, y, ranked=True)
    values, degenerate = _orientations(tx.oriented(1), ty.oriented(1))
    best, _ = _max_iota_sq(values, degenerate)
    return MinrelProfile(*map(_coefficient, values, degenerate), float(best))


def max_iota_sq(x: ColumnLike, y: ColumnLike) -> float:
    """Direction-free relevance score: the largest squared oriented value.

    Maximum of iota(X,Y)^2, iota(Y,X)^2, iota(-X,Y)^2 and iota(-Y,X)^2; the
    remaining sign combinations are redundant by exact negation symmetry.
    Symmetric in its arguments.
    """
    return _pair("max_iota_sq", x, y).value


def pearson(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Product-moment correlation; constant columns yield a degenerate zero."""
    return _pair("pearson", x, y)


def spearman(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Rank correlation: Pearson applied to tie-averaged fractional ranks."""
    return _pair("spearman", x, y)
