"""Bivariate dependence coefficients.

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

Raw (untransformed) variants of the trade-off plus Pearson and Spearman
baselines live here as well. All functions are pure and thread-safe.
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


def _pair_transforms(
    x: ColumnLike, y: ColumnLike
) -> tuple[ColumnTransforms, ColumnTransforms]:
    """Both columns' transforms; a column given as its transforms is not re-ranked."""
    xv, yv = _pair_values(x, y)
    return _transforms(x, xv), _transforms(y, yv)


def _transforms(column: ColumnLike, values: np.ndarray) -> ColumnTransforms:
    if isinstance(column, ColumnTransforms):
        return column
    return column_transforms(values)


def _p_leq(xv: np.ndarray, yv: np.ndarray) -> float:
    return float(np.count_nonzero(xv <= yv)) / xv.size


def _minrel_simple(xv: np.ndarray, yv: np.ndarray) -> CoefficientValue:
    return CoefficientValue(float(_concordance(xv, yv)))


def _concordance(xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """(concordant - discordant) / m for x_i <= y_i; either side may be a batch."""
    m = xv.shape[-1]
    concordant = np.count_nonzero(xv <= yv, axis=-1)
    return (2 * concordant - m) / m


def _raw_indicator(xv: np.ndarray, yv: np.ndarray) -> CoefficientValue:
    above = np.count_nonzero(xv > -yv)
    below = np.count_nonzero(xv > yv)
    return _coefficient(*_tradeoff(above, below))


def _raw_squared(xv: np.ndarray, yv: np.ndarray) -> CoefficientValue:
    return _minrel_from_scores(xv, yv, yv)


def p_leq_hat(x: ColumnLike, y: ColumnLike) -> float:
    """Fraction of sample points with x_i <= y_i."""
    return _p_leq(*_pair_values(x, y))


def minrel_simple(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Concordant-minus-discordant count for x_i <= y_i, scaled to [-1, 1]."""
    return _minrel_simple(*_pair_values(x, y))


def iota_raw_indicator(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Pure-count trade-off between violations of x <= -y and of x <= y.

    Assumes the caller centered the inputs; no normalization is applied.
    """
    return _raw_indicator(*_pair_values(x, y))


def iota_raw_squared(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Squared-distance-weighted trade-off on raw (caller-centered) values."""
    return _raw_squared(*_pair_values(x, y))


def _masses(
    x_dec: np.ndarray, y_dec: np.ndarray, y_inc: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The trade-off's two masses, ``above`` and ``below``; see the module docstring.

    Either side may be a batch with one row per column, and ``out`` (of
    the batch's shape) is used as scratch when given. Each term is
    max(x + y, 0)^2, which equals I(x > -y) * (x + y)^2 exactly: a rounded
    sum of two doubles is positive exactly when the true sum is. The sums
    run over the last axis, and a row's pairwise sum is the same whether it
    is reduced alone or in a batch, so a matrix cell and a direct call agree
    bit for bit.
    """
    s = np.add(x_dec, y_dec, out=out)
    np.maximum(s, 0.0, out=s)
    s *= s
    above = s.sum(axis=-1)
    np.subtract(x_dec, y_inc, out=s)
    np.maximum(s, 0.0, out=s)
    s *= s
    return above, s.sum(axis=-1)


def _tradeoff(above: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(above - below) / (above + below), and the mask of zero denominators (value 0)."""
    total = above + below
    # Counts may arrive as Python ints, whose == gives a Python bool and
    # whose ~ is not a logical not; np.logical_not handles every type.
    degenerate = total == 0.0
    value = np.divide(
        above - below, total, out=np.zeros(np.shape(total)), where=np.logical_not(degenerate)
    )
    return value, degenerate


def _coefficient(value: np.ndarray, degenerate: np.ndarray) -> CoefficientValue:
    return CoefficientValue(float(value), bool(degenerate))


def _minrel_from_scores(
    x_dec: np.ndarray, y_dec: np.ndarray, y_inc: np.ndarray
) -> CoefficientValue:
    """Core trade-off kernel on one column pair.

    ``y_dec`` weighs agreement against the anti-diagonal, ``y_inc`` weighs
    violations of the diagonal. Passing the same array for both reproduces
    the raw squared form.
    """
    return _coefficient(*_tradeoff(*_masses(x_dec, y_dec, y_inc)))


def _oriented(
    x: ColumnTransforms, y: ColumnTransforms, sign_x: int = 1, sign_y: int = 1
) -> CoefficientValue:
    """The coefficient of (sign_x * X, sign_y * Y) from cached transforms."""
    x_dec = x.neg_dec if sign_x < 0 else x.dec
    y_dec, y_inc = y.oriented(sign_y)
    return _minrel_from_scores(x_dec, y_dec, y_inc)


def _iota2(x: ColumnTransforms, y: ColumnTransforms) -> CoefficientValue:
    # iota2(X, Y) == rank_minrelation(-Y, -X)
    return _oriented(y, x, -1, -1)


def _profile(x: ColumnTransforms, y: ColumnTransforms) -> MinrelProfile:
    xy = _oriented(x, y)
    yx = _oriented(y, x)
    negx_y = _oriented(x, y, -1)
    negy_x = _oriented(y, x, -1)
    best = max(v.value * v.value for v in (xy, yx, negx_y, negy_x))
    return MinrelProfile(xy, yx, negx_y, negy_x, best)


def _max_iota_sq(x: ColumnTransforms, y: ColumnTransforms) -> CoefficientValue:
    # Degenerate only when every orientation is.
    profile = _profile(x, y)
    return CoefficientValue(
        profile.max_iota_sq,
        degenerate=all(v.degenerate for v in profile.oriented_values()),
    )


def _spearman(x: ColumnTransforms, y: ColumnTransforms) -> CoefficientValue:
    return _coefficient(*_correlation(*x.centred, *y.centred))


def rank_minrelation(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """The rank minrelation coefficient of X to Y.

    High (near +1) when Y rarely drops below X after both marginals are
    mapped to triangular squared ranks; near -1 when the same holds against
    -Y; near 0 for independent columns. Constant columns are legal (all-tied
    ranks) and flagged degenerate only if both trade-off masses vanish.
    """
    return _oriented(*_pair_transforms(x, y))


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
    return _oriented(*_pair_transforms(x, y), sx, sy)


def iota2(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Sibling coefficient trading p(X<=Y) against p(-X<=Y).

    Computed through its exact identity with the main coefficient:
    iota2(X, Y) == rank_minrelation(-Y, -X).
    """
    return _iota2(*_pair_transforms(x, y))


def minrel_profile(x: ColumnLike, y: ColumnLike) -> MinrelProfile:
    """All four tabulated orientations plus their maximal square."""
    return _profile(*_pair_transforms(x, y))


def max_iota_sq(x: ColumnLike, y: ColumnLike) -> float:
    """Direction-free relevance score: the largest squared oriented value.

    Maximum of iota(X,Y)^2, iota(Y,X)^2, iota(-X,Y)^2 and iota(-Y,X)^2; the
    remaining sign combinations are redundant by exact negation symmetry.
    Symmetric in its arguments.
    """
    return minrel_profile(x, y).max_iota_sq


def _correlation(
    cx: np.ndarray, vx: np.ndarray, cy: np.ndarray, vy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of centred columns and the mask of constant pairs.

    Either side may be a batch of :func:`ranks.centred` columns, one per
    row. Constant columns give a degenerate zero.
    """
    scale = np.sqrt(vx * vy)
    degenerate = scale == 0.0
    value = np.divide(
        dots(cx, cy), scale, out=np.zeros(np.shape(scale)), where=np.logical_not(degenerate)
    )
    return np.minimum(np.maximum(value, -1.0), 1.0), degenerate


def _pearson_kernel(xv: np.ndarray, yv: np.ndarray) -> CoefficientValue:
    return _coefficient(*_correlation(*centred(xv), *centred(yv)))


def pearson(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Product-moment correlation; constant columns yield a degenerate zero."""
    return _pearson_kernel(*_pair_values(x, y))


def spearman(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Rank correlation: Pearson applied to tie-averaged fractional ranks."""
    return _spearman(*_pair_transforms(x, y))


class Metric(NamedTuple):
    """A metric as a function of two prepared columns.

    A ``ranked`` metric's pair function takes both columns'
    :class:`ColumnTransforms`; the others take the raw value arrays and
    never sort.
    """

    pair: Callable[..., CoefficientValue]
    ranked: bool


#: The one metric table: every metric identifier, in CLI order.
METRIC_TABLE: dict[str, Metric] = {
    "pearson": Metric(_pearson_kernel, ranked=False),
    "spearman": Metric(_spearman, ranked=True),
    "iota": Metric(_oriented, ranked=True),
    "iota2": Metric(_iota2, ranked=True),
    "max_iota_sq": Metric(_max_iota_sq, ranked=True),
    "minrel_simple": Metric(_minrel_simple, ranked=False),
    "p_leq_hat": Metric(lambda xv, yv: CoefficientValue(_p_leq(xv, yv)), ranked=False),
    "iota_raw_indicator": Metric(_raw_indicator, ranked=False),
    "iota_raw_squared": Metric(_raw_squared, ranked=False),
}

#: Metric identifiers usable with :func:`evaluate_metric` and the CLI.
METRICS = tuple(METRIC_TABLE)


def evaluate_metric(x: ColumnLike, y: ColumnLike, metric: str) -> CoefficientValue:
    """Apply a metric identifier from :data:`METRICS` to a column pair."""
    if metric not in METRIC_TABLE:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")
    pair, ranked = METRIC_TABLE[metric]
    return pair(*(_pair_transforms(x, y) if ranked else _pair_values(x, y)))
