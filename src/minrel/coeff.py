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

Every metric, the raw trade-offs and the Pearson and Spearman baselines
included, is one :data:`METRIC_TABLE` entry ``Metric(prepare, kernel, pair)``:

- ``prepare`` maps one column's :class:`ColumnTransforms` to a tuple of
  arrays. A column is sorted, once, exactly when a ``prepare`` reads a
  rank view; a metric on raw values reads ``values`` and never sorts.
- ``kernel(x, y)`` takes two prepared columns and returns ``(values,
  degenerate)`` arrays. Either side may be a batch, a column per row: every
  reduction runs over the last axis, and a row reduces as it does alone.
- ``pair(x, y)``, for an asymmetric metric that a matrix takes, returns the
  kernel's result on (x, y), then on (y, x), from one call; else it is None.

A two-column call and an experiment's block of repetitions
(:mod:`minrel.experiments`) are each one call of that kernel, and a matrix
cell (:mod:`minrel.matrix`) or a ranking score (:mod:`minrel.ranking`) the
same operations on the same operands, so they agree bit for bit. Every iota
value, of any of the eight signed orientations, is one :func:`_orientations`
call on (dec, inc) transforms, which forms each of four masses at most once.
All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, require_choice, require_sign
from .ranks import ColumnLike, ColumnTransforms, as_column, dots


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


def _pair_columns(x: ColumnLike, y: ColumnLike) -> tuple[ColumnTransforms, ColumnTransforms]:
    """Both columns through :func:`ranks.as_column`, checked for equal length."""
    x, y = as_column(x, "x"), as_column(y, "y")
    if x.m != y.m:
        raise InvalidInputError(f"columns differ in length: {x.m} vs {y.m}")
    return x, y


def _mass(s: np.ndarray) -> np.ndarray:
    """Row sums of max(s, 0)^2 by :func:`ranks.dots`, clipping and squaring ``s`` in place.

    max(x + y, 0)^2 equals I(x > -y) * (x + y)^2 exactly: a rounded sum of
    two doubles is positive exactly when the true sum is.
    """
    np.maximum(s, 0.0, out=s)
    return dots(s, s, out=s)


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


#: The operand of each mass, from (dec, inc) parts x and y, written to ``out`` (None: a new array).
_OPERANDS = {
    "P": lambda x, y, out: np.add(x[0], y[0], out=out),
    "Q": lambda x, y, out: np.subtract(x[0], y[1], out=out),
    "R": lambda x, y, out: np.subtract(y[0], x[1], out=out),
    "S": lambda x, y, out: np.subtract(np.negative(x[1], out=out), y[1], out=out),
}


def _orientations(x: tuple, y: tuple, which: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """iota of the orientations ``which`` of (dec, inc) parts x and y, in order, on a last axis.

    Orientation k, (X, Y), (Y, X), (-X, Y), (-Y, X), (X, -Y), (Y, -X), (-X, -Y)
    or (-Y, -X), trades mass ``"PPRQQRSS"[k]`` against ``"QRSSPPRQ"[k]`` of the
    :data:`_OPERANDS`, as dec(-X) = -inc(X) and inc(-X) = -dec(X). Each mass is
    formed once, if used, in one work array that the first allocates (never S,
    which every orientation pairs with another); (X, Y) reads only ``x[0]``,
    ``y[0]`` and ``y[1]``. Negation is exact, + commutes and a - b is a + (-b),
    so each value has the bits of the trade-off on the signed transforms, and
    orientation k on (y, x) is ``k ^ 1`` on (x, y): P and S are symmetric, Q and R swap.
    """
    names = ["PPRQQRSS"[k] for k in which] + ["QRSSPPRQ"[k] for k in which]
    work, mass = None, {}
    for name in "PQRS":
        if name in names:
            work = _OPERANDS[name](x, y, work)
            mass[name] = _mass(work)
    masses = np.empty(work.shape[:-1] + (len(names),))  # filled: np.stack costs more on a pair
    for i, name in enumerate(names):
        masses[..., i] = mass[name]
    return _tradeoff(masses[..., : len(which)], masses[..., len(which) :])


def _each(x: tuple, y: tuple, *which: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """:func:`_orientations` as one (values, degenerate) pair per orientation of ``which``."""
    values, degenerate = _orientations(x, y, which)
    return tuple((values[..., i], degenerate[..., i]) for i in range(len(which)))


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
    """iota of X to Y with raw values as both transforms, scaled so no square overflows.

    The scale is the exact power of two that puts the pair's largest |value| in
    [0.5, 1); it cancels in the ratio.
    """
    (xv,), (yv,) = x, y
    largest = np.maximum(np.abs(xv).max(axis=-1), np.abs(yv).max(axis=-1))
    exponent = -np.frexp(largest)[1][..., None]
    ys = np.ldexp(yv, exponent)
    return _each((np.ldexp(xv, exponent),), (ys, ys), 0)[0]


class Metric(NamedTuple):
    """A metric as ``kernel(prepare(x), prepare(y))``; see the module docstring."""

    prepare: Callable[[ColumnTransforms], tuple]
    kernel: Callable[[tuple, tuple], tuple[np.ndarray, np.ndarray]]
    pair: Callable[[tuple, tuple], tuple] | None = None


def _iota(k: int) -> Metric:
    """Orientation k of :func:`_orientations`; its pair adds cell (y, x), orientation k ^ 1."""
    return Metric(_transforms, lambda x, y: _each(x, y, k)[0], lambda x, y: _each(x, y, k, k ^ 1))


def _values(t: ColumnTransforms) -> tuple[np.ndarray]:
    return (t.values,)


#: The (dec, inc) parts of a :class:`ColumnTransforms`, which :func:`_orientations` reads.
_transforms = attrgetter("dec", "inc")

#: The one metric table: every metric identifier, in CLI order.
METRIC_TABLE: dict[str, Metric] = {
    "pearson": Metric(lambda t: t.centred_values, _correlation),
    "spearman": Metric(lambda t: t.centred, _correlation),
    "iota": _iota(0),
    "iota2": _iota(7),  # iota(-Y, -X)
    "max_iota_sq": Metric(
        _transforms, lambda x, y: _max_iota_sq(*_orientations(x, y, (0, 1, 2, 3)))
    ),
    "minrel_simple": Metric(
        _values, _concordance, lambda x, y: (_concordance(x, y), _concordance(y, x))
    ),
    "p_leq_hat": Metric(_values, _p_leq),
    "iota_raw_indicator": Metric(_values, _raw_indicator),
    "iota_raw_squared": Metric(_values, _raw_squared),
}

#: Metric identifiers usable with :func:`evaluate_metric` and the CLI.
METRICS = tuple(METRIC_TABLE)


def _evaluate(
    metric: str, x: ColumnTransforms, y: ColumnTransforms
) -> tuple[np.ndarray, np.ndarray]:
    """One call of a metric's kernel, on two columns or two batches of them."""
    prepare, kernel, _ = METRIC_TABLE[metric]
    return kernel(prepare(x), prepare(y))


def _pair(metric: str, x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    return _coefficient(*_evaluate(metric, *_pair_columns(x, y)))


def evaluate_metric(x: ColumnLike, y: ColumnLike, metric: str) -> CoefficientValue:
    """Apply a metric identifier from :data:`METRICS` to a column pair."""
    return _pair(require_choice(metric, METRICS, "metric"), x, y)


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


def iota_oriented(
    x: ColumnLike, y: ColumnLike, sign_x: int = 1, sign_y: int = 1
) -> CoefficientValue:
    """rank_minrelation of (sign_x * X, sign_y * Y).

    Flipping ``sign_y`` negates the result exactly; flipping ``sign_x``
    generally does not (the measure is asymmetric).
    """
    k = (1 - require_sign(sign_x, "sign_x")) + 2 * (1 - require_sign(sign_y, "sign_y"))
    return _coefficient(*_each(*map(_transforms, _pair_columns(x, y)), k)[0])


def iota2(x: ColumnLike, y: ColumnLike) -> CoefficientValue:
    """Sibling coefficient trading p(X<=Y) against p(-X<=Y).

    Orientation (-Y, -X) of the main coefficient, exactly:
    iota2(X, Y) == rank_minrelation(-Y, -X).
    """
    return _pair("iota2", x, y)


def minrel_profile(x: ColumnLike, y: ColumnLike) -> MinrelProfile:
    """All four tabulated orientations plus their maximal square.

    One call of :func:`_orientations` and :func:`_max_iota_sq`, the
    ``max_iota_sq`` kernel, so the square equals :func:`max_iota_sq`.
    """
    values, degenerate = _orientations(*map(_transforms, _pair_columns(x, y)), (0, 1, 2, 3))
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
