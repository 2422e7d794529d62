"""Fractional ranking and the triangular squared-rank marginal transforms.

Everything downstream works on ranks rather than raw values: a column is
first mapped to tie-averaged ranks r in [1, m], then bent into a triangular
marginal by squaring,

    decreasing:  r(X)^2 / m^2 - 0.5     (mean -> -1/6, mass piles up low)
    increasing:  0.5 - r(-X)^2 / m^2    (mean -> +1/6, mass piles up high)

where r(-X) ranks the negated values. Both transforms land in [-0.5, 0.5]
and mirror each other exactly: ``increasing(X) == -decreasing(-X)``
elementwise, bit for bit.

:func:`column_transforms` is the one place that builds them. It sorts each
column once: tie-averaged ranks are half-integers, so r(-X) = m + 1 - r(X)
holds exactly, ties included, and needs no second sort; without ties the ranks
are the sorted positions. Spearman centres ranks at their exact mean (m+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence, Union

import numpy as np

from .errors import InvalidInputError

Direction = Literal["decreasing", "increasing"]

ColumnLike = Union["DataColumn", "ColumnTransforms", np.ndarray, Sequence[float]]


def _validated_values(data, what: str = "column") -> np.ndarray:
    values = np.asarray(data, dtype=float)
    if values.ndim != 1:
        raise InvalidInputError(f"{what} must be one-dimensional, got shape {values.shape}")
    if values.size < 2:
        raise InvalidInputError(f"{what} needs at least 2 samples, got {values.size}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise InvalidInputError(f"{what} contains a non-finite value at index {bad}")
    return values


def as_values(data, what: str = "column") -> np.ndarray:
    """Coerce a column-like object to a validated 1-D float array."""
    if isinstance(data, (DataColumn, ColumnTransforms)):
        return data.values
    return _validated_values(data, what)


@dataclass(frozen=True)
class DataColumn:
    """One variable's samples: finite reals, at least two of them."""

    values: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        values = _validated_values(self.values, self.name or "column").copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RankVector:
    """Tie-averaged 1-based ranks of a column; their sum is always m(m+1)/2."""

    ranks: np.ndarray
    m: int


@dataclass(frozen=True)
class TriangularScores:
    """Squared-rank scores in [-0.5, 0.5] with a triangular marginal."""

    scores: np.ndarray
    direction: Direction


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in increasing order; tied values share the average rank.

    A run of k equal values occupying sorted positions p..p+k-1 all receive
    rank (2p+k-1)/2, which keeps the total rank mass at m(m+1)/2 exactly.
    The ranks depend only on the sorted values, never on the order within a
    run of ties (-0.0 and 0.0 compare equal), so the sort need not be stable.
    Without ties a rank is its sorted position p, bit for bit (p + p)/2.
    """
    order = np.argsort(values)
    sorted_values = values[order]
    new_group = np.empty(values.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_values[1:] != sorted_values[:-1]
    if new_group.all():
        averages, group = np.arange(1.0, values.size + 1), slice(None)
    else:
        group = np.cumsum(new_group) - 1
        counts = np.bincount(group)
        ends = np.cumsum(counts)
        starts = ends - counts + 1
        averages = (starts + ends) / 2.0
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = averages[group]
    return ranks


@dataclass(frozen=True)
class ColumnTransforms:
    """Every rank-derived view of one column, from a single sort.

    ``ranks`` are the fractional ranks r(X); the ranks of the negated column
    are m + 1 - r(X), bit for bit, so they need no second sort. ``neg_dec``
    and ``neg_inc`` are the transforms of -X: flipping a column's sign swaps
    its two transforms and negates them (``neg_dec == -inc``,
    ``neg_inc == -dec``); negation is exact, so they are not stored.
    """

    values: np.ndarray
    ranks: np.ndarray
    dec: np.ndarray
    inc: np.ndarray

    @property
    def neg_dec(self) -> np.ndarray:
        return -self.inc

    @property
    def neg_inc(self) -> np.ndarray:
        return -self.dec

    @cached_property
    def centred(self) -> tuple[np.ndarray, np.ndarray]:
        """The ranks as a :func:`centred` column (for Spearman), built on first use."""
        # Twice each rank is an integer and the ranks sum to m(m+1)/2, so while
        # m(m+1) < 2^53 every partial sum of centred()'s pre-scaled mean is exact
        # and the mean is exactly (m+1)/2 times the scale. Powers of two commute
        # with the subtraction here: centring at (m+1)/2 gives the same bits.
        return _centred_about(self.ranks, (self.ranks.size + 1) / 2)

    def oriented(self, sign: int) -> tuple[np.ndarray, np.ndarray]:
        """The (decreasing, increasing) transforms of ``sign * X``."""
        if sign < 0:
            return self.neg_dec, self.neg_inc
        return self.dec, self.inc


def column_transforms(values: np.ndarray) -> ColumnTransforms:
    """Rank a validated column once and derive every transform from it."""
    m = values.size
    ranks = fractional_ranks(values)
    dec = decreasing_scores_from_ranks(ranks, m)
    inc = increasing_scores_from_ranks((m + 1) - ranks, m)
    return ColumnTransforms(values=values, ranks=ranks, dec=dec, inc=inc)


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    """``values`` times the exact power of two that puts max |v| in [0.5, 1)."""
    return np.ldexp(values, -np.frexp(np.abs(values).max())[1])


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one independent dot per row.

    Unlike a matrix product, each row of a batch reduces exactly as it
    would alone.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def centred(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column minus its mean, scaled, and its squared norm (for correlations).

    The scaling is by exact powers of two that put max |v| in [0.5, 1):
    before centring, so the mean cannot overflow, and after it, so no
    product overflows or underflows. It cancels in a correlation: wherever
    the unscaled computation neither overflows nor underflows, the result is
    the same, bit for bit.
    """
    scaled = _unit_scaled(values)
    return _centred_about(scaled, scaled.mean())


def _centred_about(values: np.ndarray, centre: float) -> tuple[np.ndarray, np.ndarray]:
    column = _unit_scaled(values - centre)
    return column, dots(column, column)


def compute_ranks(column: ColumnLike, negate: bool = False) -> RankVector:
    """Fractional ranks of the column, or of its negation when ``negate``.

    The negated ranks are r(-X) = m + 1 - r(X); tie averaging preserves that
    identity exactly.
    """
    values = as_values(column)
    ranks = fractional_ranks(values)
    if negate:
        ranks = (values.size + 1) - ranks
    return RankVector(ranks=ranks, m=values.size)


def uniform_norm(column: ColumnLike) -> np.ndarray:
    """Ranks rescaled to (0, 1]: r(X)/m, the uniform marginal normalization."""
    ranked = compute_ranks(column)
    return ranked.ranks / float(ranked.m)


def decreasing_scores_from_ranks(ranks: np.ndarray, m: int) -> np.ndarray:
    """r^2/m^2 - 0.5 for increasing-order ranks r."""
    return (ranks * ranks) / float(m * m) - 0.5


def increasing_scores_from_ranks(negated_ranks: np.ndarray, m: int) -> np.ndarray:
    """0.5 - r^2/m^2 for decreasing-order ranks r (ranks of the negated column)."""
    return 0.5 - (negated_ranks * negated_ranks) / float(m * m)


def tri_decreasing(column: ColumnLike) -> TriangularScores:
    """Map a column onto a centered decreasing-triangular marginal."""
    scores = column_transforms(as_values(column)).dec
    return TriangularScores(scores=scores, direction="decreasing")


def tri_increasing(column: ColumnLike) -> TriangularScores:
    """Map a column onto a centered increasing-triangular marginal."""
    scores = column_transforms(as_values(column)).inc
    return TriangularScores(scores=scores, direction="increasing")
