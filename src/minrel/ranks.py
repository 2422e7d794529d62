"""Fractional ranking and the triangular squared-rank marginal transforms.

Everything downstream works on ranks rather than raw values: a column is
first mapped to tie-averaged ranks r in [1, m], then bent into a triangular
marginal by squaring,

    decreasing:  r(X)^2 / m^2 - 0.5     (mean -> -1/6, mass piles up low)
    increasing:  0.5 - r(-X)^2 / m^2    (mean -> +1/6, mass piles up high)

where r(-X) ranks the negated values. Both transforms land in [-0.5, 0.5]
and mirror each other exactly: ``increasing(X) == -decreasing(-X)``
elementwise, bit for bit.

These are the views ``ranks``, ``dec`` and ``inc`` of a
:class:`ColumnTransforms`, the one public way to build them; ``ranks / m``
is the uniform normalization and ``(m + 1) - ranks`` the ranks r(-X).
:class:`ColumnTransforms` is the one column type: a column, or a batch
stored as one (n, m) array, a column per row, each row with the bits of its
column's views (every view works along the last axis). It keeps one checked
read-only copy of its samples and builds each view on first use from one
ranking, one sort call per :func:`row_blocks` block of :data:`_BLOCK_BYTES`.
:func:`each` is the one walk over blocks or rows: the rank pass, a matrix and
a ranking deal their items to threads from :data:`_THREAD_WORK` on. Tied
ranks are half-integers, so r(-X) = m + 1 - r(X) holds exactly; untied, a
rank is its sorted position. Spearman centres ranks at their exact mean
(m+1)/2. Every function that takes a column goes through :func:`as_column`,
which keeps a given :class:`ColumnTransforms`, so it is sorted once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from threading import Thread
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .errors import InvalidInputError

ColumnLike = Union["ColumnTransforms", np.ndarray, Sequence[float]]


def as_float_array(data, what: str) -> np.ndarray:
    """``data`` as a float array; :class:`InvalidInputError` if a cell is not a number."""
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as error:
        raise InvalidInputError(f"{what} must hold numbers: {error}") from None


#: Bytes of one block of rows: a batch is ranked with one sort call per block.
_BLOCK_BYTES = 256 * 1024


def row_blocks(n: int, m: int, budget: int, start: int = 0) -> Iterator[slice]:
    """Slices of rows ``start`` to n in order, max(1, budget // (8 m)) rows each but the last."""
    width = max(1, budget // (8 * m))
    return (slice(i, min(i + width, n)) for i in range(start, n, width))


#: Work (cells times rows) per thread: 2 threads lost at 750 000 on cheap kernels, won at 1e6.
_THREAD_WORK = 400_000


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity, where the platform reports one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def each(fn: Callable, items: Sequence, work: int) -> None:
    """``fn(item)`` per item, dealt in turn to min(CPUs, items, work // _THREAD_WORK or 1) threads.

    The caller runs the first share, and once every share has ended raises the
    first exception one raised. ``fn`` writes only storage no other item writes.
    """
    threads = min(_available_cpus(), len(items), max(1, work // _THREAD_WORK))
    errors = []

    def share(t: int) -> None:
        try:
            for item in items[t::threads]:
                fn(item)
        except BaseException as error:  # raised in the caller, after every join
            errors.append(error)

    workers = [Thread(target=share, args=(t,)) for t in range(1, threads)]
    for worker in workers:
        worker.start()
    share(0)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def _finite_copy(rows, names: Sequence[str]) -> np.ndarray:
    """A read-only float copy of one column or (n, m) rows; the first non-finite cell raises."""
    values = np.array(rows, dtype=float, order="C")
    finite = np.isfinite(values)
    if not finite.all():  # row by row, as row i is named names[i]
        r, i = divmod(int(finite.argmin()), values.shape[-1])
        raise InvalidInputError(f"{names[r] or 'column'} contains a non-finite value at index {i}")
    return _frozen(values)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` as a read-only C-contiguous array, copied only if it is not contiguous."""
    array = np.ascontiguousarray(array)
    array.setflags(write=False)
    return array


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, each row alone; tied values share the average rank.

    A run of k equal values occupying sorted positions p..p+k-1 all receive
    rank (2p+k-1)/2, which keeps the total rank mass at m(m+1)/2 exactly.
    The ranks depend only on the sorted values, never on the order within a
    run of ties (-0.0 and 0.0 compare equal), so the sort need not be stable.
    Without ties a rank is its sorted position p, bit for bit (p + p)/2.
    """
    m = values.shape[-1]
    order = np.argsort(values, axis=-1)  # then indices into the flat values, row after row
    order += np.arange(0, values.size, m).reshape(values.shape[:-1] + (1,))
    sorted_values = values.reshape(-1)[order]
    new_group = np.empty(order.shape, dtype=bool)
    new_group[..., 0] = True
    np.not_equal(sorted_values[..., 1:], sorted_values[..., :-1], out=new_group[..., 1:])
    ranks = np.empty(values.shape)
    if new_group.all():
        ranks.reshape(-1)[order] = np.arange(1.0, m + 1)
    else:
        starts = np.flatnonzero(new_group)  # flat; rows start groups, so p = start % m + 1
        counts = np.diff(starts, append=new_group.size)
        averages = (2 * (starts % m) + counts + 1) / 2.0
        ranks.reshape(-1)[order] = np.repeat(averages, counts).reshape(order.shape)
    return ranks


@dataclass(frozen=True, eq=False)
class ColumnTransforms:
    """One variable's samples, finite reals and at least two, and every view of them.

    The constructor checks ``values`` and keeps a read-only copy, which no later
    change to the source reaches; ``name`` labels the column in error messages.
    ``_batch`` checks and copies a batch, a column per row, and ``_checked``
    wraps checked values, such as a row, sharing no view. Each view is built on
    first use, kept and read-only. The ranks of -X are exactly m + 1 - r(X),
    and dec(-X) == -inc(X) and inc(-X) == -dec(X), so no view of -X is built.
    Two threads first reading a view at once may both build it, with the same bits.
    """

    values: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        what = self.name or "column"
        values = as_float_array(self.values, what)
        if values.ndim != 1:
            raise InvalidInputError(f"{what} must be one-dimensional, got shape {values.shape}")
        if values.size < 2:
            raise InvalidInputError(f"{what} needs at least 2 samples, got {values.size}")
        object.__setattr__(self, "values", _finite_copy(values, (what,)))

    @classmethod
    def _checked(cls, values: np.ndarray, name: str | None = None) -> ColumnTransforms:
        """Checked read-only ``values`` as a column or batch named ``name``: no copy, no check."""
        column = object.__new__(cls)
        vars(column).update(values=values, name=name)
        return column

    @classmethod
    def _batch(cls, rows, names: Sequence[str]) -> ColumnTransforms:
        """n float rows of one length m >= 2 (an array or arrays), row i named ``names[i]``."""
        return cls._checked(_finite_copy(rows, names))

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def ranks(self) -> np.ndarray:
        """:func:`fractional_ranks` of each row, one call per block of rows of ``_BLOCK_BYTES``."""
        rows = self.values.reshape(-1, self.m)
        ranks = np.empty(rows.shape)

        def rank(block: slice) -> None:
            ranks[block] = fractional_ranks(rows[block])

        each(rank, list(row_blocks(len(rows), self.m, _BLOCK_BYTES)), rows.size)
        return _frozen(ranks.reshape(self.values.shape))

    @cached_property
    def dec(self) -> np.ndarray:
        return _frozen(decreasing_scores_from_ranks(self.ranks, self.m))

    @cached_property
    def inc(self) -> np.ndarray:
        return _frozen(increasing_scores_from_ranks(r := (self.m + 1) - self.ranks, self.m, out=r))

    @cached_property
    def centred_values(self) -> tuple[np.ndarray, np.ndarray]:
        """The values as a :func:`centred` column (for Pearson)."""
        return centred(self.values)

    @cached_property
    def centred(self) -> tuple[np.ndarray, np.ndarray]:
        """The ranks as a :func:`centred` column (for Spearman)."""
        # Twice each rank is an integer and the ranks sum to m(m+1)/2, so while
        # m(m+1) < 2^53 every partial sum of centred()'s pre-scaled mean is exact
        # and the mean is exactly (m+1)/2 times the scale. Powers of two commute
        # with the subtraction here: centring at (m+1)/2 gives the same bits.
        return _centred_about(self.ranks, (self.m + 1) / 2)


def as_column(data: ColumnLike, what: str = "column") -> ColumnTransforms:
    """``data`` as a :class:`ColumnTransforms` named ``what``; a given one is kept as it is."""
    return data if isinstance(data, ColumnTransforms) else ColumnTransforms(data, what)


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` times the exact power of two that puts its max |v| in [0.5, 1)."""
    return np.ldexp(values, -np.frexp(np.abs(values).max(axis=-1, keepdims=True))[1])


def dots(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of a * b, the product written to ``out`` if given: every mass and correlation.

    numpy's pairwise row ``sum`` reduces each row of a batch as it would alone;
    BLAS, whose summation order follows its thread count, never sets a bit.
    """
    return np.multiply(a, b, out=out).sum(axis=-1)


def centred(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column, or each row of a batch, minus its mean, scaled, and its squared norm.

    The scaling is by exact powers of two that put max |v| in [0.5, 1):
    before centring, so the mean cannot overflow, and after it, so no
    product overflows or underflows. It cancels in a correlation: wherever
    the unscaled computation neither overflows nor underflows, the result is
    the same, bit for bit.
    """
    scaled = _unit_scaled(values)
    return _centred_about(scaled, scaled.mean(axis=-1, keepdims=True))


def _centred_about(values: np.ndarray, centre: float) -> tuple[np.ndarray, np.ndarray]:
    column = _unit_scaled(values - centre)
    return column, dots(column, column)


def decreasing_scores_from_ranks(ranks: np.ndarray, m: int) -> np.ndarray:
    """r^2/m^2 - 0.5 for increasing-order ranks r, in one new array."""
    scores = ranks * ranks
    return np.subtract(np.divide(scores, float(m * m), out=scores), 0.5, out=scores)


def increasing_scores_from_ranks(
    negated_ranks: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """0.5 - r^2/m^2 for the ranks r of the negated column, into ``out`` or else a new array."""
    scores = np.multiply(negated_ranks, negated_ranks, out=out)
    return np.subtract(0.5, np.divide(scores, float(m * m), out=scores), out=scores)
