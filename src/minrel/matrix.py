"""Pairwise coefficient matrices over whole datasets.

Each column is ranked and transformed exactly once (one sort per column;
the negated order's ranks are derived from it), and the transforms are
stacked into (n, m) arrays. The n x n pass then runs one vectorised call
per matrix row over every column, with the same kernels the two-column
functions use (:func:`coeff._masses`, :func:`coeff._correlation`), so a
matrix cell equals the direct call bit for bit. Each cell is reduced on
its own (no matrix products), and each row is written into pre-sized
storage, so results are bit-identical for any worker count. The kernels'
large array operations release the interpreter lock, so ``workers``
threads (at most one per available CPU), each taking a contiguous block
of rows, run in parallel.

The four-orientation maps need only two passes: M[i, j] = iota(X_i, X_j)
and N[i, j] = iota(-X_i, X_j). The other two orientations are their
transposes, iota(X_j, X_i) = M[j, i] and iota(-X_j, X_i) = N[j, i].
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .coeff import (
    METRIC_TABLE,
    CoefficientValue,
    MinrelProfile,
    _concordance,
    _correlation,
    _masses,
    _tradeoff,
)
from .errors import InvalidInputError
from .ranks import ColumnTransforms, centred, column_transforms


@dataclass(frozen=True)
class Dataset:
    """Named columns of equal length m >= 2; stored as an (m, n) float array.

    ``rows_dropped`` counts input rows left out of ``values``, such as the
    incomplete rows the CLI reader drops under ``--na drop-rows``.
    """

    names: tuple[str, ...]
    values: np.ndarray
    rows_dropped: int = 0

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise InvalidInputError(f"column names must be unique; {duplicate!r} repeats")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InvalidInputError(f"dataset values must be 2-D, got shape {values.shape}")
        if values.shape[1] != len(names):
            raise InvalidInputError(
                f"{len(names)} names but {values.shape[1]} columns of data"
            )
        if values.shape[0] < 2:
            raise InvalidInputError(f"dataset needs at least 2 rows, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            row, col = (int(k[0]) for k in np.nonzero(~np.isfinite(values)))
            raise InvalidInputError(
                f"non-finite value at row {row}, column {names[col]!r}"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_columns(cls, columns: Mapping[str, Iterable[float]]) -> "Dataset":
        names = tuple(columns)
        arrays = [np.asarray(columns[name], dtype=float) for name in names]
        lengths = {array.shape[0] if array.ndim else 0 for array in arrays}
        if len(lengths) > 1:
            raise InvalidInputError(f"columns differ in length: {sorted(lengths)}")
        return cls(names=names, values=np.column_stack(arrays))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidInputError(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index(name)]


def transform_cache(dataset: Dataset) -> tuple[ColumnTransforms, ...]:
    """Rank and transform every column once; O(n m log m) preprocessing."""
    return tuple(column_transforms(dataset.values[:, j]) for j in range(dataset.n))


@dataclass(frozen=True)
class CoefficientMatrix:
    """n x n coefficient values plus the mask of degenerate cells."""

    metric: str
    names: tuple[str, ...]
    values: np.ndarray
    degenerate: np.ndarray

    def value(self, x_name: str, y_name: str) -> float:
        i = self.names.index(x_name)
        j = self.names.index(y_name)
        return float(self.values[i, j])


@dataclass(frozen=True)
class ProfileMatrix:
    """Four-orientation coefficient maps for every ordered column pair."""

    names: tuple[str, ...]
    iota_xy: np.ndarray
    iota_yx: np.ndarray
    iota_negx_y: np.ndarray
    iota_negy_x: np.ndarray
    max_iota_sq: np.ndarray
    degenerate: np.ndarray  # shape (n, n, 4), one flag per orientation

    def profile(self, x_name: str, y_name: str) -> MinrelProfile:
        i = self.names.index(x_name)
        j = self.names.index(y_name)
        flags = self.degenerate[i, j]
        return MinrelProfile(
            CoefficientValue(float(self.iota_xy[i, j]), bool(flags[0])),
            CoefficientValue(float(self.iota_yx[i, j]), bool(flags[1])),
            CoefficientValue(float(self.iota_negx_y[i, j]), bool(flags[2])),
            CoefficientValue(float(self.iota_negy_x[i, j]), bool(flags[3])),
            float(self.max_iota_sq[i, j]),
        )


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")


#: Scratch per worker for one block of columns' (x + y) terms, in bytes.
_SCRATCH_BYTES = 1 << 21

#: The values of an (n_rows, n) map and its degenerate flags.
_Cells = tuple[np.ndarray, np.ndarray]


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _row_map(
    n_rows: int, n: int, make_row: Callable[[], Callable[[int], _Cells]], workers: int
) -> _Cells:
    """Build a map one row at a time, one contiguous block of rows per worker.

    ``make_row()`` is called once per worker and returns that worker's row
    function, which owns any scratch it needs. At most one thread per
    available CPU runs: more would only add scratch, not speed.
    """
    values = np.empty((n_rows, n))
    degenerate = np.empty((n_rows, n), dtype=bool)

    def run_block(rows: Iterable[int]) -> None:
        row = make_row()
        for i in rows:
            values[i], degenerate[i] = row(i)

    threads = min(workers, _available_cpus())
    blocks = [rows for rows in np.array_split(np.arange(n_rows), threads) if rows.size]
    if len(blocks) <= 1:
        run_block(range(n_rows))
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            list(pool.map(run_block, blocks))
    return values, degenerate


def _iota_map(x_dec: np.ndarray, dec: np.ndarray, inc: np.ndarray, workers: int) -> _Cells:
    """The coefficient of each row of ``x_dec`` to each stacked column.

    Cell [r, j] is iota of the column whose decreasing transform is
    x_dec[r] to column j of the (n, m) transforms ``dec``/``inc``. Columns
    are taken in blocks that keep each worker's scratch at a few MB.
    """
    n, m = dec.shape
    block = max(1, min(n, _SCRATCH_BYTES // (8 * m)))

    def make_row() -> Callable[[int], _Cells]:
        scratch = np.empty((block, m))
        above = np.empty(n)
        below = np.empty(n)

        def row(r: int) -> _Cells:
            for j in range(0, n, block):
                cols = slice(j, min(j + block, n))
                out = scratch[: cols.stop - j]
                above[cols], below[cols] = _masses(x_dec[r], dec[cols], inc[cols], out)
            return _tradeoff(above, below)

        return row

    return _row_map(len(x_dec), n, make_row, workers)


def _stacks(
    cache: Sequence[ColumnTransforms], sign: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The (decreasing, increasing) transforms of every sign * X_j as (n, m) arrays."""
    dec, inc = zip(*(t.oriented(sign) for t in cache))
    return np.stack(dec), np.stack(inc)


def _two_maps(cache: Sequence[ColumnTransforms], workers: int) -> tuple[_Cells, _Cells]:
    """iota(X_i, X_j) and iota(-X_i, X_j), from one pass over 2n rows."""
    n = len(cache)
    # Rows X_1..X_n, then -X_1..-X_n; the first n rows are also the columns.
    x_dec = np.stack([t.dec for t in cache] + [t.neg_dec for t in cache])
    inc = np.stack([t.inc for t in cache])
    values, degenerate = _iota_map(x_dec, x_dec[:n], inc, workers)
    return (values[:n], degenerate[:n]), (values[n:], degenerate[n:])


def _max_sq(xy: np.ndarray, negx: np.ndarray) -> np.ndarray:
    squares = [xy * xy, negx * negx]
    return np.maximum.reduce(squares + [square.T for square in squares])


def _iota_matrix(cache: Sequence[ColumnTransforms], workers: int) -> _Cells:
    dec, inc = _stacks(cache)
    return _iota_map(dec, dec, inc, workers)


def _iota2_matrix(cache: Sequence[ColumnTransforms], workers: int) -> _Cells:
    # iota2(X_i, X_j) = iota(-X_j, -X_i): row j against the negated columns.
    neg_dec, neg_inc = _stacks(cache, -1)
    values, degenerate = _iota_map(neg_dec, neg_dec, neg_inc, workers)
    return values.T, degenerate.T


def _max_iota_sq_matrix(cache: Sequence[ColumnTransforms], workers: int) -> _Cells:
    (xy, xy_degenerate), (negx, negx_degenerate) = _two_maps(cache, workers)
    # Degenerate only when every orientation is.
    degenerate = xy_degenerate & xy_degenerate.T & negx_degenerate & negx_degenerate.T
    return _max_sq(xy, negx), degenerate


def _correlation_matrix(columns: Sequence[tuple[np.ndarray, np.ndarray]], workers: int) -> _Cells:
    """Correlations of :func:`ranks.centred` columns."""
    c = np.stack([column for column, _ in columns])
    v = np.array([norm for _, norm in columns])

    def row(i: int) -> _Cells:
        return _correlation(c[i], v[i], c, v)

    return _row_map(len(c), len(c), lambda: row, workers)


def _pearson_matrix(values: np.ndarray, workers: int) -> _Cells:
    return _correlation_matrix([centred(column) for column in values.T], workers)


def _spearman_matrix(cache: Sequence[ColumnTransforms], workers: int) -> _Cells:
    return _correlation_matrix([t.centred for t in cache], workers)


def _minrel_simple_matrix(values: np.ndarray, workers: int) -> _Cells:
    columns = np.ascontiguousarray(values.T)
    never = np.zeros(len(columns), dtype=bool)

    def row(i: int) -> _Cells:
        return _concordance(columns[i], columns), never

    return _row_map(len(columns), len(columns), lambda: row, workers)


#: Each metric's matrix builder. A ranked metric's builder takes the
#: transform cache, the others the raw (m, n) values.
_MATRIX_BUILDERS: dict[str, Callable[..., _Cells]] = {
    "pearson": _pearson_matrix,
    "spearman": _spearman_matrix,
    "iota": _iota_matrix,
    "iota2": _iota2_matrix,
    "max_iota_sq": _max_iota_sq_matrix,
    "minrel_simple": _minrel_simple_matrix,
}

#: Metrics accepted by :func:`pairwise_matrix`.
MATRIX_METRICS = tuple(_MATRIX_BUILDERS)

#: Metrics whose matrices are symmetric by construction.
SYMMETRIC_METRICS = frozenset({"pearson", "spearman", "max_iota_sq"})


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    array.flags.writeable = False
    return array


def pairwise_matrix(
    dataset: Dataset,
    metric: str,
    *,
    cache: Sequence[ColumnTransforms] | None = None,
    workers: int = 1,
) -> CoefficientMatrix:
    """Apply a two-column metric to every ordered pair of columns.

    Cell (i, j) holds metric(column_i, column_j) and equals a direct
    two-column call exactly. Diagonals are computed like any other cell.
    """
    if metric not in MATRIX_METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {MATRIX_METRICS}")
    _require_workers(workers)
    if not METRIC_TABLE[metric].ranked:
        source = dataset.values
    elif cache is None:
        source = transform_cache(dataset)
    else:
        source = cache
    values, degenerate = _MATRIX_BUILDERS[metric](source, workers)
    return CoefficientMatrix(
        metric=metric, names=dataset.names, values=_frozen(values), degenerate=_frozen(degenerate)
    )


def minrel_profile_matrix(
    dataset: Dataset,
    *,
    cache: Sequence[ColumnTransforms] | None = None,
    workers: int = 1,
) -> ProfileMatrix:
    """Full four-orientation profile for every ordered pair of columns."""
    _require_workers(workers)
    if cache is None:
        cache = transform_cache(dataset)
    (xy, xy_degenerate), (negx, negx_degenerate) = _two_maps(cache, workers)
    flags = [xy_degenerate, xy_degenerate.T, negx_degenerate, negx_degenerate.T]
    return ProfileMatrix(
        names=dataset.names,
        iota_xy=_frozen(xy),
        iota_yx=_frozen(xy.T),
        iota_negx_y=_frozen(negx),
        iota_negy_x=_frozen(negx.T),
        max_iota_sq=_frozen(_max_sq(xy, negx)),
        degenerate=_frozen(np.stack(flags, axis=-1)),
    )
