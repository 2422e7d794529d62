"""Pairwise coefficient matrices over whole datasets.

Each column is prepared once with its metric's ``prepare`` (see
:mod:`minrel.coeff`; a ranked metric's columns are ranked and transformed
once by :func:`transform_cache`, one sort each), and the prepared parts are
stacked into (n, ...) arrays. One function, :func:`_kernel_map`, fills the
n x n map with one call of the metric's ``kernel`` per matrix row per block
of columns: the kernel a two-column call runs, so a matrix cell equals the
direct call bit for bit by construction. Each cell is reduced on its own
(no matrix products), and each row is written into pre-sized storage, so
results are bit-identical for any worker count. The kernels' large array
operations release the interpreter lock, so ``workers`` threads (at most
one per available CPU), each taking a contiguous block of rows, run in
parallel.

The one selection by metric is ``max_iota_sq`` (and
:func:`minrel_profile_matrix`). Its four orientations need only two maps,
M[i, j] = iota(X_i, X_j) and N[i, j] = iota(-X_i, X_j), from one pass over
2n rows; the other two orientations are their transposes,
iota(X_j, X_i) = M[j, i] and iota(-X_j, X_i) = N[j, i]. That is 2 n^2
kernel cells where the metric's own kernel, cell by cell, would take 4 n^2.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .coeff import METRIC_TABLE, CoefficientValue, MinrelProfile, _iota, _max_iota_sq
from .errors import InvalidInputError
from .ranks import ColumnTransforms, column_transforms


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


#: The size of one kernel call's (columns, m) temporaries, in bytes.
_SCRATCH_BYTES = 1 << 21

#: The values of an (n_rows, n) map and its degenerate flags.
_Cells = tuple[np.ndarray, np.ndarray]


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _kernel_map(kernel: Callable, rows: tuple, cols: tuple, workers: int) -> _Cells:
    """Cell [r, j] is ``kernel(row r, column j)``, one kernel call per row per column block.

    ``rows`` and ``cols`` are stacked prepared columns: tuples of arrays
    whose first axis indexes the column. Columns are taken in blocks that
    keep a call's temporaries at a few MB. Each worker takes one
    contiguous block of rows; at most one thread per available CPU runs:
    more would only add temporaries, not speed.
    """
    n_rows = len(rows[0])
    n, m = cols[0].shape
    width = max(1, min(n, _SCRATCH_BYTES // (8 * m)))
    values = np.empty((n_rows, n))
    degenerate = np.empty((n_rows, n), dtype=bool)

    def run_rows(indices: Iterable[int]) -> None:
        for r in indices:
            x = tuple(part[r] for part in rows)
            for j in range(0, n, width):
                cells = slice(j, j + width)
                y = tuple(part[cells] for part in cols)
                values[r, cells], degenerate[r, cells] = kernel(x, y)

    threads = min(workers, _available_cpus())
    blocks = [block for block in np.array_split(np.arange(n_rows), threads) if block.size]
    if len(blocks) <= 1:
        run_rows(range(n_rows))
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            list(pool.map(run_rows, blocks))
    return values, degenerate


def _orientation_maps(cache: Sequence[ColumnTransforms], workers: int) -> list[_Cells]:
    """The maps of iota(X_i, X_j), iota(X_j, X_i), iota(-X_i, X_j) and iota(-X_j, X_i).

    They are M, M.T, N and N.T, from one pass over 2n rows.
    """
    n = len(cache)
    # Rows X_1..X_n, then -X_1..-X_n (dec(-X) = -inc(X)); rows 1..n are the columns.
    x_dec = np.empty((2 * n, cache[0].dec.size))
    np.stack([t.dec for t in cache], out=x_dec[:n])
    inc = np.stack([t.inc for t in cache])
    np.negative(inc, out=x_dec[n:])
    values, degenerate = _kernel_map(_iota, (x_dec,), (x_dec[:n], inc), workers)
    xy, negx = (values[:n], degenerate[:n]), (values[n:], degenerate[n:])
    return [xy, (xy[0].T, xy[1].T), negx, (negx[0].T, negx[1].T)]


#: Metrics accepted by :func:`pairwise_matrix`.
MATRIX_METRICS = ("pearson", "spearman", "iota", "iota2", "max_iota_sq", "minrel_simple")

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
    prepare, kernel, ranked = METRIC_TABLE[metric]
    if ranked and cache is None:
        cache = transform_cache(dataset)
    if metric == "max_iota_sq":
        values, degenerate = _max_iota_sq(_orientation_maps(cache, workers))
    else:
        columns = cache if ranked else dataset.values.T
        stacks = tuple(np.stack(part) for part in zip(*map(prepare, columns)))
        values, degenerate = _kernel_map(kernel, stacks, stacks, workers)
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
    orientations = _orientation_maps(cache, workers)
    (xy, _), (yx, _), (negx_y, _), (negy_x, _) = orientations
    best, _ = _max_iota_sq(orientations)
    return ProfileMatrix(
        names=dataset.names,
        iota_xy=_frozen(xy),
        iota_yx=_frozen(yx),
        iota_negx_y=_frozen(negx_y),
        iota_negy_x=_frozen(negy_x),
        max_iota_sq=_frozen(best),
        degenerate=_frozen(np.stack([flags for _, flags in orientations], axis=-1)),
    )
