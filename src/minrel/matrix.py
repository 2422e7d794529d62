"""Pairwise coefficient matrices over whole datasets.

Each column is ranked and transformed exactly once (one sort per column;
the negated order's ranks are derived from it); the n x n pairwise pass then
applies the metric table's pair function to the cached transforms and
performs no further sorting. Metrics that do not use ranks run on the raw
columns and never sort. Every (i, j) cell is an independent work unit
written into pre-sized storage, so results are bit-identical for any worker
count or execution order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .coeff import METRIC_TABLE, CoefficientValue, MinrelProfile, _profile
from .errors import InvalidInputError
from .ranks import ColumnTransforms, column_transforms

#: Metrics accepted by :func:`pairwise_matrix`.
MATRIX_METRICS = ("pearson", "spearman", "iota", "iota2", "max_iota_sq", "minrel_simple")

#: Metrics whose matrices are symmetric by construction.
SYMMETRIC_METRICS = frozenset({"pearson", "spearman", "max_iota_sq"})


@dataclass(frozen=True)
class Dataset:
    """Named columns of equal length m >= 2; stored as an (m, n) float array."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            raise InvalidInputError("column names must be unique")
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


def _run_cells(
    n: int,
    fill_row: Callable[[int], None],
    workers: int,
) -> None:
    if workers <= 1 or n <= 1:
        for i in range(n):
            fill_row(i)
        return

    # One contiguous block of rows per worker; each cell writes its own
    # pre-sized slot, so scheduling cannot affect the result.
    blocks = [rows for rows in np.array_split(np.arange(n), workers) if rows.size]

    def run_block(rows: np.ndarray) -> None:
        for i in rows:
            fill_row(int(i))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_block, blocks))


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
    pair, ranked = METRIC_TABLE[metric]
    n = dataset.n
    if not ranked:
        columns = [dataset.values[:, j] for j in range(n)]
    elif cache is None:
        columns = transform_cache(dataset)
    else:
        columns = cache
    values = np.empty((n, n), dtype=float)
    degenerate = np.zeros((n, n), dtype=bool)

    def fill_row(i: int) -> None:
        for j in range(n):
            cell = pair(columns[i], columns[j])
            values[i, j] = cell.value
            degenerate[i, j] = cell.degenerate

    _run_cells(n, fill_row, workers)
    values.flags.writeable = False
    degenerate.flags.writeable = False
    return CoefficientMatrix(metric=metric, names=dataset.names, values=values, degenerate=degenerate)


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
    n = dataset.n
    arrays = {
        key: np.empty((n, n), dtype=float)
        for key in ("xy", "yx", "negx_y", "negy_x", "max_sq")
    }
    degenerate = np.zeros((n, n, 4), dtype=bool)

    def fill_row(i: int) -> None:
        for j in range(n):
            profile = _profile(cache[i], cache[j])
            arrays["xy"][i, j] = profile.iota_xy.value
            arrays["yx"][i, j] = profile.iota_yx.value
            arrays["negx_y"][i, j] = profile.iota_negx_y.value
            arrays["negy_x"][i, j] = profile.iota_negy_x.value
            arrays["max_sq"][i, j] = profile.max_iota_sq
            degenerate[i, j] = [v.degenerate for v in profile.oriented_values()]

    _run_cells(n, fill_row, workers)
    for arr in arrays.values():
        arr.flags.writeable = False
    degenerate.flags.writeable = False
    return ProfileMatrix(
        names=dataset.names,
        iota_xy=arrays["xy"],
        iota_yx=arrays["yx"],
        iota_negx_y=arrays["negx_y"],
        iota_negy_x=arrays["negy_x"],
        max_iota_sq=arrays["max_sq"],
        degenerate=degenerate,
    )
