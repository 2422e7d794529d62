"""Pairwise coefficient matrices over whole datasets.

A :class:`Dataset` is one (n, m) batch (a :class:`ColumnTransforms`, a column
per row), copied and checked once; every pass over it reuses its views, so it
is ranked at most once, and only if a metric reads ranks. A matrix is its
metric's ``prepare`` (see :mod:`minrel.coeff`) of the batch, (n, ...) parts,
mapped by :func:`_kernel_map` over the cells with j >= i: one call of the
metric's ``pair`` per row i and :func:`_blocks` block J gives cells (i, J) and
(J, i). A metric of :data:`SYMMETRIC_METRICS` has no ``pair``: its kernel's
cells (i, J), a ranking's scores, are written both ways. The profile's cell
(j, i) is cell (i, j) with orientation k read as ``k ^ 1``. Each is the same
IEEE operations on the same operands as its direct call, each cell is reduced
on its own, and row i writes only row i and column i of storage allocated
before any thread starts, so results are bit-identical for any thread count.
The rows are :func:`ranks.each`'s items, dealt in turn to threads as the
triangle's work, n (n + 1) / 2 pairs times m, allows; the kernels release the
interpreter lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .coeff import METRIC_TABLE, MinrelProfile, _coefficient, _max_iota_sq, _orientations
from .coeff import _transforms
from .errors import InvalidInputError, require_choice, require_count, require_names
from .ranks import ColumnTransforms, _frozen, as_float_array, each, row_blocks


def _index(names: tuple[str, ...], name: str) -> int:
    """The position of column ``name``; :class:`InvalidInputError` if there is none."""
    try:
        return names.index(name)
    except ValueError:
        raise InvalidInputError(f"unknown column {name!r}") from None


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Named columns of equal length m >= 2: the (m, n) ``values`` copied once into :attr:`batch`.

    ``rows_dropped`` counts input rows left out, such as the incomplete rows
    the CLI reader drops under ``--na drop-rows``.
    """

    names: tuple[str, ...]
    batch: ColumnTransforms
    rows_dropped: int = 0

    def __init__(self, names: Iterable[str], values, rows_dropped: int = 0) -> None:
        names = tuple(map(str, require_names(names, "dataset names")))
        if len(set(names)) != len(names):
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise InvalidInputError(f"column names must be unique; {duplicate!r} repeats")
        values = as_float_array(values, "dataset values")
        if values.ndim != 2:
            raise InvalidInputError(f"dataset values must be 2-D, got shape {values.shape}")
        if values.shape[1] != len(names):
            raise InvalidInputError(f"{len(names)} names but {values.shape[1]} columns of data")
        if not names:
            raise InvalidInputError("a dataset needs at least one column")
        if values.shape[0] < 2:
            raise InvalidInputError(f"dataset needs at least 2 rows, got {values.shape[0]}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "batch", ColumnTransforms._batch(values.T, names))
        object.__setattr__(self, "rows_dropped", require_count(rows_dropped, "rows_dropped", 0))

    @classmethod
    def from_columns(cls, columns: Mapping[str, Iterable[float]]) -> "Dataset":
        arrays = [as_float_array(columns[name], f"column {name!r}") for name in columns]
        for name, array in zip(columns, arrays):
            if array.ndim != 1:
                shape = array.shape
                raise InvalidInputError(f"column {name!r} must be one-dimensional, got shape {shape}")
        lengths = {len(array) for array in arrays}
        if len(lengths) > 1:
            raise InvalidInputError(f"columns differ in length: {sorted(lengths)}")
        return cls(columns, np.array(arrays).T if arrays else np.empty((0, 0)))

    @property
    def m(self) -> int:
        return self.batch.m

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def values(self) -> np.ndarray:
        """The read-only (m, n) values: a transposed view of the batch's."""
        return self.batch.values.T

    @cached_property
    def columns(self) -> tuple[ColumnTransforms, ...]:
        """Each column: a :class:`ColumnTransforms` on its batch row, which it ranks alone."""
        return tuple(map(ColumnTransforms._checked, self.batch.values, self.names))

    def index(self, name: str) -> int:
        return _index(self.names, name)

    def column(self, name: str) -> np.ndarray:
        return self.batch.values[self.index(name)]


def transform_cache(dataset: Dataset) -> tuple[ColumnTransforms, ...]:
    """The dataset's :attr:`Dataset.columns`."""
    return dataset.columns


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """n x n coefficient values plus the mask of degenerate cells."""

    metric: str
    names: tuple[str, ...]
    values: np.ndarray
    degenerate: np.ndarray

    def value(self, x_name: str, y_name: str) -> float:
        i, j = _index(self.names, x_name), _index(self.names, y_name)
        return float(self.values[i, j])


@dataclass(frozen=True, eq=False)
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
        i, j = _index(self.names, x_name), _index(self.names, y_name)
        maps = (self.iota_xy, self.iota_yx, self.iota_negx_y, self.iota_negy_x)
        oriented = map(_coefficient, (values[i, j] for values in maps), self.degenerate[i, j])
        return MinrelProfile(*oriented, float(self.max_iota_sq[i, j]))


#: The size of one kernel call's (columns, m) temporaries, in bytes.
_SCRATCH_BYTES = 1 << 20


def _blocks(parts: tuple, start: int = 0) -> Iterator[tuple[slice, tuple]]:
    """(J, rows J of ``parts``) per ``row_blocks`` block J of ``_SCRATCH_BYTES`` from ``start``."""
    blocks = row_blocks(*parts[0].shape[:2], _SCRATCH_BYTES, start)
    return ((rows, tuple(part[rows] for part in parts)) for rows in blocks)


def _kernel_map(pair: Callable, parts: tuple, cell=()):
    """Cells (i, j) and (j, i) for every j >= i: one ``pair`` call per row i per block J.

    ``parts``, the batch's prepared (n, ...) arrays, are only read. ``pair(row
    i, block J)`` returns ``(values, degenerate)`` of cells (i, J), then of
    cells (J, i); a cell has shape ``cell``. The blocks are :func:`_blocks`
    from row i on; :func:`ranks.each` walks the rows.
    """
    n, m = parts[0].shape[:2]
    values = np.empty((n, n, *cell))
    degenerate = np.empty((n, n, *cell), dtype=bool)

    def row(i: int) -> None:
        x = tuple(part[i] for part in parts)
        for cells, y in _blocks(parts, i):
            (values[i, cells], degenerate[i, cells]), transposed = pair(x, y)
            values[cells, i], degenerate[cells, i] = transposed

    each(row, range(n), n * (n + 1) // 2 * m)
    return values, degenerate


#: Metrics accepted by :func:`pairwise_matrix`.
MATRIX_METRICS = ("pearson", "spearman", "iota", "iota2", "max_iota_sq", "minrel_simple")

#: Metrics whose matrices are symmetric by construction: one kernel result is written both ways.
SYMMETRIC_METRICS = frozenset(m for m in MATRIX_METRICS if METRIC_TABLE[m].pair is None)


def pairwise_matrix(dataset: Dataset, metric: str) -> CoefficientMatrix:
    """Apply a two-column metric to every ordered pair of columns.

    Cell (i, j) holds metric(column_i, column_j) and equals a direct
    two-column call exactly. Diagonals are computed like any other cell.
    """
    prepare, kernel, pair = METRIC_TABLE[require_choice(metric, MATRIX_METRICS, "metric")]
    pair = pair or (lambda x, y: (kernel(x, y),) * 2)
    values, degenerate = _kernel_map(pair, prepare(dataset.batch))
    return CoefficientMatrix(
        metric=metric, names=dataset.names, values=_frozen(values), degenerate=_frozen(degenerate)
    )


def minrel_profile_matrix(dataset: Dataset) -> ProfileMatrix:
    """Full four-orientation profile for every ordered pair of columns."""

    def pair(x: tuple, y: tuple) -> tuple:  # cell (j, i) reads orientation k as k ^ 1
        cells = _orientations(x, y, (0, 1, 2, 3))
        return cells, tuple(part[..., [k ^ 1 for k in range(4)]] for part in cells)

    values, degenerate = _kernel_map(pair, _transforms(dataset.batch), (4,))
    best, _ = _max_iota_sq(values, degenerate)
    # The four orientation maps, the largest square and the (n, n, 4) flags, in field order.
    maps = (*np.moveaxis(values, -1, 0), best, degenerate)
    return ProfileMatrix(dataset.names, *map(_frozen, maps))
