"""Monte-Carlo reproduction of the three toy-experiment tables, as data.

Each table is one :data:`TABLES` entry: ``family`` names the
:data:`synth.DRAWS` function that draws one repetition's columns; each row
``(x, y, references, tolerances)`` is a pair it scores, with one printed
cell ``stat(x,y)`` per statistic in ``stats``, in output order; ``checks``
maps the per-label means to the ordering checks, the qualitative claims
(which variable each criterion would rank first). A statistic is ``rho``,
Spearman's correlation, or one of :data:`ORIENTATIONS`.

:func:`run_experiment` runs any table, repetition ``rep`` with seed
``seed + rep``, in :func:`ranks.row_blocks` blocks of ``_BLOCK_BYTES`` per
column: a block's draws of each column are one batch, a row per repetition,
checked and sorted once. A pair is one Spearman call for ``rho`` and one
:func:`coeff._orientations` call for exactly the orientations the table
prints, each on two batches, so every value has the bits of the direct call
on that repetition's columns. Nothing unprinted is computed. A cell reports
the mean over repetitions and its standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .coeff import _evaluate, _orientations, _transforms
from .errors import require_choice, require_count
from .ranks import _BLOCK_BYTES, ColumnTransforms, row_blocks
from .synth import DRAWS


@dataclass(frozen=True)
class ExperimentCell:
    """One averaged coefficient against its reference value."""

    label: str
    mean: float
    stderr: float
    reference: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.mean - self.reference) <= self.tolerance


@dataclass(frozen=True)
class OrderingCheck:
    """A qualitative comparison between two averaged quantities."""

    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    reps: int
    m: int
    seed: int
    cells: tuple[ExperimentCell, ...]
    checks: tuple[OrderingCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells) and all(c.passed for c in self.checks)


@dataclass(frozen=True)
class _Table:
    """One toy table: how to draw it, which pairs it scores and what it expects."""

    family: str
    stats: tuple[str, ...]
    rows: tuple[tuple[str, str, tuple[float, ...], tuple[float, ...]], ...]
    checks: Callable[[Mapping[str, float]], tuple[OrderingCheck, ...]] = lambda means: ()


def _table3_checks(means: Mapping[str, float]) -> tuple[OrderingCheck, ...]:
    checks = []
    for tag in ("A,B", "A,C", "A,D"):
        gap = abs(means[f"iota({tag})"] - means[f"iota_yx({tag})"])
        detail = f"|iota(X,Y) - iota(Y,X)| = {gap:.4f} <= 0.02"
        checks.append(OrderingCheck(f"symmetry({tag})", gap <= 0.02, detail))
    return tuple(checks)


def _table4_checks(means: Mapping[str, float]) -> tuple[OrderingCheck, ...]:
    rho = {name: means[f"rho(A,{name})"] for name in "BCDEG"}
    iota = {name: means[f"iota(A,{name})"] for name in "BCDEG"}
    rho_first = max(rho, key=rho.get)
    return (
        OrderingCheck(
            "rho prefers G over B",
            rho["G"] > rho["B"],
            f"rho(A,G)={rho['G']:.4f} > rho(A,B)={rho['B']:.4f}",
        ),
        OrderingCheck(
            "iota prefers B over G",
            iota["B"] > iota["G"],
            f"iota(A,B)={iota['B']:.4f} > iota(A,G)={iota['G']:.4f}",
        ),
        OrderingCheck(
            "rho ranks G first",
            rho_first == "G",
            f"argmax of rep-averaged rho scores is {rho_first}",
        ),
        OrderingCheck(
            "iota ranks B, C, D above G",
            all(iota[name] > iota["G"] for name in "BCD"),
            "rep-averaged iota(A, .) puts the factors above the noisy copy",
        ),
    )


#: Each table, by the name of the paper's table it reproduces.
TABLES: dict[str, _Table] = {
    "table2": _Table(
        family="multiplication",
        stats=("rho", "iota", "iota_negy", "iota_negx", "iota_yx"),
        rows=(
            ("A", "B", (0.66, 0.99, -0.99, -0.79, 0.77), (0.02, 0.01, 0.01, 0.03, 0.03)),
            ("A", "C", (0.66, 0.99, -0.99, -0.79, 0.77), (0.02, 0.01, 0.01, 0.03, 0.03)),
            ("B", "C", (0.0,) * 5, (0.02,) * 5),
        ),
    ),
    "table3": _Table(
        family="linear",
        stats=("rho", "iota", "iota_yx"),
        rows=(
            ("A", "B", (0.79, 0.98, 0.98), (0.02, 0.03, 0.03)),
            ("A", "C", (0.52, 0.81, 0.81), (0.02, 0.03, 0.03)),
            ("A", "D", (0.26, 0.46, 0.46), (0.02, 0.03, 0.03)),
        ),
        checks=_table3_checks,
    ),
    "table4": _Table(
        family="combined",
        stats=("rho", "iota"),
        rows=(
            ("A", "B", (0.53, 0.97), (0.03, 0.02)),
            ("A", "C", (0.53, 0.97), (0.03, 0.02)),
            ("A", "D", (0.53, 0.97), (0.03, 0.02)),
            ("A", "E", (0.00, 0.00), (0.02, 0.02)),
            ("A", "G", (0.57, 0.92), (0.03, 0.02)),
        ),
        checks=_table4_checks,
    ),
}

EXPERIMENTS = tuple(TABLES)

#: Orientations 0 to 3 of :func:`coeff._orientations`, iota of (x, y), (y, x),
#: (-x, y) and (-y, x), by the names table labels use.
ORIENTATIONS = ("iota", "iota_yx", "iota_negx", "iota_negy")

def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def run_experiment(name: str, reps: int, m: int, seed: int) -> ExperimentResult:
    """Run table ``name`` of :data:`TABLES` over ``reps`` repetitions of ``m`` rows."""
    table = TABLES[require_choice(name, EXPERIMENTS, "experiment")]
    reps = require_count(reps, "reps", 1)
    m = require_count(m, "m", 2)
    seed = require_count(seed, "seed", 0)
    draw = DRAWS[table.family]
    iotas_printed = [stat for stat in table.stats if stat != "rho"]
    which = tuple(map(ORIENTATIONS.index, iotas_printed))
    values: dict[str, list[float]] = {}
    for block in row_blocks(reps, m, _BLOCK_BYTES):
        draws = [draw(np.random.default_rng(seed + rep), m) for rep in range(reps)[block]]
        names = {x: [f"column {x!r}"] * len(draws) for x in draws[0]}
        columns = {x: ColumnTransforms._batch([d[x] for d in draws], names[x]) for x in names}
        for x, y, _, _ in table.rows:
            rho, _ = _evaluate("spearman", columns[x], columns[y])
            iotas, _ = _orientations(_transforms(columns[x]), _transforms(columns[y]), which)
            per_rep = dict(zip(iotas_printed, np.moveaxis(iotas, -1, 0)), rho=rho)
            for stat in table.stats:
                values.setdefault(f"{stat}({x},{y})", []).extend(per_rep[stat].tolist())
    means = {label: float(np.mean(series)) for label, series in values.items()}
    cells = []
    for x, y, references, tolerances in table.rows:
        for stat, reference, tolerance in zip(table.stats, references, tolerances):
            label = f"{stat}({x},{y})"
            stderr = _stderr(values[label])
            cells.append(ExperimentCell(label, means[label], stderr, reference, tolerance))
    return ExperimentResult(name, reps, m, seed, tuple(cells), table.checks(means))
