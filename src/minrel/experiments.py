"""Monte-Carlo reproduction of the three toy-experiment tables, as data.

Each table is one :data:`TABLES` entry: ``generate(m, seed)`` draws one
repetition's dataset; each row ``(x, y, references, tolerances)`` is a
pair it scores, with one printed cell ``stat(x,y)`` per statistic in
``stats``, in output order; ``checks`` maps the per-label means to the
ordering checks, the qualitative claims (which variable each criterion
would rank first). Every pair yields rho, iota, iota_yx, iota_negx and
iota_negy; a table prints the ones it names.

:func:`run_experiment` runs any table. Repetition ``rep`` uses seed
``seed + rep`` and ranks each column once (:func:`transform_cache`). Each
pair is scored by the public direct calls (:func:`coeff.spearman`,
:func:`coeff.minrel_profile`) on the cached transforms, so every value is
what a library user gets for that pair, not a parallel implementation.
A cell reports the mean over repetitions and its standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .coeff import minrel_profile, spearman
from .errors import InvalidInputError
from .matrix import ColumnTransforms, transform_cache
from .synth import GeneratedDataset, gen_combined, gen_linear, gen_multiplication


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

    generate: Callable[[int, int], GeneratedDataset]
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


#: Each table, by the name of the paper's table it reproduces. The
#: generators are called through this module's bindings, so a wrapper
#: installed on them (as the benchmark's tracer does) sees each call.
TABLES: dict[str, _Table] = {
    "table2": _Table(
        generate=lambda m, seed: gen_multiplication(m, seed),
        stats=("rho", "iota", "iota_negy", "iota_negx", "iota_yx"),
        rows=(
            ("A", "B", (0.66, 0.99, -0.99, -0.79, 0.77), (0.02, 0.01, 0.01, 0.03, 0.03)),
            ("A", "C", (0.66, 0.99, -0.99, -0.79, 0.77), (0.02, 0.01, 0.01, 0.03, 0.03)),
            ("B", "C", (0.0,) * 5, (0.02,) * 5),
        ),
    ),
    "table3": _Table(
        generate=lambda m, seed: gen_linear(m, seed),
        stats=("rho", "iota", "iota_yx"),
        rows=(
            ("A", "B", (0.79, 0.98, 0.98), (0.02, 0.03, 0.03)),
            ("A", "C", (0.52, 0.81, 0.81), (0.02, 0.03, 0.03)),
            ("A", "D", (0.26, 0.46, 0.46), (0.02, 0.03, 0.03)),
        ),
        checks=_table3_checks,
    ),
    "table4": _Table(
        generate=lambda m, seed: gen_combined(m, seed),
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


def _pair_stats(x: ColumnTransforms, y: ColumnTransforms) -> dict[str, float]:
    """The five statistics of one pair, by the names the labels use."""
    rho = spearman(x, y)
    p = minrel_profile(x, y)
    values = (rho, p.iota_xy, p.iota_yx, p.iota_negx_y, p.iota_negy_x)
    names = ("rho", "iota", "iota_yx", "iota_negx", "iota_negy")
    return {name: value.value for name, value in zip(names, values)}


def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def run_experiment(name: str, reps: int, m: int, seed: int) -> ExperimentResult:
    """Run table ``name`` of :data:`TABLES` over ``reps`` repetitions of ``m`` rows."""
    if name not in TABLES:
        raise InvalidInputError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    if m < 2:
        raise InvalidInputError(f"m must be >= 2, got {m}")
    table = TABLES[name]
    values: dict[str, list[float]] = {}
    for rep in range(reps):
        dataset = table.generate(m, seed + rep).dataset
        columns = dict(zip(dataset.names, transform_cache(dataset)))
        for x, y, _, _ in table.rows:
            for stat, value in _pair_stats(columns[x], columns[y]).items():
                values.setdefault(f"{stat}({x},{y})", []).append(value)
    means = {label: float(np.mean(series)) for label, series in values.items()}
    cells = []
    for x, y, references, tolerances in table.rows:
        for stat, reference, tolerance in zip(table.stats, references, tolerances):
            label = f"{stat}({x},{y})"
            stderr = _stderr(values[label])
            cells.append(ExperimentCell(label, means[label], stderr, reference, tolerance))
    return ExperimentResult(name, reps, m, seed, tuple(cells), table.checks(means))


def run_table2(reps: int, m: int, seed: int) -> ExperimentResult:
    """Multiplicative family A = B*C: strong asymmetric dependence."""
    return run_experiment("table2", reps, m, seed)


def run_table3(reps: int, m: int, seed: int) -> ExperimentResult:
    """Linear family A = 3B + 2C + D: symmetric dependence at three strengths."""
    return run_experiment("table3", reps, m, seed)


def run_table4(reps: int, m: int, seed: int) -> ExperimentResult:
    """Combined family G = B*C*D + E: the criteria disagree about G."""
    return run_experiment("table4", reps, m, seed)
