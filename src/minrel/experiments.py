"""Monte-Carlo reproduction of the three toy-experiment tables.

Each experiment repeats its generator with derived seeds (seed + rep),
averages the requested coefficients and compares every cell against its
reference value at a fixed tolerance. Each repetition ranks every column
of its dataset once and passes the cached transforms to the direct calls
(:func:`coeff.spearman`, :func:`coeff.minrel_profile`), which do not rank
them again. Ordering checks capture the qualitative claims (which
variable each criterion would rank first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import minrel_profile, spearman
from .errors import InvalidInputError
from .matrix import ColumnTransforms, Dataset, transform_cache
from .synth import gen_combined, gen_linear, gen_multiplication

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


class _Accumulator:
    """Per-label running collection of repetition values."""

    def __init__(self) -> None:
        self._values: dict[str, list[float]] = {}

    def add(self, label: str, value: float) -> None:
        self._values.setdefault(label, []).append(value)

    def mean(self, label: str) -> float:
        return float(np.mean(self._values[label]))

    def stderr(self, label: str) -> float:
        values = np.asarray(self._values[label])
        if values.size < 2:
            return 0.0
        return float(values.std(ddof=1) / np.sqrt(values.size))

    def cell(self, label: str, reference: float, tolerance: float) -> ExperimentCell:
        return ExperimentCell(
            label=label,
            mean=self.mean(label),
            stderr=self.stderr(label),
            reference=reference,
            tolerance=tolerance,
        )


def _require_run_params(reps: int, m: int) -> None:
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    if m < 2:
        raise InvalidInputError(f"m must be >= 2, got {m}")


def _columns(dataset: Dataset) -> dict[str, ColumnTransforms]:
    """Every column's transforms by name: one sort per column."""
    return dict(zip(dataset.names, transform_cache(dataset)))


def _pair_stats(acc: _Accumulator, tag: str, x: ColumnTransforms, y: ColumnTransforms) -> None:
    acc.add(f"rho({tag})", spearman(x, y).value)
    profile = minrel_profile(x, y)
    acc.add(f"iota({tag})", profile.iota_xy.value)
    acc.add(f"iota_yx({tag})", profile.iota_yx.value)
    acc.add(f"iota_negx({tag})", profile.iota_negx_y.value)
    acc.add(f"iota_negy({tag})", profile.iota_negy_x.value)


def run_table2(reps: int, m: int, seed: int) -> ExperimentResult:
    """Multiplicative family A = B*C: strong asymmetric dependence."""
    _require_run_params(reps, m)
    acc = _Accumulator()
    for rep in range(reps):
        columns = _columns(gen_multiplication(m, seed + rep).dataset)
        a, b, c = columns["A"], columns["B"], columns["C"]
        _pair_stats(acc, "A,B", a, b)
        _pair_stats(acc, "A,C", a, c)
        _pair_stats(acc, "B,C", b, c)
    cells = []
    for tag in ("A,B", "A,C"):
        cells.append(acc.cell(f"rho({tag})", 0.66, 0.02))
        cells.append(acc.cell(f"iota({tag})", 0.99, 0.01))
        cells.append(acc.cell(f"iota_negy({tag})", -0.99, 0.01))
        cells.append(acc.cell(f"iota_negx({tag})", -0.79, 0.03))
        cells.append(acc.cell(f"iota_yx({tag})", 0.77, 0.03))
    for label in ("rho", "iota", "iota_negy", "iota_negx", "iota_yx"):
        cells.append(acc.cell(f"{label}(B,C)", 0.0, 0.02))
    return ExperimentResult(
        name="table2", reps=reps, m=m, seed=seed, cells=tuple(cells), checks=()
    )


def run_table3(reps: int, m: int, seed: int) -> ExperimentResult:
    """Linear family A = 3B + 2C + D: symmetric dependence at three strengths."""
    _require_run_params(reps, m)
    acc = _Accumulator()
    for rep in range(reps):
        columns = _columns(gen_linear(m, seed + rep).dataset)
        for name in ("B", "C", "D"):
            _pair_stats(acc, f"A,{name}", columns["A"], columns[name])
    references = {"B": (0.79, 0.98), "C": (0.52, 0.81), "D": (0.26, 0.46)}
    cells = []
    checks = []
    for name, (rho_ref, iota_ref) in references.items():
        tag = f"A,{name}"
        cells.append(acc.cell(f"rho({tag})", rho_ref, 0.02))
        cells.append(acc.cell(f"iota({tag})", iota_ref, 0.03))
        cells.append(acc.cell(f"iota_yx({tag})", iota_ref, 0.03))
        gap = abs(acc.mean(f"iota({tag})") - acc.mean(f"iota_yx({tag})"))
        checks.append(
            OrderingCheck(
                label=f"symmetry({tag})",
                passed=gap <= 0.02,
                detail=f"|iota(X,Y) - iota(Y,X)| = {gap:.4f} <= 0.02",
            )
        )
    return ExperimentResult(
        name="table3", reps=reps, m=m, seed=seed, cells=tuple(cells), checks=tuple(checks)
    )


def run_table4(reps: int, m: int, seed: int) -> ExperimentResult:
    """Combined family G = B*C*D + E: the criteria disagree about G."""
    _require_run_params(reps, m)
    acc = _Accumulator()
    candidates = ("B", "C", "D", "E", "G")
    for rep in range(reps):
        columns = _columns(gen_combined(m, seed + rep).dataset)
        for name in candidates:
            _pair_stats(acc, f"A,{name}", columns["A"], columns[name])
    references = {
        "B": (0.53, 0.03, 0.97, 0.02),
        "C": (0.53, 0.03, 0.97, 0.02),
        "D": (0.53, 0.03, 0.97, 0.02),
        "E": (0.00, 0.02, 0.00, 0.02),
        "G": (0.57, 0.03, 0.92, 0.02),
    }
    cells = []
    for name, (rho_ref, rho_tol, iota_ref, iota_tol) in references.items():
        tag = f"A,{name}"
        cells.append(acc.cell(f"rho({tag})", rho_ref, rho_tol))
        cells.append(acc.cell(f"iota({tag})", iota_ref, iota_tol))
    rho_means = {name: acc.mean(f"rho(A,{name})") for name in candidates}
    iota_means = {name: acc.mean(f"iota(A,{name})") for name in candidates}
    rho_first = max(candidates, key=lambda name: rho_means[name])
    checks = (
        OrderingCheck(
            label="rho prefers G over B",
            passed=rho_means["G"] > rho_means["B"],
            detail=f"rho(A,G)={rho_means['G']:.4f} > rho(A,B)={rho_means['B']:.4f}",
        ),
        OrderingCheck(
            label="iota prefers B over G",
            passed=iota_means["B"] > iota_means["G"],
            detail=f"iota(A,B)={iota_means['B']:.4f} > iota(A,G)={iota_means['G']:.4f}",
        ),
        OrderingCheck(
            label="rho ranks G first",
            passed=rho_first == "G",
            detail=f"argmax of rep-averaged rho scores is {rho_first}",
        ),
        OrderingCheck(
            label="iota ranks B, C, D above G",
            passed=all(iota_means[name] > iota_means["G"] for name in ("B", "C", "D")),
            detail="rep-averaged iota(A, .) puts the factors above the noisy copy",
        ),
    )
    return ExperimentResult(
        name="table4", reps=reps, m=m, seed=seed, cells=tuple(cells), checks=checks
    )


#: Each experiment's runner, by the name of the table it reproduces.
RUNNERS = {"table2": run_table2, "table3": run_table3, "table4": run_table4}

EXPERIMENTS = tuple(RUNNERS)


def run_experiment(name: str, reps: int, m: int, seed: int) -> ExperimentResult:
    if name not in RUNNERS:
        raise InvalidInputError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    return RUNNERS[name](reps, m, seed)
