"""Variable ranking by bivariate relevance, and its evaluation protocol.

A ranking scores every non-target column against the target with one of
three criteria and orders them by descending score (ties broken by column
order, so results are fully deterministic):

    rho2        -- squared Spearman correlation
    max_iota_sq -- largest squared oriented minrelation value
    iota_sq     -- squared minrelation of the target to the candidate only

Each criterion is data (:data:`_CRITERIA`): a metric and whether it is
squared. The scores, the target's row of the metric's matrix cell for cell,
are its kernel on the target's row and each :func:`matrix._blocks` block of
the prepared batch, the blocks dealt by :func:`ranks.each`. All rankings of
one dataset (every target, both criteria of :func:`compare_criteria`) share
the batch's one sort.

Two criteria are compared by the average 1-based position the known
relevant columns get: strictly lower wins the target, equality is a draw.
A split-half cross-validation harness evaluates rankings on held-out data
with a built-in least-squares regressor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .coeff import METRIC_TABLE
from .errors import InvalidInputError, require_choice, require_count, require_names
from .matrix import Dataset, _blocks
from .ranks import each

#: Each criterion as data: (metric, squared). A candidate's score is the
#: metric of (target, candidate), squared when ``squared``.
_CRITERIA = {
    "rho2": ("spearman", True),
    "max_iota_sq": ("max_iota_sq", False),
    "iota_sq": ("iota", True),
}

CRITERIA = tuple(_CRITERIA)

RIDGE_EPSILON = 1e-8


@dataclass(frozen=True)
class RankingResult:
    """Non-target columns ordered by descending relevance to the target."""

    target: str
    criterion: str
    ordered: tuple[tuple[str, float], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ordered)

    def position(self, name: str) -> int:
        for index, (candidate, _) in enumerate(self.ordered, start=1):
            if candidate == name:
                return index
        raise InvalidInputError(f"column {name!r} is not in the ranking")


@dataclass(frozen=True)
class RelevanceEval:
    """Mean 1-based ranking position of a set of known relevant columns."""

    relevant: frozenset[str]
    avg_position: float


@dataclass(frozen=True)
class TargetOutcome:
    target: str
    avg_position_a: float
    avg_position_b: float
    outcome: str  # win | loss | draw, from criterion_a's point of view


@dataclass(frozen=True)
class WinLossRecord:
    """Per-target win/loss/draw tallies for criterion_a vs criterion_b."""

    criterion_a: str
    criterion_b: str
    outcomes: tuple[TargetOutcome, ...]

    @property
    def wins(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "win")

    @property
    def losses(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "loss")

    @property
    def draws(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "draw")


def rank_variables(dataset: Dataset, target: str, criterion: str) -> RankingResult:
    """Order every other column by its relevance score against the target.

    Degenerate coefficients score 0. Ties keep the dataset's column order.
    """
    metric, squared = _CRITERIA[require_choice(criterion, CRITERIA, "criterion")]
    target_index = dataset.index(target)
    if dataset.n < 2:
        raise InvalidInputError("ranking needs at least 2 columns")
    prepare, kernel, _ = METRIC_TABLE[metric]
    parts = prepare(dataset.batch)
    target_row = tuple(part[target_index] for part in parts)
    scores = np.empty(dataset.n)

    def score(block: tuple) -> None:
        rows, y = block
        scores[rows] = kernel(target_row, y)[0]

    each(score, list(_blocks(parts)), dataset.n * dataset.m)
    scored = list(enumerate((scores * scores if squared else scores).tolist()))
    del scored[target_index]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return RankingResult(
        target=target,
        criterion=criterion,
        ordered=tuple((dataset.names[j], score) for j, score in scored),
    )


def average_position(ranking: RankingResult, relevant: Iterable[str]) -> RelevanceEval:
    """Mean 1-based position of the relevant columns within the ranking."""
    wanted = frozenset(require_names(relevant, "relevant"))
    if not wanted:
        raise InvalidInputError("relevant set must not be empty")
    positions = {name: index for index, (name, _) in enumerate(ranking.ordered, start=1)}
    missing = sorted(wanted - positions.keys())
    if missing:
        raise InvalidInputError(f"relevant columns not in ranking: {missing}")
    avg = sum(positions[name] for name in wanted) / len(wanted)
    return RelevanceEval(relevant=wanted, avg_position=avg)


def compare_criteria(
    dataset: Dataset,
    targets: Mapping[str, Iterable[str]],
    *,
    criterion_a: str = "max_iota_sq",
    criterion_b: str = "rho2",
    min_relevant: int = 1,
) -> WinLossRecord:
    """Head-to-head ranking comparison over targets with known predictors.

    Targets with fewer than ``min_relevant`` declared predictors are
    filtered out before scoring. A criterion wins a target when its
    ranking gives the predictors a strictly lower average position.
    """
    for criterion in (criterion_a, criterion_b):
        require_choice(criterion, CRITERIA, "criterion")
    min_relevant = require_count(min_relevant, "min_relevant", 1)
    resolved = {t: require_names(names, f"relevant[{t!r}]") for t, names in targets.items()}
    outcomes = []
    for target in sorted(resolved, key=dataset.index):
        known = resolved[target]
        if len(known) < min_relevant:
            continue
        avg_a = average_position(rank_variables(dataset, target, criterion_a), known).avg_position
        avg_b = average_position(rank_variables(dataset, target, criterion_b), known).avg_position
        outcome = "win" if avg_a < avg_b else "loss" if avg_b < avg_a else "draw"
        outcomes.append(TargetOutcome(target, avg_a, avg_b, outcome))
    return WinLossRecord(criterion_a, criterion_b, tuple(outcomes))


@dataclass(frozen=True)
class FitResult:
    """A fitted regressor: a predict callable plus fit diagnostics."""

    predict: Callable[[np.ndarray], np.ndarray]
    used_ridge: bool = False


def least_squares_regressor(train_x: np.ndarray, train_y: np.ndarray) -> FitResult:
    """Ordinary least squares with intercept via the normal equations.

    A singular or non-finite solve falls back to a tiny ridge term on the
    normal-equation diagonal, reported through ``used_ridge``.
    """
    design = np.column_stack([train_x, np.ones(train_x.shape[0])])
    gram = design.T @ design
    moment = design.T @ train_y
    used_ridge = False
    try:
        beta = np.linalg.solve(gram, moment)
        if not np.all(np.isfinite(beta)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        used_ridge = True
        ridged = gram + RIDGE_EPSILON * np.eye(gram.shape[0])
        beta = np.linalg.solve(ridged, moment)

    def predict(x: np.ndarray) -> np.ndarray:
        return np.column_stack([x, np.ones(x.shape[0])]) @ beta

    return FitResult(predict=predict, used_ridge=used_ridge)


@dataclass(frozen=True)
class CvSummary:
    """Split-half evaluation of one ranking criterion on one target."""

    target: str
    criterion: str
    sizes: tuple[int, ...]
    folds: int
    seed: int
    ranked: tuple[str, ...]
    per_size_mse: tuple[float, ...]
    mean_mse: float
    used_ridge: bool


def split_half_cv_eval(
    dataset: Dataset,
    target: str,
    criterion: str,
    sizes: Sequence[int],
    folds: int,
    seed: int,
) -> CvSummary:
    """Rank on one half of the rows, cross-validate subsets on the other.

    Rows are put in a canonical order, shuffled with the seed, and split:
    the first ceil(m/2) rows feed the ranking, the rest are evaluated with
    k-fold cross-validation of :func:`least_squares_regressor` fitted on
    the top-``size`` ranked columns, for each requested subset size.
    Reported MSEs are fold averages; ``mean_mse`` additionally averages
    over sizes.
    """
    require_choice(criterion, CRITERIA, "criterion")
    sizes = tuple(require_count(k, "subset size", 1) for k in sizes)
    if not sizes:
        raise InvalidInputError("sizes must not be empty")
    if any(k > dataset.n - 1 for k in sizes):
        raise InvalidInputError(f"subset sizes must be within [1, {dataset.n - 1}], got {sizes}")
    folds = require_count(folds, "folds", 2)
    if dataset.m < 2 * folds:
        raise InvalidInputError(
            f"need at least {2 * folds} rows for {folds}-fold split-half evaluation, got {dataset.m}"
        )
    target_index = dataset.index(target)
    seed = require_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    # Rows sorted by column 0, then 1, ..., so the shuffle ignores the order rows arrived in.
    shuffled = np.lexsort(dataset.batch.values[::-1])[rng.permutation(dataset.m)]
    half = math.ceil(dataset.m / 2)
    ranking_rows, eval_rows = shuffled[:half], shuffled[half:]

    ranking_half = Dataset(names=dataset.names, values=dataset.values[ranking_rows])
    ranking = rank_variables(ranking_half, target, criterion)
    ranked_names = ranking.names()

    eval_values = dataset.values[eval_rows]
    y = eval_values[:, target_index]
    fold_slices = np.array_split(np.arange(eval_rows.size), folds)
    used_ridge = False
    per_size = []
    for size in sizes:
        feature_idx = [dataset.index(name) for name in ranked_names[:size]]
        x = eval_values[:, feature_idx]
        fold_mses = []
        for validation in fold_slices:
            mask = np.ones(eval_rows.size, dtype=bool)
            mask[validation] = False
            fit = least_squares_regressor(x[mask], y[mask])
            used_ridge = used_ridge or fit.used_ridge
            residual = fit.predict(x[validation]) - y[validation]
            fold_mses.append(float(np.mean(residual * residual)))
        per_size.append(float(np.mean(fold_mses)))
    return CvSummary(
        target=target,
        criterion=criterion,
        sizes=sizes,
        folds=folds,
        seed=seed,
        ranked=ranked_names,
        per_size_mse=tuple(per_size),
        mean_mse=float(np.mean(per_size)),
        used_ridge=used_ridge,
    )
