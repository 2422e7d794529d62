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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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
        ranking_a = rank_variables(dataset, target, criterion_a)
        avg_a = average_position(ranking_a, known).avg_position
        ranking_b = rank_variables(dataset, target, criterion_b)
        avg_b = average_position(ranking_b, known).avg_position
        if avg_a < avg_b:
            outcome = "win"
        elif avg_b < avg_a:
            outcome = "loss"
        else:
            outcome = "draw"
        outcomes.append(
            TargetOutcome(
                target=target,
                avg_position_a=avg_a,
                avg_position_b=avg_b,
                outcome=outcome,
            )
        )
    return WinLossRecord(
        criterion_a=criterion_a,
        criterion_b=criterion_b,
        outcomes=tuple(outcomes),
    )

