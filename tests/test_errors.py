"""Every integer argument and every name in the public API has one check and one message."""

import numpy as np
import pytest

from minrel import (
    CRITERIA,
    EXPERIMENTS,
    MATRIX_METRICS,
    METRICS,
    Dataset,
    InvalidInputError,
    average_position,
    compare_criteria,
    evaluate_metric,
    gen_combined,
    gen_linear,
    gen_multiplication,
    gen_relevance_suite_dataset,
    gen_triangle_pair,
    pairwise_matrix,
    rank_variables,
    run_experiment,
)
from minrel.cli import NA_POLICIES, read_dataset

GENERATORS = (gen_multiplication, gen_linear, gen_combined, gen_triangle_pair)
SUITE = gen_relevance_suite_dataset(20, seed=0)
LINEAR = gen_linear(30, seed=23).dataset

#: Each case: the argument's name, the least value it accepts, and a call
#: that passes ``value`` as that argument and valid values for the rest.
CASES = {
    "reps": ("reps", 1, lambda v: run_experiment("table2", reps=v, m=30, seed=0)),
    "m-experiment": ("m", 2, lambda v: run_experiment("table2", reps=1, m=v, seed=0)),
    "seed-experiment": ("seed", 0, lambda v: run_experiment("table2", reps=1, m=30, seed=v)),
    **{f"m-{g.__name__}": ("m", 2, lambda v, g=g: g(v, seed=0)) for g in GENERATORS},
    **{f"seed-{g.__name__}": ("seed", 0, lambda v, g=g: g(10, seed=v)) for g in GENERATORS},
    "m-suite": ("m", 2, lambda v: gen_relevance_suite_dataset(v, seed=0)),
    "seed-suite": ("seed", 0, lambda v: gen_relevance_suite_dataset(10, seed=v)),
    "factor-count": (
        "factor count", 1, lambda v: gen_relevance_suite_dataset(10, 0, factor_counts=(2, v))
    ),
    "n_noise": ("n_noise", 0, lambda v: gen_relevance_suite_dataset(10, 0, n_noise=v)),
    "min_relevant": (
        "min_relevant", 1, lambda v: compare_criteria(SUITE.dataset, SUITE.targets, min_relevant=v)
    ),
    "rows_dropped": (
        "rows_dropped", 0, lambda v: Dataset(("a", "b"), [[1, 2], [3, 4]], rows_dropped=v)
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_integer_arguments_share_one_check(case):
    name, least, call = case
    for value in (least + 0.5, True, least - 1):
        with pytest.raises(InvalidInputError) as raised:
            call(value)
        assert str(raised.value) == f"{name} must be an integer >= {least}, got {value!r}"


#: Each case: what the name names, the names accepted, and a call that
#: passes ``value`` as that name and valid values for the rest.
NAME_CASES = {
    "evaluate_metric": ("metric", METRICS, lambda v: evaluate_metric([1, 2], [2, 1], v)),
    "pairwise_matrix": ("metric", MATRIX_METRICS, lambda v: pairwise_matrix(LINEAR, v)),
    "rank_variables": ("criterion", CRITERIA, lambda v: rank_variables(LINEAR, "A", v)),
    "compare_criteria-a": (
        "criterion", CRITERIA, lambda v: compare_criteria(SUITE.dataset, {}, criterion_a=v)
    ),
    "compare_criteria-b": (
        "criterion", CRITERIA, lambda v: compare_criteria(SUITE.dataset, {}, criterion_b=v)
    ),
    "run_experiment": ("experiment", EXPERIMENTS, lambda v: run_experiment(v, 1, 10, 0)),
    "read_dataset": ("NA policy", NA_POLICIES, lambda v: read_dataset("absent.csv", v)),
}


@pytest.mark.parametrize("case", NAME_CASES.values(), ids=NAME_CASES.keys())
@pytest.mark.parametrize(
    "value",
    ["no-such", ["iota"], None, np.array(["iota", "x"])],
    ids=["string", "list", "none", "array"],
)
def test_names_share_one_check(case, value):
    what, choices, call = case
    with pytest.raises(InvalidInputError) as raised:
        call(value)
    assert str(raised.value) == f"unknown {what} {value!r}; expected one of {choices}"


def _fresh_suite():
    """A dataset whose columns have not been sorted yet, and its targets."""
    suite = gen_relevance_suite_dataset(20, seed=0)
    return suite.dataset, suite.targets


@pytest.mark.parametrize(
    "call",
    [
        # No target qualifies, so no ranking would run to find the bad name.
        lambda ds, targets: compare_criteria(ds, targets, criterion_a="bogus", min_relevant=99),
        # A valid criterion_a must not rank anything before criterion_b is checked.
        lambda ds, targets: compare_criteria(ds, targets, criterion_b="bogus"),
        # A string is one name, not a set of relevant columns.
        lambda ds, targets: compare_criteria(ds, {next(iter(targets)): "AB"}),
    ],
    ids=["compare-no-target", "compare-criterion-b", "compare-string-relevant"],
)
def test_arguments_are_checked_before_any_column_is_sorted(sort_counter, call):
    with pytest.raises(InvalidInputError):
        call(*_fresh_suite())
    assert len(sort_counter) == 0


def test_a_string_is_not_a_set_of_relevant_columns():
    # On columns T, A, B and AB, the string "AB" would have averaged columns A and B.
    ds = Dataset(("T", "A", "B", "AB"), [[1, 4, 2, 1], [2, 3, 1, 2], [3, 2, 4, 3], [4, 1, 3, 4]])
    ranking = rank_variables(ds, "T", "rho2")
    assert average_position(ranking, ["AB"]).avg_position == ranking.position("AB")
    with pytest.raises(InvalidInputError) as raised:
        average_position(ranking, "AB")
    assert str(raised.value) == "relevant must be a collection of names, got the string 'AB'"
    with pytest.raises(InvalidInputError) as raised:
        compare_criteria(ds, {"T": "AB"})
    assert str(raised.value) == "relevant['T'] must be a collection of names, got the string 'AB'"


def test_a_string_is_not_a_list_of_dataset_names():
    # "AB" would have named two columns, A and B.
    with pytest.raises(InvalidInputError) as raised:
        Dataset("AB", [[1, 2], [3, 4], [5, 1]])
    assert str(raised.value) == "dataset names must be a collection of names, got the string 'AB'"
    assert Dataset(["AB"], [[1], [3], [5]]).names == ("AB",)
