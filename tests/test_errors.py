"""Every integer argument of the public API goes through one check with one message."""

import pytest

from minrel import (
    InvalidInputError,
    compare_criteria,
    gen_combined,
    gen_linear,
    gen_multiplication,
    gen_relevance_suite_dataset,
    gen_triangle_pair,
    minrel_profile_matrix,
    pairwise_matrix,
    run_experiment,
    split_half_cv_eval,
)

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
    "folds": ("folds", 2, lambda v: split_half_cv_eval(LINEAR, "A", "rho2", (2,), v, 0)),
    "subset-size": ("subset size", 1, lambda v: split_half_cv_eval(LINEAR, "A", "rho2", (v,), 2, 0)),
    "seed-split-half": ("seed", 0, lambda v: split_half_cv_eval(LINEAR, "A", "rho2", (2,), 2, v)),
    "workers-matrix": ("workers", 1, lambda v: pairwise_matrix(LINEAR, "iota", workers=v)),
    "workers-profile": ("workers", 1, lambda v: minrel_profile_matrix(LINEAR, workers=v)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_integer_arguments_share_one_check(case):
    name, least, call = case
    for value in (least + 0.5, True, least - 1):
        with pytest.raises(InvalidInputError) as raised:
            call(value)
        assert str(raised.value) == f"{name} must be an integer >= {least}, got {value!r}"
