"""One transform builder and one metric table.

Every entry point (direct calls, matrices, ranking) applies the same pair
function to the same transforms, so their results agree bit for bit, and
each column is sorted once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minrel import (
    CRITERIA,
    METRICS,
    Dataset,
    InvalidInputError,
    evaluate_metric,
    iota2,
    iota_oriented,
    iota_raw_indicator,
    iota_raw_squared,
    max_iota_sq,
    minrel_profile,
    minrel_profile_matrix,
    minrel_simple,
    p_leq_hat,
    pairwise_matrix,
    pearson,
    rank_minrelation,
    rank_variables,
    spearman,
)
from minrel.matrix import MATRIX_METRICS
from minrel.ranks import (
    ColumnTransforms,
    decreasing_scores_from_ranks,
    fractional_ranks,
    increasing_scores_from_ranks,
)

# Heavy ties, both signed zeros and extreme magnitudes.
POOL = (0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 1.7e308)
VALUES = st.one_of(
    st.sampled_from(POOL),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _square(value: float) -> float:
    return value * value


@st.composite
def datasets(draw, min_n=2, max_n=4):
    m = draw(st.integers(2, 12))
    n = draw(st.integers(min_n, max_n))
    cells = draw(st.lists(VALUES, min_size=m * n, max_size=m * n))
    values = np.asarray(cells, dtype=float).reshape(m, n)
    return Dataset(names=tuple(f"c{j}" for j in range(n)), values=values)


#: The metrics whose ``prepare`` reads a rank view; the rest use raw values.
RANK_METRICS = frozenset({"spearman", "iota", "iota2", "max_iota_sq"})


@pytest.mark.parametrize(
    "function, sorts",
    [
        (rank_minrelation, 2),
        (minrel_profile, 2),
        (max_iota_sq, 2),
        (iota2, 2),
        (lambda x, y: iota_oriented(x, y, -1, -1), 2),
        (spearman, 2),
        (pearson, 0),
        (minrel_simple, 0),
        (p_leq_hat, 0),
        (iota_raw_indicator, 0),
        (iota_raw_squared, 0),
    ],
)
def test_direct_calls_sort_each_column_once(sort_counter, function, sorts):
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 25))
    function(x, y)
    assert len(sort_counter) == sorts
    # Given transforms, the first call sorts what it reads and the second
    # reuses it; a metric on raw values never sorts.
    prepared = ColumnTransforms(x), ColumnTransforms(y)
    sort_counter.clear()
    function(*prepared)
    function(*prepared)
    assert len(sort_counter) == sorts


@pytest.mark.parametrize("metric", METRICS)
def test_direct_calls_take_prepared_transforms_without_sorting(sort_counter, metric):
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(2, 25))
    expected = evaluate_metric(x, y, metric)
    prepared = ColumnTransforms(x), ColumnTransforms(y)
    sort_counter.clear()
    first = evaluate_metric(*prepared, metric)
    assert len(sort_counter) == (2 if metric in RANK_METRICS else 0)
    sort_counter.clear()
    second = evaluate_metric(*prepared, metric)
    assert len(sort_counter) == 0
    for result in (first, second):
        assert _bits(result.value) == _bits(expected.value)
        assert result.degenerate == expected.degenerate


def test_profile_and_spearman_take_prepared_transforms(sort_counter):
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 25))
    expected = minrel_profile(x, y), spearman(x, y)
    prepared = ColumnTransforms(x), ColumnTransforms(y)
    sort_counter.clear()
    assert (minrel_profile(*prepared), spearman(*prepared)) == expected
    assert len(sort_counter) == 2
    assert (minrel_profile(*prepared), spearman(*prepared)) == expected
    assert len(sort_counter) == 2
    with pytest.raises(InvalidInputError, match="length"):
        spearman(prepared[0], ColumnTransforms(y[:-1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, min_size=2, max_size=20))
def test_builder_negation_matches_ranking_the_negated_column(cells):
    x = np.asarray(cells, dtype=float)
    m = x.size
    built = ColumnTransforms(x)
    negated_ranks = fractional_ranks(np.negative(x))
    assert ((m + 1) - built.ranks).tobytes() == negated_ranks.tobytes()
    assert built.inc.tobytes() == increasing_scores_from_ranks(negated_ranks, m).tobytes()
    assert (-built.inc).tobytes() == decreasing_scores_from_ranks(negated_ranks, m).tobytes()
    # dec(-X) == -inc(X) and inc(-X) == -dec(X), which the mass table of
    # coeff._orientations reads; negation is exact, so both ways round.
    flipped = ColumnTransforms(np.negative(x))
    assert flipped.ranks.tobytes() == negated_ranks.tobytes()
    assert flipped.dec.tobytes() == (-built.inc).tobytes()
    assert flipped.inc.tobytes() == (-built.dec).tobytes()
    assert (-flipped.inc).tobytes() == built.dec.tobytes()
    assert (-flipped.dec).tobytes() == built.inc.tobytes()


DIRECT = {
    "pearson": pearson,
    "spearman": spearman,
    "iota": rank_minrelation,
    "iota2": iota2,
    "minrel_simple": minrel_simple,
}


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_matrix_cell_equals_direct_call(ds):
    for metric in MATRIX_METRICS:
        matrix = pairwise_matrix(ds, metric)
        for i in range(ds.n):
            for j in range(ds.n):
                x, y = ds.values[:, i], ds.values[:, j]
                direct = evaluate_metric(x, y, metric)
                assert _bits(matrix.values[i, j]) == _bits(direct.value)
                assert matrix.degenerate[i, j] == direct.degenerate
                if metric == "max_iota_sq":
                    named = max_iota_sq(x, y)
                else:
                    named = DIRECT[metric](x, y).value
                assert _bits(named) == _bits(direct.value)
    # The profile matrix and the max_iota_sq kernel share one four-mass
    # kernel; these direct calls form each orientation alone.
    profiles = minrel_profile_matrix(ds)
    maps = (profiles.iota_xy, profiles.iota_yx, profiles.iota_negx_y, profiles.iota_negy_x)
    for i in range(ds.n):
        for j in range(ds.n):
            x, y = ds.values[:, i], ds.values[:, j]
            oriented = (
                rank_minrelation(x, y),
                rank_minrelation(y, x),
                iota_oriented(x, y, -1, 1),
                iota_oriented(y, x, -1, 1),
            )
            for k, (cells, single) in enumerate(zip(maps, oriented)):
                assert _bits(cells[i, j]) == _bits(single.value)
                assert profiles.degenerate[i, j, k] == single.degenerate


@settings(max_examples=150, deadline=None)
@given(datasets(min_n=3))
def test_ranking_score_equals_direct_call_and_matrix_cell(ds):
    matrices = {
        metric: pairwise_matrix(ds, metric) for metric in ("spearman", "max_iota_sq", "iota")
    }
    target = 0
    for criterion in CRITERIA:
        scores = dict(rank_variables(ds, ds.names[target], criterion).ordered)
        for j in range(1, ds.n):
            candidate, goal = ds.values[:, j], ds.values[:, target]
            if criterion == "rho2":
                direct = _square(spearman(candidate, goal).value)
                cell = _square(matrices["spearman"].values[j, target])
            elif criterion == "max_iota_sq":
                direct = max_iota_sq(candidate, goal)
                cell = matrices["max_iota_sq"].values[j, target]
            else:
                direct = _square(rank_minrelation(goal, candidate).value)
                cell = _square(matrices["iota"].values[target, j])
            assert _bits(scores[ds.names[j]]) == _bits(direct) == _bits(cell)
