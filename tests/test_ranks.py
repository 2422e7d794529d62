import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minrel import (
    METRICS,
    Dataset,
    InvalidInputError,
    evaluate_metric,
    gen_linear,
    gen_relevance_suite_dataset,
    minrel_profile_matrix,
    pairwise_matrix,
    rank_minrelation,
)
from minrel.ranks import ColumnTransforms, as_column, centred, fractional_ranks, row_blocks

from oracles import naive_ranks


def test_compute_ranks_tie_averaging():
    ranked = ColumnTransforms([1.5, 0.2, 0.2, 3.0])
    assert ranked.ranks.tolist() == [3.0, 1.5, 1.5, 4.0]
    assert ranked.m == 4


def test_compute_ranks_negate_reverses_distinct_values():
    ranked = ColumnTransforms([10.0, 20.0, 30.0])
    assert ((ranked.m + 1) - ranked.ranks).tolist() == [3.0, 2.0, 1.0]


def test_compute_ranks_all_tied():
    ranked = ColumnTransforms([5.0, 5.0, 5.0])
    assert ranked.ranks.tolist() == [2.0, 2.0, 2.0]


def test_compute_ranks_rejects_short_input():
    with pytest.raises(InvalidInputError):
        ColumnTransforms([1.0])


def test_compute_ranks_rejects_non_finite():
    with pytest.raises(InvalidInputError, match="non-finite"):
        ColumnTransforms([1.0, np.nan, 2.0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        ColumnTransforms([1.0, np.inf])


def test_rank_sum_is_conserved_under_ties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 60))
        values = rng.integers(0, 5, m).astype(float)  # heavy ties
        ranks = fractional_ranks(values)
        assert ranks.sum() == pytest.approx(m * (m + 1) / 2, abs=1e-9)
        negated = fractional_ranks(-values)
        np.testing.assert_allclose(negated, m + 1 - ranks, atol=1e-12)


def test_distinct_values_rank_as_a_permutation():
    rng = np.random.default_rng(9)
    for m in (2, 7, 33):
        ranks = fractional_ranks(rng.permutation(m) * 1.7)
        assert sorted(ranks.tolist()) == list(range(1, m + 1))


def test_fractional_ranks_match_counting_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(2, 40))
        values = np.round(rng.normal(size=m), 1)
        np.testing.assert_array_equal(
            fractional_ranks(values), np.asarray(naive_ranks(values.tolist()))
        )


def _stable_sort_ranks(values: np.ndarray) -> np.ndarray:
    """Tie-averaged ranks from a stable sort: each value's first and last sorted position."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    first = np.searchsorted(sorted_values, sorted_values, side="left") + 1
    last = np.searchsorted(sorted_values, sorted_values, side="right")
    ranks = np.empty(values.size)
    ranks[order] = (first + last) / 2.0
    return ranks


# Few distinct values, both signed zeros among them (they tie, so such lists
# take the tie path); or distinct values, which take the tie-free shortcut.
# Lists longer than 16 reach the unstable sort's partitioning, not just its
# insertion sort.
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308]),
                st.integers(-3, 3).map(float),
            ),
            min_size=2,
            max_size=400,
        ),
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=400, unique=True
        ),
    )
)
@example(np.random.default_rng(3).normal(size=1000).tolist())
def test_fractional_ranks_equal_stable_sort_ranks_bitwise(values):
    values = np.asarray(values)
    expected = _stable_sort_ranks(values)
    assert fractional_ranks(values).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 5000),
    st.sampled_from(["distinct", "ties", "constant"]),
    st.integers(0, 2**32 - 1),
)
@example(4097, "distinct", 0)
@example(4097, "ties", 0)
@example(2, "distinct", 0)
def test_spearman_centring_equals_centred_ranks_bitwise(m, kind, seed):
    rng = np.random.default_rng(seed)
    values = {
        "distinct": rng.normal(size=m),
        "ties": rng.integers(0, 4, m).astype(float),
        "constant": np.full(m, 1.5),
    }[kind]
    transforms = ColumnTransforms(values)
    column, norm = transforms.centred
    expected_column, expected_norm = centred(transforms.ranks)
    assert column.tobytes() == expected_column.tobytes()
    assert norm.tobytes() == expected_norm.tobytes()


def _batch(m, seed, kinds, exponents):
    """A (len(kinds), m) batch, a row per kind, each row times 2**exponent.

    "ties" rows hold heavy ties and both signed zeros. Rows scaled by
    2**-520 and 2**520 differ in magnitude by 2**1040.
    """
    rng = np.random.default_rng(seed)
    rows = {
        "ties": lambda: rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -3.0], m),
        "distinct": lambda: rng.normal(size=m),
        "constant": lambda: np.full(m, -0.0 if rng.random() < 0.5 else 1.5),
    }
    return np.array([np.ldexp(rows[kind](), e) for kind, e in zip(kinds, exponents)])


BATCHES = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        st.integers(2, 400),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["ties", "distinct", "constant"]), min_size=k, max_size=k),
        st.lists(st.sampled_from([-520, 0, 520]), min_size=k, max_size=k),
    )
)


@settings(max_examples=200, deadline=None)
@given(BATCHES)
@example((400, 0, ["ties", "distinct", "constant", "ties", "distinct"], [520, -520, 0, -520, 520]))
@example((2, 1, ["distinct"] * 3, [0, 520, -520]))
def test_a_batch_ranks_each_row_as_it_ranks_alone(batch):
    values = _batch(*batch)
    ranks = fractional_ranks(values)
    assert ranks.shape == values.shape
    for row, alone in zip(ranks, values):
        assert row.tobytes() == fractional_ranks(alone).tobytes()


@settings(max_examples=200, deadline=None)
@given(BATCHES)
@example((400, 0, ["ties", "distinct", "constant", "ties", "distinct"], [520, -520, 0, -520, 520]))
def test_a_batch_column_has_each_rows_views(batch):
    rows = _batch(*batch)
    columns = [ColumnTransforms(row) for row in rows]
    stacked = ColumnTransforms._batch(list(rows), ["x"] * len(rows))
    assert stacked.m == columns[0].m and not stacked.values.flags.writeable
    assert stacked.name is None and not np.shares_memory(stacked.values, rows)
    for i, column in enumerate(columns):
        for view in ("values", "ranks", "dec", "inc"):
            assert getattr(stacked, view)[i].tobytes() == getattr(column, view).tobytes()
        for view in ("centred", "centred_values"):
            (batch_column, batch_norm), (own_column, own_norm) = (
                getattr(stacked, view), getattr(column, view)
            )
            assert batch_column[i].tobytes() == own_column.tobytes()
            assert batch_norm[i].tobytes() == own_norm.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.integers(1, 60), st.integers(0, 8 * 60 * 40), st.integers(0, 320))
@example(10, 3, 8 * 3 * 4, 1)  # blocks of 4 rows from row 1: 4, 4 and a last 1
def test_row_blocks_cover_the_rows_from_start_once_in_order(n, m, budget, start):
    width = max(1, budget // (8 * m))
    blocks = [range(n)[block] for block in row_blocks(n, m, budget, start)]
    assert [row for rows in blocks for row in rows] == list(range(start, n))
    assert all(len(rows) == width for rows in blocks[:-1])
    assert all(1 <= len(rows) <= width for rows in blocks[-1:])


def test_uniform_norm_examples():
    for values, expected in (
        ([10.0, 20.0], [0.5, 1.0]),
        ([7.0, 3.0, 5.0], [1.0, 1 / 3, 2 / 3]),
        ([4.0, 4.0], [0.75, 0.75]),
    ):
        column = ColumnTransforms(values)
        np.testing.assert_allclose(column.ranks / column.m, expected)


def test_tri_decreasing_examples():
    scores = ColumnTransforms([10.0, 20.0]).dec
    np.testing.assert_allclose(scores, [-0.25, 0.5])
    scores = ColumnTransforms([30.0, 10.0, 20.0]).dec
    np.testing.assert_allclose(scores, [0.5, 1 / 9 - 0.5, 4 / 9 - 0.5])


def test_tri_increasing_examples():
    scores = ColumnTransforms([10.0, 20.0]).inc
    np.testing.assert_allclose(scores, [-0.5, 0.25])


def test_triangular_mirror_identity_is_bit_exact():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(2, 80))
        values = rng.normal(size=m)
        if rng.random() < 0.5:
            values = np.round(values, 1)  # exercise ties too
        inc = ColumnTransforms(values).inc
        mirrored = -ColumnTransforms(-values).dec
        assert inc.tobytes() == mirrored.tobytes()


def test_triangular_scores_range_and_multiset():
    rng = np.random.default_rng(5)
    m = 200
    values = rng.normal(size=m)
    column = ColumnTransforms(values)
    dec, inc = column.dec, column.inc
    assert np.all(dec >= -0.5) and np.all(dec <= 0.5)
    assert np.all(inc >= -0.5) and np.all(inc <= 0.5)
    expected = sorted((k / m) ** 2 - 0.5 for k in range(1, m + 1))
    np.testing.assert_allclose(np.sort(dec), expected)


def test_triangular_mean_formula_exact_for_distinct_values():
    rng = np.random.default_rng(3)
    for m in (2, 5, 17, 100):
        values = rng.permutation(m).astype(float)
        mean = ColumnTransforms(values).dec.mean()
        closed_form = (m + 1) * (2 * m + 1) / (6 * m * m) - 0.5
        assert mean == pytest.approx(closed_form, abs=1e-14)


def test_triangular_means_approach_one_sixth():
    rng = np.random.default_rng(41)
    values = rng.normal(size=1000)
    column = ColumnTransforms(values)
    assert column.dec.mean() == pytest.approx(-1 / 6, abs=1e-3)
    assert column.inc.mean() == pytest.approx(1 / 6, abs=1e-3)


def test_ranks_invariant_under_strictly_increasing_transforms():
    rng = np.random.default_rng(13)
    values = rng.normal(size=50)
    base = ColumnTransforms(values).ranks
    np.testing.assert_array_equal(ColumnTransforms(np.exp(values)).ranks, base)
    np.testing.assert_array_equal(ColumnTransforms(values**3).ranks, base)


def test_column_transforms_validation_and_immutability():
    column = ColumnTransforms(np.array([1.0, 2.0, 3.0]), name="x")
    assert column.m == 3
    assert not column.values.flags.writeable
    with pytest.raises(InvalidInputError):
        ColumnTransforms(np.array([1.0]))
    with pytest.raises(InvalidInputError):
        ColumnTransforms(np.array([1.0, np.nan]))


BAD_COLUMNS = {
    "nan": ([0.0, np.nan, 1.0], "column contains a non-finite value at index 1"),
    "inf": ([0.0, 1.0, np.inf], "column contains a non-finite value at index 2"),
    "-inf": ([-np.inf, 1.0], "column contains a non-finite value at index 0"),
    "one-sample": ([1.0], "column needs at least 2 samples, got 1"),
    "2-d": (np.ones((3, 2)), "column must be one-dimensional, got shape (3, 2)"),
    "strings": (["a", "b"], "column must hold numbers: could not convert string to float: 'a'"),
}


@pytest.mark.parametrize("data, message", BAD_COLUMNS.values(), ids=BAD_COLUMNS.keys())
def test_column_rejects_what_the_array_path_rejects(data, message):
    # The constructor and every array entry point raise the same message; a
    # direct call names its argument.
    for build in (ColumnTransforms, as_column):
        with pytest.raises(InvalidInputError) as error:
            build(data)
        assert str(error.value) == message
    with pytest.raises(InvalidInputError) as error:
        ColumnTransforms(data, name="A")
    assert str(error.value) == message.replace("column", "A", 1)
    with pytest.raises(InvalidInputError) as error:
        rank_minrelation([0.0, 1.0, 2.0], data)
    assert str(error.value) == message.replace("column", "y", 1)


def test_column_is_a_read_only_copy_of_its_source():
    source = np.array([3.0, 1.0, 2.0, 5.0])
    other = np.array([1.0, 2.0, 3.0, 4.0])
    column = ColumnTransforms(source)
    views = column.values, column.ranks, column.dec, column.inc
    before = [view.tobytes() for view in views]
    expected = {metric: evaluate_metric(source.copy(), other, metric) for metric in METRICS}
    assert {metric: evaluate_metric(column, other, metric) for metric in METRICS} == expected
    for view in views:
        assert not view.flags.writeable
    with pytest.raises(ValueError):
        column.values[0] = 0.0
    source[:] = -source
    assert [view.tobytes() for view in views] == before
    assert {metric: evaluate_metric(column, other, metric) for metric in METRICS} == expected


@pytest.mark.parametrize("make", [np.array, list, ColumnTransforms], ids=["array", "list", "column"])
def test_rank_and_score_results_are_read_only(make):
    # One kind of array from every path: the views a column shares.
    column = as_column(make([3.0, 1.0, 2.0]))
    for result in (column.ranks, column.dec, column.inc):
        assert not result.flags.writeable
        with pytest.raises(ValueError):
            result[0] = 0.0


def _small_dataset():
    return Dataset.from_columns({"x": [1.0, 2.0, 3.0], "y": [2.0, 1.0, 0.5]})


HOLDERS = {
    "ColumnTransforms": lambda: ColumnTransforms([1.0, 2.0]),
    "Dataset": _small_dataset,
    "CoefficientMatrix": lambda: pairwise_matrix(_small_dataset(), "iota"),
    "ProfileMatrix": lambda: minrel_profile_matrix(_small_dataset()),
    "GeneratedDataset": lambda: gen_linear(10, 0),
    "RelevanceSuiteDataset": lambda: gen_relevance_suite_dataset(10, 0),
}


@pytest.mark.parametrize("build", HOLDERS.values(), ids=HOLDERS.keys())
def test_array_holders_compare_by_identity_and_hash(build):
    first, second = build(), build()
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2
