import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minrel import (
    DataColumn,
    InvalidInputError,
    compute_ranks,
    tri_decreasing,
    tri_increasing,
    uniform_norm,
)
from minrel.ranks import centred, column_transforms, fractional_ranks

from oracles import naive_ranks


def test_compute_ranks_tie_averaging():
    ranked = compute_ranks([1.5, 0.2, 0.2, 3.0])
    assert ranked.ranks.tolist() == [3.0, 1.5, 1.5, 4.0]
    assert ranked.m == 4


def test_compute_ranks_negate_reverses_distinct_values():
    ranked = compute_ranks([10.0, 20.0, 30.0], negate=True)
    assert ranked.ranks.tolist() == [3.0, 2.0, 1.0]


def test_compute_ranks_all_tied():
    ranked = compute_ranks([5.0, 5.0, 5.0])
    assert ranked.ranks.tolist() == [2.0, 2.0, 2.0]


def test_compute_ranks_rejects_short_input():
    with pytest.raises(InvalidInputError):
        compute_ranks([1.0])


def test_compute_ranks_rejects_non_finite():
    with pytest.raises(InvalidInputError, match="non-finite"):
        compute_ranks([1.0, np.nan, 2.0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        compute_ranks([1.0, np.inf])


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
    transforms = column_transforms(values)
    column, norm = transforms.centred
    expected_column, expected_norm = centred(transforms.ranks)
    assert column.tobytes() == expected_column.tobytes()
    assert norm.tobytes() == expected_norm.tobytes()


def test_uniform_norm_examples():
    np.testing.assert_allclose(uniform_norm([10.0, 20.0]), [0.5, 1.0])
    np.testing.assert_allclose(uniform_norm([7.0, 3.0, 5.0]), [1.0, 1 / 3, 2 / 3])
    np.testing.assert_allclose(uniform_norm([4.0, 4.0]), [0.75, 0.75])


def test_tri_decreasing_examples():
    scores = tri_decreasing([10.0, 20.0]).scores
    np.testing.assert_allclose(scores, [-0.25, 0.5])
    scores = tri_decreasing([30.0, 10.0, 20.0]).scores
    np.testing.assert_allclose(scores, [0.5, 1 / 9 - 0.5, 4 / 9 - 0.5])


def test_tri_increasing_examples():
    scores = tri_increasing([10.0, 20.0]).scores
    np.testing.assert_allclose(scores, [-0.5, 0.25])


def test_triangular_mirror_identity_is_bit_exact():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(2, 80))
        values = rng.normal(size=m)
        if rng.random() < 0.5:
            values = np.round(values, 1)  # exercise ties too
        inc = tri_increasing(values).scores
        mirrored = -tri_decreasing(-values).scores
        np.testing.assert_array_equal(inc, mirrored)


def test_triangular_scores_range_and_multiset():
    rng = np.random.default_rng(5)
    m = 200
    values = rng.normal(size=m)
    dec = tri_decreasing(values).scores
    inc = tri_increasing(values).scores
    assert np.all(dec >= -0.5) and np.all(dec <= 0.5)
    assert np.all(inc >= -0.5) and np.all(inc <= 0.5)
    expected = sorted((k / m) ** 2 - 0.5 for k in range(1, m + 1))
    np.testing.assert_allclose(np.sort(dec), expected)


def test_triangular_mean_formula_exact_for_distinct_values():
    rng = np.random.default_rng(3)
    for m in (2, 5, 17, 100):
        values = rng.permutation(m).astype(float)
        mean = tri_decreasing(values).scores.mean()
        closed_form = (m + 1) * (2 * m + 1) / (6 * m * m) - 0.5
        assert mean == pytest.approx(closed_form, abs=1e-14)


def test_triangular_means_approach_one_sixth():
    rng = np.random.default_rng(41)
    values = rng.normal(size=1000)
    assert tri_decreasing(values).scores.mean() == pytest.approx(-1 / 6, abs=1e-3)
    assert tri_increasing(values).scores.mean() == pytest.approx(1 / 6, abs=1e-3)


def test_ranks_invariant_under_strictly_increasing_transforms():
    rng = np.random.default_rng(13)
    values = rng.normal(size=50)
    base = compute_ranks(values).ranks
    np.testing.assert_array_equal(compute_ranks(np.exp(values)).ranks, base)
    np.testing.assert_array_equal(compute_ranks(values**3).ranks, base)


def test_data_column_validation_and_immutability():
    column = DataColumn(np.array([1.0, 2.0, 3.0]), name="x")
    assert column.m == 3
    assert not column.values.flags.writeable
    with pytest.raises(InvalidInputError):
        DataColumn(np.array([1.0]))
    with pytest.raises(InvalidInputError):
        DataColumn(np.array([1.0, np.nan]))
