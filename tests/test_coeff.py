import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minrel.ranks
from minrel import (
    InvalidInputError,
    iota2,
    iota_oriented,
    iota_raw_indicator,
    iota_raw_squared,
    max_iota_sq,
    minrel_profile,
    minrel_simple,
    p_leq_hat,
    pearson,
    rank_minrelation,
    spearman,
)
from minrel.coeff import CoefficientValue, _orientations
from minrel.ranks import (
    ColumnTransforms,
    decreasing_scores_from_ranks,
    fractional_ranks,
    increasing_scores_from_ranks,
)

from oracles import (
    naive_oriented,
    naive_pearson,
    naive_rank_minrelation,
    naive_spearman,
)


def test_coefficient_value_converts_to_its_value():
    assert float(CoefficientValue(-0.25, degenerate=True)) == -0.25
    result = rank_minrelation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert float(result) == result.value


def test_p_leq_hat_examples():
    assert p_leq_hat([1.0, 2.0], [2.0, 3.0]) == 1.0
    assert p_leq_hat([3.0, 4.0], [1.0, 2.0]) == 0.0
    assert p_leq_hat([1.0, 5.0, 2.0], [2.0, 4.0, 2.0]) == pytest.approx(2 / 3)


def test_minrel_simple_examples():
    assert minrel_simple([1.0, 2.0], [2.0, 3.0]).value == 1.0
    assert minrel_simple([1.0, 4.0], [2.0, 3.0]).value == 0.0
    with pytest.raises(InvalidInputError):
        minrel_simple([3.0], [1.0])


def test_length_mismatch_is_rejected():
    with pytest.raises(InvalidInputError, match="length"):
        rank_minrelation([1.0, 2.0, 3.0], [1.0, 2.0])


def test_iota_raw_indicator_examples():
    result = iota_raw_indicator([-0.4, -0.1, 0.2], [0.3, 0.2, 0.4])
    assert result.value == 1.0 and not result.degenerate
    result = iota_raw_indicator([0.3, 0.1], [-0.4, -0.2])
    assert result.value == -1.0
    result = iota_raw_indicator([-0.3, -0.2], [-0.1, 0.1])
    assert result.value == 0.0 and result.degenerate


def test_iota_raw_indicator_with_python_int_counts(monkeypatch):
    # numpy releases before 2.3 return a Python int from an axis-free
    # count_nonzero; the degenerate mask must not depend on that type.
    count_nonzero = np.count_nonzero

    def python_int_count(a, axis=None, **kwargs):
        if axis is None:
            return int(count_nonzero(a))
        return count_nonzero(a, axis=axis, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", python_int_count)
    result = iota_raw_indicator([-0.3, -0.2], [-0.1, 0.1])
    assert result.value == 0.0 and result.degenerate
    result = iota_raw_indicator([-0.4, -0.1, 0.2], [0.3, 0.2, 0.4])
    assert result.value == 1.0 and not result.degenerate


def test_iota_raw_squared_examples():
    assert iota_raw_squared([0.5, -0.5], [0.5, 0.5]).value == 1.0
    assert iota_raw_squared([0.4, -0.3], [-0.2, 0.1]).value == pytest.approx(-0.8)


@pytest.mark.parametrize("exponent", [-600, 600])
def test_iota_raw_squared_is_exact_under_power_of_two_scaling(exponent):
    # Unscaled, these squares underflow to zero or overflow to inf.
    x = np.array([0.4, -0.3, 0.25])
    y = np.array([-0.2, 0.1, 0.5])
    scaled = iota_raw_squared(np.ldexp(x, exponent), np.ldexp(y, exponent))
    assert scaled == iota_raw_squared(x, y)


def test_iota_raw_squared_of_huge_values_is_finite():
    result = iota_raw_squared([1e300, -1e300, 3.0], [1.0, 2.0, 1e300])
    assert result.value == pytest.approx(1 / 3, abs=1e-15)
    assert not result.degenerate


def test_iota_raw_squared_negation_is_exact():
    x = np.array([-0.1, -0.2])
    y = np.array([0.3, 0.4])
    assert iota_raw_squared(x, -y).value == -iota_raw_squared(x, y).value


def test_rank_minrelation_hand_computed_value():
    # x~ = [-0.389, -0.056, 0.5], support mass 1.0, violation mass 2*(1/9)^2
    result = rank_minrelation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.value == pytest.approx(79 / 83, abs=1e-12)
    assert not result.degenerate


def test_rank_minrelation_constant_columns_degenerate_not_error():
    result = rank_minrelation([2.0, 2.0, 2.0], [5.0, 5.0, 5.0])
    assert result.value == 0.0
    assert result.degenerate


def test_iota_oriented_identity_signs_and_validation():
    x = [0.3, 1.2, -0.5, 2.0]
    y = [1.0, 0.2, 0.4, -0.3]
    assert iota_oriented(x, y, 1, 1) == rank_minrelation(x, y)
    with pytest.raises(InvalidInputError):
        iota_oriented(x, y, 0, 1)
    with pytest.raises(InvalidInputError):
        iota_oriented(x, y, 1, 2)


@pytest.mark.parametrize("sign", [True, 1.0, 0, 2, np.int64(-1)])
def test_iota_oriented_accepts_only_integer_signs(sign):
    x = [0.3, 1.2, -0.5, 2.0]
    y = [1.0, 0.2, 0.4, -0.3]
    if isinstance(sign, np.integer):
        assert iota_oriented(x, y, sign, sign) == iota_oriented(x, y, -1, -1)
        return
    for signs, name in (((sign, 1), "sign_x"), ((1, sign), "sign_y")):
        with pytest.raises(InvalidInputError) as error:
            iota_oriented(x, y, *signs)
        assert str(error.value) == f"{name} must be +1 or -1, got {sign!r}"


def test_iota_oriented_sign_flip_negates_exactly():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = int(rng.integers(2, 50))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        for sx in (1, -1):
            plus = iota_oriented(x, y, sx, 1).value
            minus = iota_oriented(x, y, sx, -1).value
            assert minus == -plus  # bit-exact


def test_iota_oriented_matches_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(2, 30))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        for sx in (1, -1):
            for sy in (1, -1):
                fast = iota_oriented(x, y, sx, sy).value
                slow = naive_oriented(x.tolist(), y.tolist(), sx, sy)
                assert fast == pytest.approx(slow, abs=1e-12)


def test_iota2_is_the_reversed_negated_coefficient():
    rng = np.random.default_rng(37)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        assert iota2(x, y) == iota_oriented(y, x, -1, -1)
        assert iota2(x, y).value == rank_minrelation(-y, -x).value


def test_iota2_identical_columns_near_one():
    rng = np.random.default_rng(43)
    x = rng.normal(size=1000)
    assert iota2(x, x).value > 0.999


def test_iota2_close_to_iota_on_continuous_draws():
    # Per-draw for the structured pair; rep-averaged for the independent
    # pair, where each coefficient is itself null noise of sd ~0.07.
    rng = np.random.default_rng(47)
    independent_iota, independent_iota2 = [], []
    for _ in range(20):
        b = rng.random(1000)
        c = rng.random(1000)
        a = b * c
        assert abs(iota2(a, b).value - rank_minrelation(a, b).value) <= 0.05
        independent_iota.append(rank_minrelation(b, c).value)
        independent_iota2.append(iota2(b, c).value)
    assert abs(np.mean(independent_iota) - np.mean(independent_iota2)) <= 0.05


def test_diagonal_symmetry_at_large_m():
    rng = np.random.default_rng(53)
    independent_gaps = []
    for _ in range(20):
        b = rng.random(1000)
        c = rng.random(1000)
        a = b * c
        gap = abs(rank_minrelation(a, b).value - rank_minrelation(-b, -a).value)
        assert gap <= 0.05
        independent_gaps.append(
            rank_minrelation(b, c).value - rank_minrelation(-c, -b).value
        )
    assert abs(np.mean(independent_gaps)) <= 0.05


def test_max_iota_sq_is_max_of_four_squared_orientations():
    # Normal, tie-heavy and constant columns; a constant column makes every
    # orientation a degenerate zero. Compared bit for bit.
    rng = np.random.default_rng(59)
    draws = (
        lambda m: rng.normal(size=m),
        lambda m: rng.integers(0, 3, size=m).astype(float),
        lambda m: np.full(m, 2.5),
    )
    for _ in range(50):
        m = int(rng.integers(2, 60))
        for x, y in ((draw_x(m), draw_y(m)) for draw_x in draws for draw_y in draws):
            profile = minrel_profile(x, y)
            oriented = (
                rank_minrelation(x, y).value,
                rank_minrelation(y, x).value,
                iota_oriented(x, y, -1, 1).value,
                iota_oriented(y, x, -1, 1).value,
            )
            expected = struct.pack("<d", max(v * v for v in oriented))
            assert struct.pack("<d", profile.max_iota_sq) == expected
            assert struct.pack("<d", max_iota_sq(x, y)) == expected
            assert struct.pack("<d", max_iota_sq(y, x)) == expected  # symmetric


def test_orientation_fingerprint_on_noisy_product_family():
    # Every orientation has a distinct reference level on this family, so a
    # swapped sign convention anywhere would show up immediately.
    from minrel import gen_combined

    references = {
        "B": {"xy": 0.97, "negy_x": -0.98, "negx_y": -0.69, "yx": 0.64},
        "G": {"xy": 0.92, "negy_x": -0.87, "negx_y": -0.78, "yx": 0.85},
    }
    sums = {tag: {key: 0.0 for key in refs} for tag, refs in references.items()}
    reps = 40
    for rep in range(reps):
        ds = gen_combined(1000, seed=8800 + rep).dataset
        a = ds.column("A")
        for tag in references:
            profile = minrel_profile(a, ds.column(tag))
            sums[tag]["xy"] += profile.iota_xy.value
            sums[tag]["negy_x"] += profile.iota_negy_x.value
            sums[tag]["negx_y"] += profile.iota_negx_y.value
            sums[tag]["yx"] += profile.iota_yx.value
    for tag, refs in references.items():
        for key, reference in refs.items():
            assert sums[tag][key] / reps == pytest.approx(reference, abs=0.03)


def test_max_iota_sq_rep_averaged_levels():
    from minrel import gen_multiplication

    structured, null = [], []
    for rep in range(60):
        ds = gen_multiplication(1000, seed=5000 + rep).dataset
        structured.append(max_iota_sq(ds.column("A"), ds.column("B")))
        null.append(max_iota_sq(ds.column("B"), ds.column("C")))
    assert abs(np.mean(structured) - 0.98) <= 0.02
    # Each orientation's squared null mean is ~0.005 at m=1000; taking the
    # max over the four inflates the average to ~0.010.
    assert np.mean(null) <= 0.02
    assert np.mean(null) == pytest.approx(0.010, abs=0.004)


def test_self_coefficient_close_to_one():
    rng = np.random.default_rng(61)
    for m in (10, 50, 1000):
        x = rng.normal(size=m)
        assert rank_minrelation(x, x).value >= 0.999
    x = rng.normal(size=1000)
    assert max_iota_sq(x, x) >= 0.998


def test_perfect_minrelation_gives_exactly_one():
    # Tied integer data can produce a zero violation mass with positive
    # support mass; the coefficient must then be exactly +1.
    rng = np.random.default_rng(67)
    premise_hits = 0
    for _ in range(30000):
        m = int(rng.integers(2, 9))
        x = rng.integers(0, 4, m).astype(float)
        y = rng.integers(0, 4, m).astype(float)
        x_dec = decreasing_scores_from_ranks(fractional_ranks(x), m)
        y_dec = decreasing_scores_from_ranks(fractional_ranks(y), m)
        y_inc = increasing_scores_from_ranks(fractional_ranks(-y), m)
        if not np.any(x_dec > y_inc) and np.any(x_dec > -y_dec):
            premise_hits += 1
            assert rank_minrelation(x, y).value == 1.0
    assert premise_hits > 0  # the property was actually exercised


def test_bounds_on_adversarial_inputs():
    rng = np.random.default_rng(71)
    adversarial = [
        (np.zeros(5), np.zeros(5)),
        (np.zeros(5), rng.normal(size=5)),
        (np.array([1.0, 1.0, 2.0, 2.0]), np.array([3.0, 3.0, 3.0, 0.0])),
        (np.repeat([1e12, -1e12], 5), np.repeat([-1e-12, 1e-12], 5)),
        (rng.integers(0, 2, 20).astype(float), rng.integers(0, 2, 20).astype(float)),
    ]
    for x, y in adversarial:
        for fn in (rank_minrelation, iota2, pearson, spearman, minrel_simple,
                   iota_raw_indicator, iota_raw_squared):
            result = fn(x, y)
            assert -1.0 <= result.value <= 1.0
            if result.degenerate:
                assert result.value == 0.0
        assert 0.0 <= max_iota_sq(x, y) <= 1.0


def test_pearson_examples():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]).value == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]).value == pytest.approx(-1.0)
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]).value == pytest.approx(0.5)
    constant = pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert constant.degenerate and constant.value == 0.0


def test_pearson_reuses_a_columns_centred_values(monkeypatch):
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=50), rng.normal(size=50)
    x, y = ColumnTransforms(a), ColumnTransforms(b)
    calls = []
    original = minrel.ranks.centred
    monkeypatch.setattr(minrel.ranks, "centred", lambda v: calls.append(v) or original(v))
    first = pearson(x, y)
    assert len(calls) == 2
    cached = x.centred_values
    second = pearson(x, y)
    assert len(calls) == 2 and x.centred_values is cached
    assert second == first == pearson(a, b)


def test_pearson_survives_an_underflowing_variance_product():
    tiny = [0.0, 1e-140, 3e-140]
    assert pearson(tiny, tiny).value == pytest.approx(1.0)
    assert pearson(tiny, [0.0, -1e-140, -3e-140]).value == pytest.approx(-1.0)


@pytest.mark.parametrize("scale", [1e300, 1e200, 1e-200, 1e-300, 1.7e308, 2.0**-1072])
def test_pearson_at_extreme_magnitudes(scale):
    x = np.array([1.0, -1.0, 0.5]) * scale
    assert pearson(x, x).value == 1.0
    assert pearson(x, -x).value == -1.0
    assert pearson(x, [3.0, -1.0, 2.0]).value == pytest.approx(
        pearson([1.0, -1.0, 0.5], [3.0, -1.0, 2.0]).value, abs=1e-15
    )


def test_spearman_monotone_invariance_and_degenerate():
    rng = np.random.default_rng(73)
    x = rng.normal(size=200)
    assert spearman(x, np.exp(x)).value == pytest.approx(1.0)
    assert spearman(x, x**3).value == pytest.approx(1.0)
    assert spearman(np.exp(x), x).value == pytest.approx(1.0)
    degenerate = spearman(np.ones(4), [1.0, 2.0, 3.0, 4.0])
    assert degenerate.degenerate


def test_rank_based_coefficients_are_monotone_invariant():
    rng = np.random.default_rng(79)
    x = rng.normal(size=120)
    y = rng.normal(size=120) + 0.5 * x
    for transform in (np.exp, lambda v: v**3):
        assert rank_minrelation(transform(x), y) == rank_minrelation(x, y)
        assert rank_minrelation(x, transform(y)) == rank_minrelation(x, y)
        assert iota2(transform(x), transform(y)) == iota2(x, y)
        assert max_iota_sq(transform(x), y) == max_iota_sq(x, y)
        assert spearman(x, transform(y)) == spearman(x, y)


def test_baselines_match_loop_oracles_under_ties():
    rng = np.random.default_rng(89)
    for _ in range(40):
        m = int(rng.integers(2, 30))
        x = np.round(rng.normal(size=m), 1)
        y = np.round(rng.normal(size=m), 1)
        assert pearson(x, y).value == pytest.approx(
            naive_pearson(x.tolist(), y.tolist()), abs=1e-12
        )
        assert spearman(x, y).value == pytest.approx(
            naive_spearman(x.tolist(), y.tolist()), abs=1e-12
        )


def test_rank_minrelation_matches_oracle_spot_checks():
    rng = np.random.default_rng(83)
    for _ in range(60):
        m = int(rng.integers(2, 40))
        x = np.round(rng.normal(size=m), 1)  # include ties
        y = np.round(rng.normal(size=m), 1)
        slow, slow_degenerate = naive_rank_minrelation(x.tolist(), y.tolist())
        fast = rank_minrelation(x, y)
        assert fast.value == pytest.approx(slow, abs=1e-12)
        assert fast.degenerate == slow_degenerate


#: Orientation k of coeff._orientations, as the signed columns it ranks, in order.
ORIENTED = ("X Y", "Y X", "-X Y", "-Y X", "X -Y", "Y -X", "-X -Y", "-Y -X")

#: Column kinds: ties (with -0.0), distinct, constant and +-1e300 scale.
COLUMN_KINDS = {
    "ties": lambda rng, m: rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], m),
    "distinct": lambda rng, m: rng.normal(size=m),
    "constant": lambda rng, m: np.full(m, 1.5),
    "huge": lambda rng, m: rng.normal(size=m) * 1e300,
}

ORIENTATION_CASES = st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.integers(2, 30),
        st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=2 * k, max_size=2 * k),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 7), min_size=1, max_size=10),
    )
)


def _signed_pair(k, x, y):
    """rank_minrelation of orientation k of columns x and y, read off :data:`ORIENTED`."""
    named = {"X": x, "Y": y}
    first, second = (
        np.negative(named[term[1]]) if term[0] == "-" else named[term]
        for term in ORIENTED[k].split()
    )
    return rank_minrelation(ColumnTransforms(first), ColumnTransforms(second))


@settings(max_examples=150, deadline=None)
@given(ORIENTATION_CASES)
@example((40, ["ties", "constant", "distinct", "huge", "constant", "ties"], 11, [3, 0, 7, 0]))
@example((5, ["constant", "constant"], 0, list(range(8))))
def test_each_orientation_is_rank_minrelation_of_its_signed_columns_bit_for_bit(case):
    # Alone, orientation k has the bytes and flag of rank_minrelation on the
    # signed, ordered columns that ORIENTED names; any ``which``, with repeats
    # and in any order, stacks the single-orientation results. Columns alone
    # and as (k, m) batches, and one column against a batch each way (as a
    # matrix row calls the kernel).
    m, kinds, seed, which = case
    rng = np.random.default_rng(seed)
    columns = np.array([COLUMN_KINDS[kind](rng, m) for kind in kinds])
    xs, ys = columns[: len(kinds) // 2], columns[len(kinds) // 2 :]
    tx, ty = (ColumnTransforms._batch(rows, ["batch"] * len(rows)) for rows in (xs, ys))
    calls = [(ColumnTransforms(x), ColumnTransforms(y), [(x, y)]) for x, y in zip(xs, ys)]
    calls += [(tx, ty, list(zip(xs, ys)))]
    calls += [(ColumnTransforms(xs[0]), ty, [(xs[0], y) for y in ys])]
    calls += [(tx, ColumnTransforms(ys[0]), [(x, ys[0]) for x in xs])]
    for x, y, rows in calls:
        parts = (x.dec, x.inc), (y.dec, y.inc)
        alone = [_orientations(*parts, (k,)) for k in range(8)]
        for k, (values, flags) in enumerate(alone):
            expected = [_signed_pair(k, a, b) for a, b in rows]
            assert values.shape == flags.shape == values.shape[:-1] + (1,)
            assert values.reshape(-1).tobytes() == np.array([e.value for e in expected]).tobytes()
            assert flags.reshape(-1).tolist() == [e.degenerate for e in expected]
        values, flags = _orientations(*parts, tuple(which))
        assert values.tobytes() == np.concatenate([alone[k][0] for k in which], -1).tobytes()
        assert np.array_equal(flags, np.concatenate([alone[k][1] for k in which], -1))
        # Orientation 0 reads only dec(X) of the first column.
        values, flags = _orientations((x.dec,), parts[1], (0,))
        assert values.tobytes() == alone[0][0].tobytes()
        assert np.array_equal(flags, alone[0][1])
