import hashlib

import numpy as np
import pytest

from minrel import (
    InvalidInputError,
    gen_combined,
    gen_linear,
    gen_multiplication,
    gen_relevance_suite_dataset,
    gen_triangle_pair,
    pearson,
    rank_minrelation,
    spearman,
)

ALL_GENERATORS = (gen_multiplication, gen_linear, gen_combined, gen_triangle_pair)


@pytest.mark.parametrize("generator", ALL_GENERATORS)
def test_generators_are_seed_deterministic(generator):
    first = generator(200, seed=99)
    second = generator(200, seed=99)
    assert first.dataset.values.tobytes() == second.dataset.values.tobytes()
    different = generator(200, seed=100)
    assert first.dataset.values.tobytes() != different.dataset.values.tobytes()


@pytest.mark.parametrize("generator", ALL_GENERATORS)
def test_generators_reject_tiny_m(generator):
    with pytest.raises(InvalidInputError):
        generator(1, seed=0)


@pytest.mark.parametrize("generator", ALL_GENERATORS + (gen_relevance_suite_dataset,))
def test_generators_reject_a_negative_seed(generator):
    with pytest.raises(InvalidInputError, match="seed must be an integer >= 0, got -1"):
        generator(10, seed=-1)


def test_multiplication_structure():
    generated = gen_multiplication(500, seed=1)
    ds = generated.dataset
    assert generated.family == "multiplication"
    assert ds.names == ("A", "B", "C")
    a, b, c = ds.column("A"), ds.column("B"), ds.column("C")
    np.testing.assert_array_equal(a, b * c)
    assert np.all(a <= np.minimum(b, c))


def test_linear_structure():
    ds = gen_linear(500, seed=2).dataset
    assert ds.names == ("A", "B", "C", "D")
    a = ds.column("A")
    np.testing.assert_array_equal(
        a, 3.0 * ds.column("B") + 2.0 * ds.column("C") + ds.column("D")
    )


def test_linear_population_correlation():
    # corr(A, B) = 3/sqrt(14) for A = 3B + 2C + D with unit normals
    pearson_values, spearman_values = [], []
    for s in range(40):
        ds = gen_linear(1000, seed=s).dataset
        pearson_values.append(pearson(ds.column("A"), ds.column("B")).value)
        spearman_values.append(spearman(ds.column("A"), ds.column("B")).value)
    assert np.mean(pearson_values) == pytest.approx(3 / np.sqrt(14), abs=0.01)
    # rank correlation of a bivariate normal shrinks the value a little
    assert np.mean(spearman_values) == pytest.approx(0.787, abs=0.01)


def test_combined_structure():
    ds = gen_combined(500, seed=3).dataset
    assert ds.names == ("A", "B", "C", "D", "E", "G")
    a = ds.column("A")
    np.testing.assert_array_equal(a, ds.column("B") * ds.column("C") * ds.column("D"))
    np.testing.assert_array_equal(ds.column("G"), a + ds.column("E"))


def test_combined_noise_scale():
    ds = gen_combined(20000, seed=4).dataset
    assert ds.column("E").std() == pytest.approx(0.15, abs=0.01)


def test_triangle_pair_structure_and_marginals():
    generated = gen_triangle_pair(1000, seed=5)
    ds = generated.dataset
    x, y = ds.column("X"), ds.column("Y")
    assert np.all(x <= y)
    assert np.all(x >= -0.5) and np.all(y <= 0.5)
    assert x.mean() == pytest.approx(-1 / 6, abs=0.02)
    assert y.mean() == pytest.approx(1 / 6, abs=0.02)


def test_triangle_pair_is_near_perfect_minrelation():
    # The violation mass never fully vanishes after ranking (samples near
    # the sharp corner of the triangle can swap rank order), so the
    # coefficient settles around 0.987 rather than 1.
    values = []
    for seed in range(20):
        ds = gen_triangle_pair(1000, seed=seed).dataset
        value = rank_minrelation(ds.column("X"), ds.column("Y")).value
        assert value >= 0.96
        values.append(value)
    assert np.mean(values) >= 0.98


def test_monte_carlo_error_halves_when_reps_quadruple():
    values = np.array(
        [
            spearman(ds.column("B"), ds.column("C")).value
            for ds in (gen_multiplication(300, seed=s).dataset for s in range(400))
        ]
    )
    se_small = values[:100].std(ddof=1) / 10
    se_large = values.std(ddof=1) / 20
    assert se_small / se_large == pytest.approx(2.0, abs=0.5)


def test_relevance_suite_rejects_no_targets():
    with pytest.raises(InvalidInputError) as raised:
        gen_relevance_suite_dataset(50, seed=7, factor_counts=())
    assert str(raised.value) == "factor_counts must not be empty"


def test_relevance_suite_layout():
    bench = gen_relevance_suite_dataset(50, seed=7)
    ds = bench.dataset
    assert ds.n == 20
    assert set(bench.targets) == {"T1", "T2", "T3"}
    assert tuple(len(v) for v in bench.targets.values()) == (4, 5, 6)
    seen = set()
    for target, factors in bench.targets.items():
        product = np.ones(ds.m)
        for name in factors:
            product = product * ds.column(name)
            assert name not in seen  # factor blocks are disjoint
            seen.add(name)
        np.testing.assert_array_equal(ds.column(target), product)
    assert {"N1", "N2"}.issubset(ds.names)


@pytest.mark.parametrize(
    "factor_counts, n_noise, digests",
    [
        ((4, 5, 6), 2, ("803fc458da68d084", "de61e2a993914405", "320f91472b7c1f25")),
        ((1,), 0, ("2966729e53b92b75", "9c512f12486883d5", "81e0862a3f170fd6")),
        ((3, 2), 4, ("5994cb86f929e2f0", "3c9cb2d492f6da06", "e8c23080abbb121b")),
    ],
)
def test_relevance_suite_bits_are_pinned(factor_counts, n_noise, digests):
    # The first 16 hex digits of the sha256 of the names, the values' bytes
    # and the targets, for seeds 0, 1 and 2: any change to the draws shows.
    for seed, digest in enumerate(digests):
        bench = gen_relevance_suite_dataset(60, seed, factor_counts, n_noise)
        parts = (
            repr(bench.dataset.names).encode(),
            bench.dataset.values.tobytes(),
            repr(list(bench.targets.items())).encode(),
        )
        assert hashlib.sha256(b"".join(parts)).hexdigest()[:16] == digest, seed
