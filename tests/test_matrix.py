import os
import sys

import numpy as np
import pytest

import minrel.coeff
import minrel.matrix
import minrel.ranks
from minrel import (
    CRITERIA,
    Dataset,
    InvalidInputError,
    evaluate_metric,
    gen_multiplication,
    max_iota_sq,
    minrel_profile,
    minrel_profile_matrix,
    pairwise_matrix,
    rank_variables,
    transform_cache,
    tri_increasing,
)
from minrel.matrix import MATRIX_METRICS, SYMMETRIC_METRICS


def _dataset(seed=0, m=60, n=4):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, n))
    return Dataset(names=tuple(f"c{i}" for i in range(n)), values=values)


def test_dataset_validation():
    with pytest.raises(InvalidInputError, match="unique"):
        Dataset(names=("a", "a"), values=np.zeros((3, 2)))
    with pytest.raises(InvalidInputError, match="2 rows"):
        Dataset(names=("a", "b"), values=np.zeros((1, 2)))
    with pytest.raises(InvalidInputError, match="columns"):
        Dataset(names=("a", "b", "c"), values=np.zeros((3, 2)))
    with pytest.raises(InvalidInputError) as error:
        Dataset(names=("a", "b"), values=np.array([[0.0, 1.0], [2.0, np.nan]]))
    assert str(error.value) == "b contains a non-finite value at index 1"
    with pytest.raises(InvalidInputError, match="a dataset needs at least one column"):
        Dataset((), np.zeros((3, 0)))


def test_dataset_from_columns_rejects_no_columns():
    with pytest.raises(InvalidInputError, match="at least one column"):
        Dataset.from_columns({})


@pytest.mark.parametrize("workers", [1.5, 0, True])
def test_matrices_reject_a_bad_worker_count(workers):
    ds = _dataset(seed=2, m=10, n=3)
    for build in (lambda: pairwise_matrix(ds, "iota", workers=workers),
                  lambda: minrel_profile_matrix(ds, workers=workers)):
        with pytest.raises(InvalidInputError, match=f"workers must be .*, got {workers!r}"):
            build()


def test_dataset_from_columns_rejects_ragged_input():
    with pytest.raises(InvalidInputError, match="length"):
        Dataset.from_columns({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})


def test_dataset_rejects_non_numeric_cells():
    with pytest.raises(InvalidInputError, match="dataset values must hold numbers: .*'x'"):
        Dataset(("a", "b"), [["x", "1"], ["2", "3"]])
    with pytest.raises(InvalidInputError, match="column 'a' must hold numbers: .*'x'"):
        Dataset.from_columns({"a": ["1", "x"], "b": [1, 2]})


def test_result_matrices_reject_an_unknown_column():
    ds = _dataset(n=2)
    lookups = (
        lambda: pairwise_matrix(ds, "iota").value("c0", "zz"),
        lambda: minrel_profile_matrix(ds).profile("zz", "c1"),
        lambda: ds.index("zz"),
    )
    for lookup in lookups:
        with pytest.raises(InvalidInputError) as error:
            lookup()
        assert str(error.value) == "unknown column 'zz'"


def test_dataset_accessors_and_immutability():
    ds = Dataset.from_columns({"x": [1.0, 2.0, 3.0], "y": [4.0, 5.0, 6.0]})
    assert ds.m == 3 and ds.n == 2
    assert ds.column("y").tolist() == [4.0, 5.0, 6.0]
    assert not ds.values.flags.writeable
    with pytest.raises(InvalidInputError, match="unknown column"):
        ds.column("z")


def test_transform_cache_structure():
    ds = _dataset(n=3)
    cache = ds.columns
    assert len(cache) == 3
    fresh = tri_increasing(ds.values[:, 1]).scores
    np.testing.assert_array_equal(cache[1].inc, fresh)
    np.testing.assert_array_equal(cache[1].neg_inc, -cache[1].dec)
    np.testing.assert_array_equal(cache[1].neg_dec, -cache[1].inc)


def test_transform_cache_accepts_constant_columns():
    ds = Dataset.from_columns({"flat": [2.0, 2.0, 2.0], "x": [1.0, 2.0, 3.0]})
    cache = ds.columns
    assert cache[0].ranks.tolist() == [2.0, 2.0, 2.0]


def test_pairwise_matrix_rejects_unknown_metric():
    with pytest.raises(InvalidInputError, match="unknown metric"):
        pairwise_matrix(_dataset(), "kendall")


def test_pairwise_matrix_equals_direct_two_column_calls():
    ds = _dataset(seed=3, m=40, n=4)
    for metric in MATRIX_METRICS:
        matrix = pairwise_matrix(ds, metric)
        for i in range(ds.n):
            for j in range(ds.n):
                direct = evaluate_metric(ds.values[:, i], ds.values[:, j], metric)
                assert matrix.values[i, j] == direct.value
                assert matrix.degenerate[i, j] == direct.degenerate


def test_symmetric_metrics_and_unit_diagonal():
    ds = _dataset(seed=5, m=80, n=5)
    for metric in SYMMETRIC_METRICS:
        matrix = pairwise_matrix(ds, metric)
        np.testing.assert_array_equal(matrix.values, matrix.values.T)
    for metric in ("pearson", "spearman"):
        matrix = pairwise_matrix(ds, metric)
        np.testing.assert_array_equal(np.diag(matrix.values), np.ones(ds.n))


def test_spearman_matrix_monotone_pair():
    rng = np.random.default_rng(9)
    x = rng.normal(size=50)
    ds = Dataset.from_columns({"X": x, "expX": np.exp(x)})
    matrix = pairwise_matrix(ds, "spearman")
    assert matrix.value("X", "expX") == pytest.approx(1.0)
    assert matrix.value("expX", "X") == pytest.approx(1.0)


def test_iota_matrix_is_asymmetric_on_multiplicative_data():
    ds = gen_multiplication(1000, seed=17).dataset
    matrix = pairwise_matrix(ds, "iota")
    assert matrix.value("A", "B") > 0.95
    assert abs(matrix.value("B", "A") - 0.77) < 0.15
    assert matrix.value("A", "B") - matrix.value("B", "A") > 0.1


def test_degenerate_mask_for_constant_column():
    ds = Dataset.from_columns({"flat": [1.0, 1.0, 1.0, 1.0], "x": [1.0, 2.0, 3.0, 4.0]})
    matrix = pairwise_matrix(ds, "pearson")
    assert matrix.degenerate[0, 1] and matrix.degenerate[1, 0] and matrix.degenerate[0, 0]
    assert not matrix.degenerate[1, 1]
    assert matrix.values[0, 1] == 0.0


def test_parallel_runs_are_bit_identical(monkeypatch):
    # An odd n, so the threads split the triangle unevenly; up to four threads
    # run even on a host with fewer CPUs, switching as often as they can.
    monkeypatch.setattr(minrel.matrix, "_available_cpus", lambda: 4)
    ds = _dataset(seed=11, m=50, n=7)
    fields = ("iota_xy", "iota_yx", "iota_negx_y", "iota_negy_x", "max_iota_sq", "degenerate")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for metric in MATRIX_METRICS:
            sequential = pairwise_matrix(ds, metric, workers=1)
            for workers in (2, 3, 4):
                parallel = pairwise_matrix(ds, metric, workers=workers)
                assert sequential.values.tobytes() == parallel.values.tobytes()
                assert sequential.degenerate.tobytes() == parallel.degenerate.tobytes()
        profile_seq = minrel_profile_matrix(ds, workers=1)
        for workers in (2, 3):
            profile_par = minrel_profile_matrix(ds, workers=workers)
            for field in fields:
                assert getattr(profile_seq, field).tobytes() == getattr(profile_par, field).tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_below_one_is_rejected():
    ds = _dataset(n=3)
    for workers in (0, -3):
        with pytest.raises(InvalidInputError, match="workers"):
            pairwise_matrix(ds, "iota", workers=workers)
        with pytest.raises(InvalidInputError, match="workers"):
            minrel_profile_matrix(ds, workers=workers)


def test_preprocessing_sorts_each_column_once(sort_counter):
    ds = _dataset(seed=13, m=30, n=5)
    pairwise_matrix(ds, "iota")
    # One ranking per column (the negated order is derived), nothing per pair.
    assert sort_counter["count"] == ds.n


def test_repeated_passes_on_one_dataset_never_rerank(sort_counter):
    ds = _dataset(seed=13, m=30, n=5)
    # The first pass builds the dataset's column views; every later pass on
    # the same Dataset reuses them.
    first = pairwise_matrix(ds, "iota")
    profiles = minrel_profile_matrix(ds)
    assert sort_counter["count"] == ds.n
    sort_counter["count"] = 0
    matrix = pairwise_matrix(ds, "iota")
    assert matrix.values.tobytes() == first.values.tobytes()
    assert minrel_profile_matrix(ds).max_iota_sq.tobytes() == profiles.max_iota_sq.tobytes()
    pairwise_matrix(ds, "max_iota_sq")
    pairwise_matrix(ds, "iota2")
    for criterion in CRITERIA:
        rank_variables(ds, "c2", criterion)
    assert sort_counter["count"] == 0
    assert transform_cache(ds) is ds.columns
    assert [column.name for column in ds.columns] == list(ds.names)
    # An equal but separate Dataset owns columns of its own.
    copy = Dataset(names=ds.names, values=ds.values)
    assert copy.columns[0].ranks.tobytes() == ds.columns[0].ranks.tobytes()
    assert sort_counter["count"] == 1


def test_only_rank_metric_matrices_sort(monkeypatch, sort_counter):
    # A separate Dataset, so the value metrics below start from columns that
    # have no rank views yet and would have to sort to read one.
    ranked = _dataset(seed=13, m=30, n=5)
    pairwise_matrix(ranked, "spearman")
    assert sort_counter["count"] == ranked.n

    def exploding(values):
        raise AssertionError("a metric on raw values must not rank")

    ds = _dataset(seed=13, m=30, n=5)
    monkeypatch.setattr(minrel.ranks, "fractional_ranks", exploding)
    for metric in ("pearson", "minrel_simple"):
        assert pairwise_matrix(ds, metric).values.shape == (5, 5)


def test_profile_matrix_matches_direct_profiles():
    ds = _dataset(seed=19, m=40, n=4)
    profiles = minrel_profile_matrix(ds)
    for i, x in enumerate(ds.names):
        for j, y in enumerate(ds.names):
            direct = minrel_profile(ds.values[:, i], ds.values[:, j])
            cell = profiles.profile(x, y)
            assert cell == direct
            assert profiles.max_iota_sq[i, j] == max(
                v.value ** 2 for v in direct.oriented_values()
            )


def test_profile_matrix_multiplicative_pair_rep_averaged():
    sums = np.zeros(4)
    reps = 30
    for rep in range(reps):
        ds = gen_multiplication(1000, seed=100 + rep).dataset
        profile = minrel_profile_matrix(ds).profile("A", "B")
        sums += [
            profile.iota_xy.value,
            profile.iota_yx.value,
            profile.iota_negx_y.value,
            profile.iota_negy_x.value,
        ]
    means = sums / reps
    np.testing.assert_allclose(means, [0.99, 0.77, -0.79, -0.99], atol=0.03)


def test_profile_matrix_diagonal_is_near_one():
    rng = np.random.default_rng(23)
    ds = Dataset.from_columns({"X": rng.normal(size=1000), "Y": rng.normal(size=1000)})
    profiles = minrel_profile_matrix(ds)
    cell = profiles.profile("X", "X")
    for value in cell.oriented_values():
        assert abs(value.value) >= 0.999


def test_pearson_matrix_at_extreme_magnitudes():
    base = np.array([1.0, -1.0, 0.5, 0.25])
    ds = Dataset.from_columns(
        {
            "huge": base * 1e300,
            "neg_huge": -base * 1e300,
            "tiny": base * 1e-300,
            "max": base * 1.7e308,
            "other": np.array([3.0, -1.0, 2.0, 0.0]),
        }
    )
    matrix = pairwise_matrix(ds, "pearson")
    np.testing.assert_array_equal(np.diag(matrix.values), np.ones(ds.n))
    np.testing.assert_array_equal(matrix.values, matrix.values.T)
    assert matrix.value("huge", "tiny") == 1.0
    assert matrix.value("huge", "max") == 1.0
    assert matrix.value("huge", "neg_huge") == -1.0
    assert matrix.value("tiny", "neg_huge") == -1.0
    for i in range(ds.n):
        for j in range(ds.n):
            direct = evaluate_metric(ds.values[:, i], ds.values[:, j], "pearson")
            assert matrix.values[i, j] == direct.value


# Above 8192 values a buffered reduction (numpy's einsum, for one) may sum a
# row differently inside a batch than alone; the row engine must not.
@pytest.mark.parametrize("scratch_bytes", [None, 8 * 9000 * 2])
def test_long_columns_cells_equal_direct_calls_for_any_workers(monkeypatch, scratch_bytes):
    if scratch_bytes is not None:  # blocks of two columns, the last one short
        monkeypatch.setattr(minrel.matrix, "_SCRATCH_BYTES", scratch_bytes)
    rng = np.random.default_rng(29)
    x = rng.normal(size=9000)
    values = np.column_stack([x, x * rng.random(9000), np.round(rng.normal(size=9000), 1)])
    ds = Dataset(names=("a", "b", "c"), values=values)
    for metric in MATRIX_METRICS:
        serial = pairwise_matrix(ds, metric, workers=1)
        parallel = pairwise_matrix(ds, metric, workers=2)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert serial.degenerate.tobytes() == parallel.degenerate.tobytes()
        for i in range(ds.n):
            for j in range(ds.n):
                direct = evaluate_metric(values[:, i], values[:, j], metric)
                assert serial.values[i, j].tobytes() == np.float64(direct.value).tobytes()
                assert serial.degenerate[i, j] == direct.degenerate
    for workers in (1, 2):
        profiles = minrel_profile_matrix(ds, workers=workers)
        assert profiles.iota_yx.tobytes() == profiles.iota_xy.T.copy().tobytes()
        assert profiles.iota_negy_x.tobytes() == profiles.iota_negx_y.T.copy().tobytes()
        for i, x_name in enumerate(ds.names):
            for j, y_name in enumerate(ds.names):
                assert profiles.profile(x_name, y_name) == minrel_profile(values[:, i], values[:, j])


@pytest.mark.parametrize(
    "build, rows",
    [
        (lambda ds: pairwise_matrix(ds, "iota"), lambda n: 3 * n * (n + 1) // 2),
        (lambda ds: pairwise_matrix(ds, "iota2"), lambda n: 3 * n * (n + 1) // 2),
        (lambda ds: pairwise_matrix(ds, "max_iota_sq"), lambda n: 2 * n * (n + 1)),
        (lambda ds: minrel_profile_matrix(ds), lambda n: 2 * n * (n + 1)),
        (lambda ds: max_iota_sq(ds.values[:, 0], ds.values[:, 1]), lambda n: 4),
        (lambda ds: minrel_profile(ds.values[:, 0], ds.values[:, 1]), lambda n: 4),
    ],
    ids=["iota", "iota2", "max_iota_sq", "profile", "direct_max_iota_sq", "direct_profile"],
)
def test_minrelation_maps_compute_each_orientation_once(monkeypatch, build, rows):
    ds = _dataset(seed=31, m=40, n=5)
    reduced = {"rows": 0}
    original = minrel.coeff._mass

    def counting(s):
        reduced["rows"] += int(np.prod(np.shape(s)[:-1]))
        return original(s)

    monkeypatch.setattr(minrel.coeff, "_mass", counting)
    build(ds)
    # Every matrix walks only the n (n + 1) / 2 pairs with j >= i. An iota or
    # iota2 pair shares three masses between its two cells; all four
    # orientations of a pair, in either order, share four.
    assert reduced["rows"] == rows(ds.n)


class _SerialPool:
    """A ThreadPoolExecutor stand-in that records its size and runs each task in turn."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, function, items):
        return [function(item) for item in items]


@pytest.mark.parametrize("cpus", [1, 3])
def test_threads_are_capped_at_the_available_cpus(monkeypatch, cpus):
    monkeypatch.setattr(minrel.matrix, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(minrel.matrix, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    ds = _dataset(seed=5, m=30, n=8)
    serial = pairwise_matrix(ds, "max_iota_sq", workers=1)
    for workers in (2, 5000):
        many = pairwise_matrix(ds, "max_iota_sq", workers=workers)
        assert many.values.tobytes() == serial.values.tobytes()
        assert many.degenerate.tobytes() == serial.degenerate.tobytes()
    expected = [] if cpus == 1 else [min(2, cpus), cpus]
    assert _SerialPool.sizes == expected


def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch):
    assert 1 <= minrel.matrix._available_cpus() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert minrel.matrix._available_cpus() == 1
