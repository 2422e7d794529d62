import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import minrel.coeff
import minrel.matrix
import minrel.ranks
from minrel import (
    CRITERIA,
    Dataset,
    InvalidInputError,
    evaluate_metric,
    gen_multiplication,
    iota_oriented,
    max_iota_sq,
    minrel_profile,
    pairwise_matrix,
    rank_minrelation,
    rank_variables,
    spearman,
    transform_cache,
)
from minrel.coeff import Metric
from minrel.matrix import MATRIX_METRICS, SYMMETRIC_METRICS
from minrel.ranks import ColumnTransforms

from conftest import force_threads


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
    with pytest.raises(InvalidInputError) as error:
        Dataset(("a",), [1.0, 2.0, 3.0])
    assert str(error.value) == "dataset values must be 2-D, got shape (3,)"
    with pytest.raises(InvalidInputError) as error:
        Dataset.from_columns({"a": 1.0, "b": [1.0, 2.0]})
    assert str(error.value) == "column 'a' must be one-dimensional, got shape ()"
    with pytest.raises(InvalidInputError) as error:
        Dataset.from_columns({"a": [1.0, 2.0], "b": [[1.0, 2.0], [3.0, 4.0]]})
    assert str(error.value) == "column 'b' must be one-dimensional, got shape (2, 2)"


def test_dataset_from_columns_rejects_no_columns():
    with pytest.raises(InvalidInputError, match="at least one column"):
        Dataset.from_columns({})


def test_dataset_from_columns_rejects_ragged_input():
    with pytest.raises(InvalidInputError, match="length"):
        Dataset.from_columns({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})


def test_dataset_from_columns_copies_its_columns_once():
    # The one (n, m) stack, which is the batch, and its finiteness mask of one
    # byte a cell: 1.125 times the data. A stack copied again would be 2.125.
    columns = {f"c{j}": np.random.default_rng(j).normal(size=20_000) for j in range(20)}
    tracemalloc.start()
    try:
        ds = Dataset.from_columns(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 20 * 20_000 * 8
    assert ds.batch.values.tobytes() == np.array(list(columns.values())).tobytes()
    assert not any(np.shares_memory(ds.batch.values, column) for column in columns.values())


def test_dataset_rejects_non_numeric_cells():
    with pytest.raises(InvalidInputError, match="dataset values must hold numbers: .*'x'"):
        Dataset(("a", "b"), [["x", "1"], ["2", "3"]])
    with pytest.raises(InvalidInputError, match="column 'a' must hold numbers: .*'x'"):
        Dataset.from_columns({"a": ["1", "x"], "b": [1, 2]})


def test_result_matrices_reject_an_unknown_column():
    ds = _dataset(n=2)
    lookups = (
        lambda: pairwise_matrix(ds, "iota").value("c0", "zz"),
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
    fresh = ColumnTransforms(ds.values[:, 1]).inc
    np.testing.assert_array_equal(cache[1].inc, fresh)


def test_transform_cache_accepts_constant_columns():
    ds = Dataset.from_columns({"flat": [2.0, 2.0, 2.0], "x": [1.0, 2.0, 3.0]})
    cache = ds.columns
    assert cache[0].ranks.tolist() == [2.0, 2.0, 2.0]


def test_pairwise_matrix_rejects_unknown_metric():
    with pytest.raises(InvalidInputError, match="unknown metric"):
        pairwise_matrix(_dataset(), "kendall")


def test_pairwise_matrix_equals_direct_two_column_calls(monkeypatch):
    # At m = 50 000 a block of the default _SCRATCH_BYTES holds 2 of the 4
    # rows, so a block boundary falls inside the input. A reduction that sums a
    # row in a batch differently than alone (numpy's einsum, for one) fails there.
    datasets = (_dataset(seed=3, m=40, n=4), _dataset(seed=3, m=50_000, n=4))
    for forced in (False, True):
        if forced:
            force_threads(monkeypatch, 2)
        for ds, metric in itertools.product(datasets, MATRIX_METRICS):
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


def _matrix_bytes(ds) -> dict:
    """The value and flag bytes of every matrix metric."""
    found = {}
    for metric in MATRIX_METRICS:
        matrix = pairwise_matrix(ds, metric)
        found[metric] = matrix.values.tobytes(), matrix.degenerate.tobytes()
    return found


def test_parallel_runs_are_bit_identical(monkeypatch):
    # An odd n, so the threads split the triangle unevenly; up to four threads
    # run even on a host with fewer CPUs, switching as often as they can.
    ds = _dataset(seed=11, m=50, n=7)
    serial = _matrix_bytes(ds)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (2, 3, 4):
            force_threads(monkeypatch, cpus)
            assert _matrix_bytes(ds) == serial
    finally:
        sys.setswitchinterval(interval)


#: Column kinds a batch must hold row by row: ties (with -0.0), distinct, constant, +-1e300.
COLUMN_KINDS = {
    "ties": lambda rng, m: rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], m),
    "distinct": lambda rng, m: rng.normal(size=m),
    "constant": lambda rng, m: np.full(m, 1.5),
    "huge": lambda rng, m: rng.normal(size=m) * 1e300,
}

DATASETS = st.tuples(
    st.integers(2, 50),
    st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=3, max_size=7),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)


@settings(max_examples=60, deadline=None)
@given(DATASETS)
@example((7, ["ties", "huge", "constant", "distinct", "ties"], 0, 2))
def test_dataset_columns_have_their_own_columns_views_bit_for_bit(case):
    # Rank blocks of ``step`` rows, fewer than the dataset has, so the
    # dataset spans several blocks and a block boundary falls inside it.
    m, kinds, seed, step = case
    assume(step < len(kinds))
    rng = np.random.default_rng(seed)
    values = np.column_stack([COLUMN_KINDS[kind](rng, m) for kind in kinds])
    alone = [ColumnTransforms(values[:, j]) for j in range(len(kinds))]
    with mock.patch.object(minrel.ranks, "_BLOCK_BYTES", 8 * m * step):
        ds = Dataset([f"c{j}" for j in range(len(kinds))], values)
        with mock.patch.object(
            minrel.ranks, "fractional_ranks", wraps=minrel.ranks.fractional_ranks
        ) as sort:
            ds.batch.ranks
        sizes = [call.args[0].shape[0] for call in sort.call_args_list]
        assert sizes == [min(step, ds.n - start) for start in range(0, ds.n, step)]
        for j, (column, own) in enumerate(zip(ds.columns, alone)):
            assert type(column) is ColumnTransforms
            for view in ("values", "ranks", "dec", "inc"):
                assert getattr(column, view).tobytes() == getattr(own, view).tobytes()
            for view in ("centred", "centred_values"):
                (parts, norm), (own_parts, own_norm) = getattr(column, view), getattr(own, view)
                assert parts.tobytes() == own_parts.tobytes()
                assert norm.tobytes() == own_norm.tobytes()
            assert column.ranks.tobytes() == ds.batch.ranks[j].tobytes()
            assert np.shares_memory(column.values, ds.batch.values)
        # Every matrix cell is the direct call on the columns alone, on one thread or two.
        for metric in MATRIX_METRICS:
            serial = pairwise_matrix(ds, metric)
            with mock.patch.multiple(minrel.ranks, _THREAD_WORK=1, _available_cpus=lambda: 2):
                threaded = pairwise_matrix(ds, metric)
            assert serial.values.tobytes() == threaded.values.tobytes()
            assert serial.degenerate.tobytes() == threaded.degenerate.tobytes()
            for i, x in enumerate(alone):
                for j, y in enumerate(alone):
                    direct = evaluate_metric(x, y, metric)
                    assert serial.values[i, j].tobytes() == np.float64(direct.value).tobytes()
                    assert serial.degenerate[i, j] == direct.degenerate


#: Each criterion's score as the ranking module documents it: its metric, whether
#: it is squared, and the order of the metric's arguments.
DOCUMENTED_SCORES = {
    "rho2": ("spearman", True, ("candidate", "target")),
    "max_iota_sq": ("max_iota_sq", False, ("candidate", "target")),
    "iota_sq": ("iota", True, ("target", "candidate")),
}


@settings(max_examples=60, deadline=None)
@given(DATASETS)
@example((7, ["ties", "huge", "constant", "distinct", "ties"], 0, 2))
def test_rankings_in_blocks_score_the_direct_calls_bit_for_bit(case):
    # Kernel blocks of ``step`` rows, fewer than the dataset has, so a block
    # boundary falls inside it; unpatched, the whole batch is one block. The
    # blocks dealt to two threads give the same ranking, bit for bit.
    m, kinds, seed, step = case
    assume(step < len(kinds))
    rng = np.random.default_rng(seed)
    values = np.column_stack([COLUMN_KINDS[kind](rng, m) for kind in kinds])
    ds = Dataset([f"c{j}" for j in range(len(kinds))], values)
    alone = dict(zip(ds.names, (ColumnTransforms(values[:, j]) for j in range(ds.n))))
    for target in ds.names:
        for criterion in CRITERIA:
            whole = rank_variables(ds, target, criterion)
            with mock.patch.object(minrel.matrix, "_SCRATCH_BYTES", 8 * m * step):
                blocked = rank_variables(ds, target, criterion)
                with mock.patch.multiple(minrel.ranks, _THREAD_WORK=1, _available_cpus=lambda: 2):
                    threaded = rank_variables(ds, target, criterion)
            assert repr(threaded.ordered) == repr(blocked.ordered)  # a float's repr is its bits
            assert blocked.names() == whole.names()
            metric, squared, order = DOCUMENTED_SCORES[criterion]
            for (name, score), (_, unpatched) in zip(blocked.ordered, whole.ordered):
                sides = {"candidate": alone[name], "target": alone[target]}
                direct = evaluate_metric(*(sides[side] for side in order), metric).value
                expected = direct * direct if squared else direct
                assert np.float64(score).tobytes() == np.float64(expected).tobytes()
                assert np.float64(unpatched).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=60, deadline=None)
@given(DATASETS)
@example((7, ["ties", "huge", "constant", "distinct", "ties"], 0, 2))
def test_the_metric_table_holds_each_matrix_metrics_mirror_bit_for_bit(case):
    # Row i against the whole batch, itself included, as matrix row i and a
    # ranking on target i call the table.
    m, kinds, seed, _ = case
    rng = np.random.default_rng(seed)
    values = np.column_stack([COLUMN_KINDS[kind](rng, m) for kind in kinds])
    batch = Dataset([f"c{j}" for j in range(len(kinds))], values).batch
    assert SYMMETRIC_METRICS == {"pearson", "spearman", "max_iota_sq"}
    for metric in MATRIX_METRICS:
        prepare, kernel, pair = minrel.coeff.METRIC_TABLE[metric]
        assert (pair is None) == (metric in SYMMETRIC_METRICS)
        block = prepare(batch)
        for i in range(len(kinds)):
            row = tuple(part[i] for part in block)
            # Cell (i, J), then cell (J, i): from the pair, or the one kernel result both ways.
            found = pair(row, block) if pair else (kernel(row, block),) * 2
            for cells, expected in zip(found, (kernel(row, block), kernel(block, row))):
                assert [part.tobytes() for part in cells] == [part.tobytes() for part in expected]


@pytest.mark.parametrize(
    "build, metric, calls, masses",
    [
        # Blocks of 3 of the 7 rows: a ranking reads rows 0-2, 3-5 and 6.
        (lambda ds: rank_variables(ds, "c2", "iota_sq"), "iota", {"kernel": 3}, 2),
        # Matrix row i reads the blocks from row i on: 3 + 2 + 2 + 2 + 1 + 1 + 1 tiles.
        (lambda ds: pairwise_matrix(ds, "iota"), "iota", {"pair": 12}, 3),
        (lambda ds: pairwise_matrix(ds, "max_iota_sq"), "max_iota_sq", {"kernel": 12}, 4),
    ],
    ids=["iota_sq_ranking", "iota_matrix", "max_iota_sq_matrix"],
)
def test_each_block_is_one_table_call_that_forms_each_mass_once(
    monkeypatch, walks, build, metric, calls, masses
):
    # A ranking calls the kernel, never the pair, whose third mass it would not use.
    called = []  # one name per call: an append loses none made on a walk's threads

    def counted(name, function):
        def call(*args):
            called.append(name)
            return function(*args)

        return call if function else None

    prepare, kernel, pair = minrel.coeff.METRIC_TABLE[metric]
    wrapped = Metric(prepare, counted("kernel", kernel), counted("pair", pair))
    monkeypatch.setitem(minrel.coeff.METRIC_TABLE, metric, wrapped)
    monkeypatch.setattr(minrel.coeff, "_mass", counted("masses", minrel.coeff._mass))
    for _ in walks:  # serially, then with the batch ranked and the blocks dealt on threads
        ds = _dataset(seed=37, m=40, n=7)
        monkeypatch.setattr(minrel.matrix, "_SCRATCH_BYTES", 8 * ds.m * 3)
        called.clear()
        build(ds)
        tiles = sum(calls.values())
        counts = {name: called.count(name) for name in ("kernel", "pair", "masses")}
        assert counts == {"kernel": 0, "pair": 0, **calls, "masses": masses * tiles}


def test_preprocessing_sorts_each_column_once(walks, sort_counter):
    for _ in walks:
        sort_counter.clear()
        ds = _dataset(seed=13, m=30, n=5)
        pairwise_matrix(ds, "iota")
        # Each column's row ranked once (the negated order is derived), nothing per pair.
        assert sum(sort_counter) == ds.n


def test_repeated_passes_on_one_dataset_never_rerank(walks, sort_counter):
    for _ in walks:
        sort_counter.clear()
        ds = _dataset(seed=13, m=30, n=5)
        # The first pass builds the dataset's column views; every later pass on
        # the same Dataset reuses them.
        first = pairwise_matrix(ds, "iota")
        assert sum(sort_counter) == ds.n
        sort_counter.clear()
        matrix = pairwise_matrix(ds, "iota")
        assert matrix.values.tobytes() == first.values.tobytes()
        pairwise_matrix(ds, "max_iota_sq")
        pairwise_matrix(ds, "iota2")
        for criterion in CRITERIA:
            rank_variables(ds, "c2", criterion)
        assert sum(sort_counter) == 0
        assert transform_cache(ds) is ds.columns
        assert [column.name for column in ds.columns] == list(ds.names)
        # An equal but separate Dataset owns a batch of its own: reading its
        # ranks ranks each of its rows once.
        copy = Dataset(names=ds.names, values=ds.values)
        assert copy.batch.ranks.tobytes() == ds.batch.ranks.tobytes()
        assert sum(sort_counter) == ds.n


def test_only_rank_metric_matrices_sort(monkeypatch, sort_counter):
    # A separate Dataset, so the value metrics below start from columns that
    # have no rank views yet and would have to sort to read one.
    ranked = _dataset(seed=13, m=30, n=5)
    pairwise_matrix(ranked, "spearman")
    assert sum(sort_counter) == ranked.n

    def exploding(values):
        raise AssertionError("a metric on raw values must not rank")

    ds = _dataset(seed=13, m=30, n=5)
    monkeypatch.setattr(minrel.ranks, "fractional_ranks", exploding)
    for metric in ("pearson", "minrel_simple"):
        assert pairwise_matrix(ds, metric).values.shape == (5, 5)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def test_profile_matrix_matches_direct_profiles(walks):
    # Every map of a four-orientation profile is one pairwise_matrix expression.
    # Orientation (-X, Y) trades mass R against S, and (-X, -Y), iota2's cell
    # (j, i), S against R, so 0.0 - v is exact; unary minus is not: it turns
    # the +0.0 cells of a constant column into -0.0.
    rng = np.random.default_rng(19)
    base = rng.normal(size=40)
    kinds = (["distinct"] * 4, ["ties"] * 4, ["distinct", "constant", "ties", "constant"])
    tables = [np.column_stack([COLUMN_KINDS[kind](rng, 40) for kind in row]) for row in kinds]
    tables.append(np.column_stack([base, -base, 1e300 * base, np.round(base)]))  # signed
    for _ in walks:
        for values in tables:
            ds = Dataset([f"c{j}" for j in range(values.shape[1])], values)
            io, i2, mx = (pairwise_matrix(ds, m) for m in ("iota", "iota2", "max_iota_sq"))
            maps = (
                (io.values, io.degenerate),
                (io.values.T, io.degenerate.T),
                (0.0 - i2.values.T, i2.degenerate.T),
                (0.0 - i2.values, i2.degenerate),
            )
            for i, j in itertools.product(range(ds.n), repeat=2):
                x, y = values[:, i], values[:, j]
                profile = minrel_profile(ds.columns[i], ds.columns[j])
                assert profile == minrel_profile(x, y)
                singles = (
                    rank_minrelation(x, y),
                    rank_minrelation(y, x),
                    iota_oriented(x, y, -1, 1),
                    iota_oriented(y, x, -1, 1),
                )
                for (cells, flags), field, single in zip(maps, profile.oriented_values(), singles):
                    assert _bits(cells[i, j]) == _bits(field.value) == _bits(single.value)
                    assert flags[i, j] == field.degenerate == single.degenerate
                assert _bits(mx.values[i, j]) == _bits(profile.max_iota_sq)
                assert mx.degenerate[i, j] == all(v.degenerate for v in profile.oriented_values())


def test_profile_multiplicative_pair_rep_averaged():
    sums = np.zeros(4)
    reps = 30
    for rep in range(reps):
        ds = gen_multiplication(1000, seed=100 + rep).dataset
        profile = minrel_profile(ds.column("A"), ds.column("B"))
        sums += [
            profile.iota_xy.value,
            profile.iota_yx.value,
            profile.iota_negx_y.value,
            profile.iota_negy_x.value,
        ]
    means = sums / reps
    np.testing.assert_allclose(means, [0.99, 0.77, -0.79, -0.99], atol=0.03)


def test_profile_of_a_column_against_itself_is_near_one():
    x = np.random.default_rng(23).normal(size=1000)
    for value in minrel_profile(x, x).oriented_values():
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
    serial = _matrix_bytes(ds)
    for metric in MATRIX_METRICS:
        matrix = pairwise_matrix(ds, metric)
        for i in range(ds.n):
            for j in range(ds.n):
                direct = evaluate_metric(values[:, i], values[:, j], metric)
                assert matrix.values[i, j].tobytes() == np.float64(direct.value).tobytes()
                assert matrix.degenerate[i, j] == direct.degenerate
    force_threads(monkeypatch, 2)
    assert _matrix_bytes(ds) == serial


@pytest.mark.parametrize(
    "build, rows",
    [
        (lambda ds: pairwise_matrix(ds, "iota"), lambda n: 3 * n * (n + 1) // 2),
        (lambda ds: pairwise_matrix(ds, "iota2"), lambda n: 3 * n * (n + 1) // 2),
        (lambda ds: pairwise_matrix(ds, "max_iota_sq"), lambda n: 2 * n * (n + 1)),
        (lambda ds: max_iota_sq(ds.values[:, 0], ds.values[:, 1]), lambda n: 4),
        (lambda ds: minrel_profile(ds.values[:, 0], ds.values[:, 1]), lambda n: 4),
    ],
    ids=["iota", "iota2", "max_iota_sq", "direct_max_iota_sq", "direct_profile"],
)
def test_minrelation_maps_compute_each_orientation_once(monkeypatch, walks, build, rows):
    reduced = []  # the mass rows of each call: an append loses none made on a walk's threads
    original = minrel.coeff._mass

    def counting(s):
        reduced.append(int(np.prod(np.shape(s)[:-1])))
        return original(s)

    monkeypatch.setattr(minrel.coeff, "_mass", counting)
    for _ in walks:
        ds = _dataset(seed=31, m=40, n=5)
        reduced.clear()
        build(ds)
        # Every matrix walks only the n (n + 1) / 2 pairs with j >= i. An iota or
        # iota2 pair shares three masses between its two cells; all four
        # orientations of a pair, in either order, share four.
        assert sum(reduced) == rows(ds.n)


@pytest.mark.parametrize("cpus", [1, 3, 5000])
def test_threads_are_capped_at_the_available_cpus(monkeypatch, started, cpus):
    wide, narrow = _dataset(seed=5, m=30, n=8), _dataset(seed=6, m=30, n=2)
    serial = [_matrix_bytes(ds) for ds in (wide, narrow)]
    force_threads(monkeypatch, cpus)
    assert [_matrix_bytes(ds) for ds in (wide, narrow)] == serial
    # Each matrix deals its rows to one thread per CPU and row, the calling
    # thread one of them; the batches were ranked before.
    matrices = len(MATRIX_METRICS)
    assert len(started) == sum((min(cpus, ds.n) - 1) * matrices for ds in (wide, narrow))
    assert not any(thread.is_alive() for thread in started)


#: The three walks over a batch, each on a dataset whose views it does not build:
#: its items (one row per rank block and per kernel block) and its work, cells times rows.
WALKS = {
    "rank pass": (lambda ds: Dataset(ds.names, ds.values).batch.ranks, lambda n, m: n * m),
    "matrix": (lambda ds: pairwise_matrix(ds, "iota").values, lambda n, m: n * (n + 1) // 2 * m),
    "ranking": (lambda ds: rank_variables(ds, "c0", "iota_sq").ordered, lambda n, m: n * m),
}


@pytest.mark.parametrize("cpus", [1, 3])
def test_threads_run_from_the_work_threshold(monkeypatch, started, cpus):
    # One rule for every walk: min(CPUs, items, max(1, work // _THREAD_WORK)) threads.
    ds = _dataset(seed=7, m=30, n=8)
    monkeypatch.setattr(minrel.ranks, "_BLOCK_BYTES", 8 * ds.m)
    monkeypatch.setattr(minrel.matrix, "_SCRATCH_BYTES", 8 * ds.m)
    monkeypatch.setattr(minrel.ranks, "_available_cpus", lambda: cpus)
    ds.batch.dec, ds.batch.inc  # the views the matrix and the ranking read
    for walk, (build, work) in WALKS.items():
        work = work(ds.n, ds.m)
        monkeypatch.setattr(minrel.ranks, "_THREAD_WORK", work + 1)
        started.clear()
        serial = build(ds)
        assert started == [], walk
        # work // _THREAD_WORK is exactly ``threads`` here: 240 and 1080 divide by 1 to 4.
        for threads in (1, 2, 3, 4, ds.n + 1):
            monkeypatch.setattr(minrel.ranks, "_THREAD_WORK", max(1, work // threads))
            started.clear()
            assert np.array_equal(build(ds), serial), walk
            assert len(started) == min(cpus, ds.n, threads) - 1, walk


def test_network_sized_matrices_run_on_two_threads_and_small_passes_on_one(monkeypatch, started):
    # 100 columns of 1000 rows: 5 050 pairs of 1000 rows. Its rank pass is
    # 100 000 values in 4 blocks; a (20, 50) matrix is 210 pairs of 50 rows.
    monkeypatch.setattr(minrel.ranks, "_available_cpus", lambda: 2)
    network, small = _dataset(seed=8, m=1000, n=100), _dataset(seed=9, m=50, n=20)
    for ds in (network, small):
        started.clear()
        for metric in ("iota", "max_iota_sq", "spearman"):
            pairwise_matrix(ds, metric)
        assert len(started) == (3 if ds is network else 0)
    # One block, however long its column: a direct call never starts a thread.
    started.clear()
    x, y = np.random.default_rng(10).random((2, 200_000))
    spearman(x, y)
    assert started == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_threaded_rank_pass_gives_the_serial_bits_and_sorts(monkeypatch, sort_counter, cpus):
    # Heavy ties with -0.0 and 0.0, in blocks of 2 rows: 7 rows rank as 2 + 2 + 2 + 1.
    rng = np.random.default_rng(41)
    values = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], (40, 7))
    names = [f"c{j}" for j in range(7)]
    monkeypatch.setattr(minrel.ranks, "_BLOCK_BYTES", 8 * 40 * 2)
    serial = Dataset(names, values).batch.ranks
    serial_sorts = sorted(sort_counter)
    sort_counter.clear()
    ranked_on = []
    counting = minrel.ranks.fractional_ranks

    def recorded(rows):
        # The Thread, not its ident: CPython gives an ended thread's ident to the next one.
        ranked_on.append(threading.current_thread())
        return counting(rows)

    monkeypatch.setattr(minrel.ranks, "fractional_ranks", recorded)
    force_threads(monkeypatch, cpus)
    threaded = Dataset(names, values).batch.ranks
    assert threaded.tobytes() == serial.tobytes()
    assert sorted(sort_counter) == serial_sorts == [1, 2, 2, 2]
    assert len(set(ranked_on)) == cpus


def test_each_raises_a_share_s_exception_after_every_share_has_ended(monkeypatch, started):
    # Four threads dealt 1000 items in turn, switching as often as they can:
    # every item runs once, and a failing item ends its own share only; the
    # walk raises its exception once every share has ended.
    monkeypatch.setattr(minrel.ranks, "_available_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for failing in (None, 0, 1, 998):
            done = np.zeros(1000, dtype=int)

            def run(item):
                done[item] += 1  # each item's own cell
                if item == failing:
                    raise MemoryError(f"item {item}")

            started.clear()
            fails = failing is not None
            with pytest.raises(MemoryError, match=f"^item {failing}$") if fails else nullcontext():
                minrel.ranks.each(run, range(1000), 4 * minrel.ranks._THREAD_WORK)
            skipped = [i for i in range(1000) if fails and i % 4 == failing % 4 and i > failing]
            assert np.flatnonzero(done == 0).tolist() == skipped
            assert done.max() == 1 and len(started) == 3
            assert not any(thread.is_alive() for thread in started)
    finally:
        sys.setswitchinterval(interval)


def test_import_leaves_the_thread_pool_unloaded(tmp_path):
    # A matrix and a ranking, each walking on two threads, in a fresh process.
    package_root = os.path.dirname(os.path.dirname(minrel.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    path = tmp_path / "in.csv"
    path.write_text("a,b,c\n1,2,3\n2,1,4\n3,3,1\n4,0,2\n")
    code = f"""
import sys, threading
import minrel.cli, minrel.ranks
print(sorted({{'concurrent.futures', 'queue'}} & set(sys.modules)))
started = []
class Counted(threading.Thread):
    def start(self):
        started.append(self)
        super().start()
ranks = minrel.ranks
ranks.Thread, ranks._THREAD_WORK, ranks._BLOCK_BYTES, ranks._available_cpus = Counted, 1, 8, lambda: 2
for command, *options in (("matrix",), ("rank", "--target", "a")):
    started.clear()
    argv = [command, {str(path)!r}, *options, "--output", {str(tmp_path / "out")!r}]
    assert minrel.cli.main(argv) == 0 and started, command
print(sorted({{'concurrent.futures', 'queue'}} & set(sys.modules)))
"""
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (done.stdout, done.stderr) == ("[]\n[]\n", "")


def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch):
    assert 1 <= minrel.ranks._available_cpus() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert minrel.ranks._available_cpus() == 1
