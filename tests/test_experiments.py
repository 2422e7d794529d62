import struct

import numpy as np
import pytest

import minrel.experiments
from minrel import InvalidInputError, iota_oriented, rank_minrelation, run_experiment, spearman
from minrel.cli import main
from minrel.coeff import _evaluate, _orientations
from minrel.experiments import ORIENTATIONS, TABLES, ExperimentCell
from minrel.ranks import ColumnTransforms
from minrel.synth import DRAWS, GENERATORS


def test_cell_pass_fail():
    assert ExperimentCell("x", mean=0.982, stderr=0.0, reference=0.99, tolerance=0.01).passed
    assert not ExperimentCell("x", mean=0.975, stderr=0.0, reference=0.99, tolerance=0.01).passed
    # the tolerance bound is inclusive
    assert ExperimentCell("x", mean=0.25, stderr=0.0, reference=0.5, tolerance=0.25).passed


def test_run_experiment_dispatch_and_validation():
    result = run_experiment("table2", reps=2, m=30, seed=0)
    assert result.name == "table2" and result.reps == 2
    with pytest.raises(InvalidInputError, match="unknown experiment"):
        run_experiment("table9", reps=1, m=10, seed=0)
    with pytest.raises(InvalidInputError):
        run_experiment("table2", reps=0, m=10, seed=0)
    with pytest.raises(InvalidInputError):
        run_experiment("table3", reps=1, m=1, seed=0)


def test_run_experiment_rejects_a_non_integer_rep_count():
    with pytest.raises(InvalidInputError) as raised:
        run_experiment("table2", reps=1.5, m=30, seed=0)
    assert str(raised.value) == "reps must be an integer >= 1, got 1.5"


def test_run_experiment_uses_the_checked_python_ints():
    # A numpy seed would overflow in seed + rep; the checked int does not.
    seed = 2**63 - 1
    result = run_experiment("table3", reps=2, m=np.int64(20), seed=np.int64(seed))
    assert type(result.m) is int and type(result.seed) is int
    assert result == run_experiment("table3", reps=2, m=20, seed=seed)


def test_small_runs_produce_all_cells():
    table2 = run_experiment("table2", reps=3, m=40, seed=1)
    assert len(table2.cells) == 15
    assert all(cell.stderr >= 0.0 for cell in table2.cells)
    table3 = run_experiment("table3", reps=3, m=40, seed=1)
    assert len(table3.cells) == 9 and len(table3.checks) == 3
    table4 = run_experiment("table4", reps=3, m=40, seed=1)
    assert len(table4.cells) == 10 and len(table4.checks) == 4


@pytest.mark.parametrize("name", sorted(TABLES))
def test_one_repetition_has_zero_standard_errors(name):
    cells = run_experiment(name, reps=1, m=30, seed=0).cells
    assert cells and [cell.stderr for cell in cells] == [0.0] * len(cells)


def test_experiments_are_seed_deterministic():
    first = run_experiment("table3", reps=2, m=50, seed=9)
    second = run_experiment("table3", reps=2, m=50, seed=9)
    assert [c.mean for c in first.cells] == [c.mean for c in second.cells]


def test_experiments_rank_each_column_once_per_repetition(sort_counter, monkeypatch):
    # Datasets of 3 (A, B, C), 4 (A..D) and 6 (A..E, G) columns. A column of
    # a block is one batch, a row per repetition, sorted by one call.
    m = 30
    for reps, blocks in ((2, 1), (5, 3)):
        if blocks > 1:
            monkeypatch.setattr(minrel.experiments, "_BLOCK_BYTES", 2 * 8 * m)  # 2 + 2 + 1
        for name, columns in (("table2", 3), ("table3", 4), ("table4", 6)):
            sort_counter.clear()
            run_experiment(name, reps=reps, m=m, seed=0)
            assert sum(sort_counter) == reps * columns
            assert len(sort_counter) == blocks * columns


#: The public direct call that gives each statistic.
DIRECT = {
    "rho": lambda x, y: spearman(x, y),
    "iota": lambda x, y: rank_minrelation(x, y),
    "iota_yx": lambda x, y: rank_minrelation(y, x),
    "iota_negx": lambda x, y: iota_oriented(x, y, -1, 1),
    "iota_negy": lambda x, y: iota_oriented(y, x, -1, 1),
}


def _direct_series(table, reps, m, seed):
    """Each cell's direct calls, one per repetition on that repetition's columns."""
    datasets = [GENERATORS[table.family](m, seed + rep).dataset for rep in range(reps)]
    return {
        f"{stat}({x},{y})": [DIRECT[stat](d.column(x), d.column(y)).value for d in datasets]
        for x, y, _, _ in table.rows
        for stat in table.stats
    }


def _bits(value):
    return struct.pack("<d", value)


#: The orientations each table prints, in its column order: all four, both directions, one.
WHICH = {"table2": (0, 3, 2, 1), "table3": (0, 1), "table4": (0,)}


def test_experiments_compute_only_the_printed_statistics_by_direct_calls(monkeypatch):
    # Per pair and block, one Spearman call and one orientation call for
    # the table's orientations. Together they return reps x rows values for each
    # printed statistic and nothing unprinted, and every mean is bitwise
    # the mean of the direct calls on that repetition's columns.
    reps, m, seed = 3, 30, 0
    for name, table in TABLES.items():
        spearman_calls, orientation_calls = [], []

        def evaluate(metric, x, y):
            result = _evaluate(metric, x, y)
            spearman_calls.append((metric, np.size(result[0])))
            return result

        def orientations(x, y, which):
            result = _orientations(x, y, which)
            orientation_calls.append((which, result[0].shape))
            return result

        monkeypatch.setattr(minrel.experiments, "_BLOCK_BYTES", 2 * 8 * m)  # blocks of 2 + 1
        monkeypatch.setattr(minrel.experiments, "_evaluate", evaluate)
        monkeypatch.setattr(minrel.experiments, "_orientations", orientations)
        result = run_experiment(name, reps, m, seed)
        monkeypatch.undo()
        rows, which = len(table.rows), WHICH[name]
        assert spearman_calls == [("spearman", 2)] * rows + [("spearman", 1)] * rows
        width = len(which)
        assert orientation_calls == [(which, (2, width))] * rows + [(which, (1, width))] * rows
        returned = {"rho": sum(size for _, size in spearman_calls)}
        for called, (block, _) in orientation_calls:
            for k in called:
                returned[ORIENTATIONS[k]] = returned.get(ORIENTATIONS[k], 0) + block
        assert returned == dict.fromkeys(table.stats, reps * rows)

        series = _direct_series(table, reps, m, seed)
        means = {label: float(np.mean(direct)) for label, direct in series.items()}
        assert [cell.label for cell in result.cells] == list(means)
        for cell in result.cells:
            assert _bits(cell.mean) == _bits(means[cell.label])


def test_blocks_give_every_cell_the_bits_of_the_direct_calls(monkeypatch, sort_counter):
    # Blocks of 2 repetitions, so 5 run as 2 + 2 + 1: each mean and standard
    # error is bitwise that of the per-repetition direct calls.
    reps, seed = 5, 3
    for m in (7, 31):
        monkeypatch.setattr(minrel.experiments, "_BLOCK_BYTES", 2 * 8 * m)
        for name, table in TABLES.items():
            sort_counter.clear()
            result = run_experiment(name, reps, m, seed)
            assert len(sort_counter) == 3 * len(GENERATORS[table.family](m, 0).dataset.names)
            series = _direct_series(table, reps, m, seed)
            assert [cell.label for cell in result.cells] == list(series)
            for cell in result.cells:
                direct = series[cell.label]
                stderr = np.std(direct, ddof=1) / np.sqrt(reps)
                assert _bits(cell.mean) == _bits(float(np.mean(direct)))
                assert _bits(cell.stderr) == _bits(float(stderr))


def test_block_draws_are_the_public_generators_columns(monkeypatch):
    # Each batch the experiments stack holds, row r, the column that the
    # public generator gives for seed + r, bitwise: blocks of 2 repetitions,
    # so 5 run as 2 + 2 + 1, and the largest seed.
    stacked = []
    original = ColumnTransforms._batch

    def recording(rows, names):
        stacked.append((names[0], [np.array(row) for row in rows]))
        return original(rows, names)

    monkeypatch.setattr(ColumnTransforms, "_batch", recording)
    reps = 5
    for m in (2, 7):
        monkeypatch.setattr(minrel.experiments, "_BLOCK_BYTES", 2 * 8 * m)
        for seed in (0, 2**63 - 1):
            for name, table in TABLES.items():
                names = GENERATORS[table.family](m, seed).dataset.names
                stacked.clear()
                run_experiment(name, reps, m, seed)
                labels = [f"column {column!r}" for column in names]
                assert [label for label, _ in stacked] == labels * 3
                batches = {label: [] for label in labels}
                for label, rows in stacked:
                    batches[label].extend(rows)
                for r in range(reps):
                    dataset = GENERATORS[table.family](m, seed + r).dataset
                    for column, label in zip(names, labels):
                        row = batches[label][r]
                        assert row.tobytes() == dataset.column(column).tobytes()


def test_a_non_finite_draw_is_rejected_naming_its_column(monkeypatch, tmp_path, capsys):
    # One repetition's E holds nan: the batch check rejects it, and the
    # command writes no output file.
    draw = DRAWS["combined"]
    calls = []

    def bad(rng, m):
        columns = draw(rng, m)
        calls.append(None)
        if len(calls) == 3:  # the third repetition, in the second block
            columns["E"] = np.where(np.arange(m) == 1, np.nan, columns["E"])
        return columns

    monkeypatch.setattr(minrel.experiments, "_BLOCK_BYTES", 2 * 8 * 7)
    monkeypatch.setitem(DRAWS, "combined", bad)
    with pytest.raises(InvalidInputError, match="'E'"):
        run_experiment("table4", reps=5, m=7, seed=0)
    calls.clear()
    output = tmp_path / "out.csv"
    assert main(["experiment", "table4", "--reps", "5", "--m", "7", "--output", str(output)]) == 2
    assert "'E'" in capsys.readouterr().err
    assert not output.exists()
