import pytest

import minrel.experiments
import minrel.ranks
from minrel import InvalidInputError, run_experiment
from minrel.experiments import ExperimentCell, run_table2, run_table3, run_table4


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
        run_table2(reps=0, m=10, seed=0)
    with pytest.raises(InvalidInputError):
        run_table3(reps=1, m=1, seed=0)


def test_small_runs_produce_all_cells():
    table2 = run_table2(reps=3, m=40, seed=1)
    assert len(table2.cells) == 15
    assert all(cell.stderr >= 0.0 for cell in table2.cells)
    table3 = run_table3(reps=3, m=40, seed=1)
    assert len(table3.cells) == 9 and len(table3.checks) == 3
    table4 = run_table4(reps=3, m=40, seed=1)
    assert len(table4.cells) == 10 and len(table4.checks) == 4


def test_experiments_are_seed_deterministic():
    first = run_table3(reps=2, m=50, seed=9)
    second = run_table3(reps=2, m=50, seed=9)
    assert [c.mean for c in first.cells] == [c.mean for c in second.cells]


def test_experiments_rank_each_column_once_per_repetition(monkeypatch):
    calls = {"count": 0}
    original = minrel.ranks.fractional_ranks

    def counting(values):
        calls["count"] += 1
        return original(values)

    monkeypatch.setattr(minrel.ranks, "fractional_ranks", counting)
    # Datasets of 3 (A, B, C), 4 (A..D) and 6 (A..E, G) columns.
    for run, columns in ((run_table2, 3), (run_table3, 4), (run_table4, 6)):
        calls["count"] = 0
        run(reps=2, m=30, seed=0)
        assert calls["count"] == 2 * columns


def test_experiments_go_through_the_direct_calls(monkeypatch):
    # Every pair is scored by the public spearman and minrel_profile, so a
    # wrapper of either sees each call.
    calls = {"spearman": 0, "minrel_profile": 0}
    for name in calls:
        original = getattr(minrel.experiments, name)

        def counting(x, y, name=name, original=original):
            calls[name] += 1
            return original(x, y)

        monkeypatch.setattr(minrel.experiments, name, counting)
    run_table2(reps=2, m=30, seed=0)
    assert calls == {"spearman": 2 * 3, "minrel_profile": 2 * 3}
