"""Exact output bytes of every CLI command, pinned against committed files.

The files in ``data/golden`` were written by the command lines below from
``data/golden/input.csv``, run from that directory, so the recorded input
path is ``input.csv``. Seven data rows keep every sum a plain sequential
loop. The JSON files hold no Pearson/Spearman values: those go through a
BLAS dot product, whose last bits may differ between CPUs.
"""

import os

import pytest

from minrel.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

COMMANDS = {
    "coeff.csv": ["coeff", "input.csv", "--metric", "iota", "--format", "csv"],
    "coeff.json": ["coeff", "input.csv", "--metric", "iota"],
    "matrix.csv": ["matrix", "input.csv", "--metric", "max_iota_sq", "--format", "csv"],
    "matrix.json": ["matrix", "input.csv", "--metric", "iota"],
    "rank.csv": [
        "rank", "input.csv", "--target", "A", "--criterion", "max_iota_sq",
        "--relevant", "B,T", "--format", "csv",
    ],
    "rank.json": [
        "rank", "input.csv", "--target", "A", "--criterion", "max_iota_sq", "--relevant", "B,T",
    ],
    "experiment.csv": [
        "experiment", "table4", "--reps", "2", "--m", "7", "--seed", "1", "--format", "csv",
    ],
    "experiment_table2.csv": [
        "experiment", "table2", "--reps", "2", "--m", "7", "--seed", "1", "--format", "csv",
    ],
    "experiment_table3.csv": [
        "experiment", "table3", "--reps", "2", "--m", "7", "--seed", "1", "--format", "csv",
    ],
    "gen.csv": ["gen", "triangle", "--m", "5", "--seed", "3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_equal_the_golden_file(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    written = tmp_path / name
    assert main(COMMANDS[name] + ["--output", str(written)]) == 0
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        assert written.read_bytes() == handle.read()
