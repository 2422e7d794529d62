"""Exact output bytes of every CLI command, pinned against committed files.

The files in ``data/golden`` were written by the command lines below from
``data/golden/input.csv`` (or ``input_names.csv``), run from that
directory, so the recorded input path is the file name. Each command must give these bytes both with
``--output`` and on stdout. Seven data rows keep every sum a plain sequential
loop.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import minrel
from minrel.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

COMMANDS = {
    "coeff.csv": ["coeff", "input.csv", "--metric", "iota", "--format", "csv"],
    "coeff.json": ["coeff", "input.csv", "--metric", "iota"],
    # Signed direct calls: p is +, n is -. argparse takes a value starting with
    # "-" only after "=", and drops a "--" value, which the CLI restores.
    **{
        f"coeff_iota_{name}.json": [
            "coeff", "input.csv", "--metric", "iota", f"--orientation={signs}",
        ]
        for name, signs in (("pn", "+-"), ("np", "-+"), ("nn", "--"))
    },
    "coeff_iota2.json": ["coeff", "input.csv", "--metric", "iota2"],
    "matrix.csv": ["matrix", "input.csv", "--metric", "max_iota_sq", "--format", "csv"],
    "matrix.json": ["matrix", "input.csv", "--metric", "iota"],
    "matrix_iota.csv": ["matrix", "input.csv", "--metric", "iota", "--format", "csv"],
    "matrix_iota2.json": ["matrix", "input.csv", "--metric", "iota2"],
    "matrix_max_iota_sq.json": ["matrix", "input.csv", "--metric", "max_iota_sq"],
    "matrix_minrel_simple.json": ["matrix", "input.csv", "--metric", "minrel_simple"],
    # Names out of sort order that the JSON and CSV writers must escape and
    # quote: a comma, a quote, a backslash, non-ASCII and a line break. The
    # constant column makes a degenerate cell.
    "matrix_names.csv": ["matrix", "input_names.csv", "--metric", "iota", "--format", "csv"],
    "matrix_names.json": ["matrix", "input_names.csv", "--metric", "iota"],
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
    # 40 repetitions of 1000 rows span two blocks of repetitions; CSV hides BLAS last bits.
    **{
        f"experiment_{table}_blocks.csv": [
            "experiment", table, "--reps", "40", "--m", "1000", "--seed", "1", "--format", "csv",
        ]
        for table in ("table2", "table3", "table4")
    },
    "gen.csv": ["gen", "triangle", "--m", "5", "--seed", "3"],
    **{
        f"gen_{family}.csv": ["gen", family, "--m", "5", "--seed", "3"]
        for family in ("multiplication", "linear", "combined")
    },
    **{
        f"matrix_{metric}.csv": ["matrix", "input.csv", "--metric", metric, "--format", "csv"]
        for metric in ("iota2", "minrel_simple", "pearson", "spearman")
    },
    **{
        f"rank_{criterion}.csv": [
            "rank", "input.csv", "--target", "A", "--criterion", criterion, "--format", "csv",
        ]
        for criterion in ("rho2", "iota_sq")
    },
    **{
        f"rank_{criterion}.json": ["rank", "input.csv", "--target", "A", "--criterion", criterion]
        for criterion in ("rho2", "iota_sq")
    },
    **{
        f"{command}_{metric}.json": [command, "input.csv", "--metric", metric]
        for command in ("coeff", "matrix")
        for metric in ("pearson", "spearman")
    },
    **{
        f"coeff_{metric}.csv": ["coeff", "input.csv", "--metric", metric, "--format", "csv"]
        for metric in (
            "max_iota_sq", "iota2", "p_leq_hat", "iota_raw_indicator", "iota_raw_squared",
        )
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_equal_the_golden_file(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        golden = handle.read()
    written = tmp_path / name
    assert main(COMMANDS[name] + ["--output", str(written)]) == 0
    assert written.read_bytes() == golden
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_correlation_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 50 000 rows, far more than the golden files hold: untied columns of
    # different scales and tied ones. On a 2-CPU x86-64 host with OpenBLAS,
    # Pearson reduced by a BLAS dot product gives different bytes under one and
    # two threads on this input.
    rng = np.random.default_rng(7)
    m = 50_000
    columns = [
        rng.normal(size=m), rng.normal(size=m) * 1e3,
        rng.integers(0, 5, m).astype(float), rng.integers(0, 50, m) * 0.5,
    ]
    path = tmp_path / "input.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("a,b,c,d\n")
        np.savetxt(handle, np.column_stack(columns), delimiter=",", fmt="%.17g")
    package_root = os.path.dirname(os.path.dirname(minrel.__file__))
    for command, metric in itertools.product(("matrix", "coeff"), ("pearson", "spearman")):
        argv = [sys.executable, "-m", "minrel.cli", command, str(path), "--metric", metric]
        outputs = set()
        for threads in ("1", "2"):
            env = {
                **os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
            }
            run = subprocess.run(argv, capture_output=True, env=env, timeout=120)
            assert (run.returncode, run.stderr) == (0, b"")
            outputs.add(run.stdout)
        assert len(outputs) == 1, (command, metric)
