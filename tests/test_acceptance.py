"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
line. Seeds are pinned so the whole gate is deterministic.
"""

import time

import numpy as np
import pytest

import minrel.ranks
from minrel import (
    ColumnTransforms,
    Dataset,
    compare_criteria,
    gen_multiplication,
    gen_relevance_suite_dataset,
    gen_triangle_pair,
    iota2,
    iota_oriented,
    iota_raw_indicator,
    iota_raw_squared,
    max_iota_sq,
    minrel_profile_matrix,
    minrel_simple,
    pearson,
    rank_minrelation,
    run_experiment,
    spearman,
)
from minrel.cli import main, read_dataset
from minrel.matrix import MATRIX_METRICS

from oracles import naive_max_iota_sq, naive_rank_minrelation

TABLE_SEED = 2013
TABLE_REPS = 200
TABLE_M = 1000

RELEVANCE_BASE_SEED = 77
RELEVANCE_DATASETS = 50
RELEVANCE_M = 80

TRIANGLE_SEED = 13


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: PASS - {description}")


def _cells_by_label(result):
    return {cell.label: cell for cell in result.cells}


def test_criterion_1_table2_reproduction():
    start = time.monotonic()
    result = run_experiment("table2", TABLE_REPS, TABLE_M, TABLE_SEED)
    elapsed = time.monotonic() - start
    cells = _cells_by_label(result)
    required = {
        "rho(A,B)": (0.66, 0.02),
        "iota(A,B)": (0.99, 0.01),
        "iota_negy(A,B)": (-0.99, 0.01),
        "iota_negx(A,B)": (-0.79, 0.03),
        "iota_yx(A,B)": (0.77, 0.03),
        "rho(B,C)": (0.0, 0.02),
        "iota(B,C)": (0.0, 0.02),
        "iota_negy(B,C)": (0.0, 0.02),
        "iota_negx(B,C)": (0.0, 0.02),
        "iota_yx(B,C)": (0.0, 0.02),
    }
    for label, (reference, tolerance) in required.items():
        cell = cells[label]
        assert cell.reference == reference and cell.tolerance == tolerance
        assert abs(cell.mean - reference) <= tolerance, (label, cell.mean)
    assert elapsed < 60.0
    _report(1, f"multiplication table reproduced in {elapsed:.1f}s at reps={TABLE_REPS}, m={TABLE_M}")


def test_criterion_2_table3_reproduction():
    start = time.monotonic()
    result = run_experiment("table3", TABLE_REPS, TABLE_M, TABLE_SEED)
    elapsed = time.monotonic() - start
    cells = _cells_by_label(result)
    for pair, (rho_ref, iota_ref) in {
        "A,B": (0.79, 0.98),
        "A,C": (0.52, 0.81),
        "A,D": (0.26, 0.46),
    }.items():
        assert abs(cells[f"rho({pair})"].mean - rho_ref) <= 0.02
        assert abs(cells[f"iota({pair})"].mean - iota_ref) <= 0.03
        gap = abs(cells[f"iota({pair})"].mean - cells[f"iota_yx({pair})"].mean)
        assert gap <= 0.02, (pair, gap)
    assert elapsed < 60.0
    _report(2, f"linear table reproduced in {elapsed:.1f}s with symmetric orientations")


def test_criterion_3_table4_reproduction():
    result = run_experiment("table4", TABLE_REPS, TABLE_M, TABLE_SEED)
    cells = _cells_by_label(result)
    assert abs(cells["rho(A,G)"].mean - 0.57) <= 0.03
    assert abs(cells["rho(A,B)"].mean - 0.53) <= 0.03
    assert cells["rho(A,G)"].mean > cells["rho(A,B)"].mean
    assert abs(cells["iota(A,B)"].mean - 0.97) <= 0.02
    assert abs(cells["iota(A,G)"].mean - 0.92) <= 0.02
    assert cells["iota(A,B)"].mean > cells["iota(A,G)"].mean
    assert abs(cells["rho(A,E)"].mean) <= 0.02
    assert abs(cells["iota(A,E)"].mean) <= 0.02
    flip = {check.label: check.passed for check in result.checks}
    assert flip["rho ranks G first"]
    assert flip["iota ranks B, C, D above G"]
    _report(3, "combined table reproduced including the criterion ranking flip")


def test_criterion_4_exact_identity_suite():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        m = int(rng.integers(2, 201))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        sx = 1 if rng.random() < 0.5 else -1
        assert (
            iota_oriented(x, y, sx, -1).value == -iota_oriented(x, y, sx, 1).value
        )
    rng = np.random.default_rng(405)
    for _ in range(1000):
        m = int(rng.integers(2, 201))
        x = rng.normal(size=m)
        np.testing.assert_array_equal(
            ColumnTransforms(x).inc, -ColumnTransforms(-x).dec
        )
    rng = np.random.default_rng(406)
    for _ in range(1000):
        m = int(rng.integers(2, 201))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        assert iota2(x, y).value == rank_minrelation(-y, -x).value
    _report(4, "negation, mirror and sibling identities bit-exact on 1000 instances each")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(505)
    checked = 0
    for instance in range(1000):
        # skew small so the O(m^2) oracle stays fast; cover the upper bound too
        if instance % 5 == 0:
            m = int(rng.integers(61, 201))
        else:
            m = int(rng.integers(2, 61))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        if rng.random() < 0.3:
            x = np.round(x, 1)  # tied values
            y = np.round(y, 1)
        xs, ys = x.tolist(), y.tolist()
        slow_value, slow_degenerate = naive_rank_minrelation(xs, ys)
        fast = rank_minrelation(x, y)
        assert fast.value == pytest.approx(slow_value, abs=1e-12)
        assert fast.degenerate == slow_degenerate
        assert max_iota_sq(x, y) == pytest.approx(naive_max_iota_sq(xs, ys), abs=1e-12)
        checked += 1
    assert checked == 1000
    _report(5, "fast paths match the loop-and-count oracle within 1e-12 on 1000 instances")


def test_criterion_6_property_suite():
    # bounds on adversarial inputs
    rng = np.random.default_rng(606)
    adversarial = [
        (np.zeros(8), np.zeros(8)),
        (np.zeros(8), rng.normal(size=8)),
        (np.array([1.0, 1.0, 2.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0, 1.0, 1.0])),
        (rng.integers(0, 3, 40).astype(float), rng.integers(0, 3, 40).astype(float)),
        (np.repeat([1e9, -1e9, 0.0], 4), np.repeat([0.0, 1e-9, -1e-9], 4)),
    ]
    coefficient_fns = (
        rank_minrelation,
        iota2,
        pearson,
        spearman,
        minrel_simple,
        iota_raw_indicator,
        iota_raw_squared,
    )
    for x, y in adversarial:
        for fn in coefficient_fns:
            value = fn(x, y)
            assert -1.0 <= value.value <= 1.0
            if value.degenerate:
                assert value.value == 0.0
        assert 0.0 <= max_iota_sq(x, y) <= 1.0

    # self-coefficient
    for m in (10, 25, 100, 1000):
        x = rng.normal(size=m)
        assert rank_minrelation(x, x).value >= 0.999

    # near-perfect one-sided data
    ds = gen_triangle_pair(1000, seed=TRIANGLE_SEED).dataset
    assert np.all(ds.column("X") <= ds.column("Y"))
    assert rank_minrelation(ds.column("X"), ds.column("Y")).value >= 0.99

    # independence null
    iota_values, rho_values = [], []
    for rep in range(200):
        pair = gen_multiplication(1000, seed=7000 + rep).dataset
        iota_values.append(rank_minrelation(pair.column("B"), pair.column("C")).value)
        rho_values.append(spearman(pair.column("B"), pair.column("C")).value)
    assert abs(np.mean(iota_values)) <= 0.02
    assert abs(np.mean(rho_values)) <= 0.02

    # monotone invariance of the rank-based coefficients
    x = rng.normal(size=300)
    y = 0.7 * x + rng.normal(size=300)
    for transform in (np.exp, lambda v: v**3):
        assert rank_minrelation(transform(x), transform(y)) == rank_minrelation(x, y)
        assert iota2(transform(x), y) == iota2(x, y)
        assert spearman(transform(x), transform(y)) == spearman(x, y)
        assert max_iota_sq(x, transform(y)) == max_iota_sq(x, y)
    _report(6, "bounds, self, triangle, null and invariance properties all hold")


def test_criterion_7_ranking_protocol_and_win_counts():
    wins = losses = draws = 0
    for index in range(RELEVANCE_DATASETS):
        bench = gen_relevance_suite_dataset(RELEVANCE_M, RELEVANCE_BASE_SEED + index)
        assert bench.dataset.n == 20
        record = compare_criteria(bench.dataset, bench.targets)
        assert record.wins + record.losses + record.draws == len(record.outcomes)
        wins += record.wins
        losses += record.losses
        draws += record.draws
    assert wins > losses, (wins, losses, draws)

    # the same harness runs end to end on externally supplied data
    rng = np.random.default_rng(909)
    b, c, noise = rng.random(120), rng.random(120), rng.random(120)
    user_dataset = Dataset.from_columns(
        {"t1": b * c, "b": b, "c": c, "n": noise, "t2": noise + rng.random(120)}
    )
    declared = {"t1": ("b", "c"), "t2": ("n",)}
    record = compare_criteria(user_dataset, declared, min_relevant=2)
    assert [o.target for o in record.outcomes] == ["t1"]
    record = compare_criteria(user_dataset, declared, min_relevant=1)
    assert len(record.outcomes) == 2
    assert {o.outcome for o in record.outcomes} <= {"win", "loss", "draw"}
    _report(
        7,
        f"max iota^2 wins {wins} vs rho^2 {losses} (draws {draws}) over "
        f"{RELEVANCE_DATASETS} synthetic datasets; protocol runs on user data",
    )


def test_criterion_8_cli_determinism(tmp_path, capsys, monkeypatch):
    data_path = str(tmp_path / "data.csv")
    assert main(["gen", "combined", "--m", "300", "--seed", "21",
                 "--output", data_path]) == 0

    def run_to_file(tag, argv):
        path = str(tmp_path / tag)
        assert main(argv + ["--output", path]) == 0
        with open(path, "rb") as handle:
            return handle.read()

    commands = {
        "gen": ["gen", "multiplication", "--m", "200", "--seed", "5"],
        "coeff": ["coeff", data_path, "--x", "A", "--y", "G", "--metric", "iota"],
        "matrix": ["matrix", data_path, "--metric", "max_iota_sq", "--format", "csv"],
        "rank": ["rank", data_path, "--target", "A", "--criterion", "max_iota_sq"],
        "experiment": ["experiment", "table3", "--reps", "3", "--m", "80", "--seed", "9"],
    }
    for tag, argv in commands.items():
        first = run_to_file(f"{tag}_1.out", list(argv))
        second = run_to_file(f"{tag}_2.out", list(argv))
        assert first == second, f"{tag} output changed between runs"

    def matrices(tag):
        return [run_to_file(f"{tag}_{metric}.out", commands["matrix"] + ["--metric", metric])
                for metric in MATRIX_METRICS]

    serial = matrices("serial")
    dataset = read_dataset(data_path, "error")
    profile = minrel_profile_matrix(dataset)
    monkeypatch.setattr(minrel.ranks, "_THREAD_WORK", 1)  # threads however small the matrix
    for cpus in (2, 4):
        monkeypatch.setattr(minrel.ranks, "_available_cpus", lambda: cpus)
        assert matrices(f"threads_{cpus}") == serial, f"{cpus} threads changed matrix bytes"
        threaded = minrel_profile_matrix(dataset)
        for field in ("iota_xy", "iota_yx", "iota_negx_y", "iota_negy_x", "max_iota_sq"):
            assert getattr(threaded, field).tobytes() == getattr(profile, field).tobytes()
        assert threaded.degenerate.tobytes() == profile.degenerate.tobytes()
    capsys.readouterr()
    _report(8, "all five commands byte-identical across runs and thread counts")
