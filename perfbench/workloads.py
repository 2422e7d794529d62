"""Seeded inputs, job command lines and output checks for each workload.

A workload is prepared once per run: its inputs are generated from the
workload seed and written to files before any timing starts. One job is a
fixed sequence of ``minrel.cli.main(argv)`` calls; the closed loop in
``worker.py`` repeats it. The checks read the files the last job wrote and
compare them with an independent recomputation (``scipy.stats.rankdata``
and the paper's formula), never with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import rankdata

WORKLOADS = ("network", "select", "repro")

# Input sizes. "full" is what the benchmark measures; "smoke" is the tiny
# size the smoke test uses to run every path, checks included, in seconds.
SIZES = {
    "full": {
        "network_m": 1000,
        "network_blocks": (2, 3, 4, 5, 6, 2, 3, 4, 5, 6),
        "network_noise": 50,
        "network_sample": 60,
        "select_m": 50_000,
        "repro_reps": 200,
        "repro_m": 1000,
    },
    "smoke": {
        "network_m": 300,
        "network_blocks": (2, 3),
        "network_noise": 5,
        "network_sample": 10,
        "select_m": 3000,
        "repro_reps": 60,
        "repro_m": 1000,
    },
}

# The relevance-suite layout: T1..T3 are products of their own blocks of
# 4, 5 and 6 uniform factors; N1, N2 are unrelated uniforms.
SELECT_BLOCKS = (4, 5, 6)
SELECT_NOISE = 2

TOLERANCE = 1e-12


@dataclass(frozen=True)
class Job:
    """One job of a workload and the check of what it wrote."""

    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    check: Callable[[], list[str]]


# ---------------------------------------------------------------------------
# Independent reference: scipy ranks and the paper's formula.


def _transforms(values: np.ndarray) -> dict[str, np.ndarray]:
    """Triangular squared-rank transforms of X and of -X (paper, section 3)."""
    m = values.size
    up = rankdata(values, method="average")  # r(X)
    down = rankdata(-values, method="average")  # r(-X)
    return {
        "dec": up * up / (m * m) - 0.5,
        "inc": 0.5 - down * down / (m * m),
        "neg_dec": down * down / (m * m) - 0.5,
    }


def _trade_off(x_dec: np.ndarray, y_dec: np.ndarray, y_inc: np.ndarray) -> float:
    support = x_dec + y_dec
    gap = x_dec - y_inc
    above = float(np.sum(np.where(x_dec > -y_dec, support * support, 0.0)))
    below = float(np.sum(np.where(x_dec > y_inc, gap * gap, 0.0)))
    total = above + below
    return 0.0 if total == 0.0 else (above - below) / total


def ref_iota(x: np.ndarray, y: np.ndarray) -> float:
    tx, ty = _transforms(x), _transforms(y)
    return _trade_off(tx["dec"], ty["dec"], ty["inc"])


def ref_max_iota_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Largest square of iota(X,Y), iota(Y,X), iota(-X,Y) and iota(-Y,X)."""
    tx, ty = _transforms(x), _transforms(y)
    return max(
        _trade_off(tx["dec"], ty["dec"], ty["inc"]) ** 2,
        _trade_off(ty["dec"], tx["dec"], tx["inc"]) ** 2,
        _trade_off(tx["neg_dec"], ty["dec"], ty["inc"]) ** 2,
        _trade_off(ty["neg_dec"], tx["dec"], tx["inc"]) ** 2,
    )


def ref_spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    denominator = np.sqrt(float(np.dot(cx, cx)) * float(np.dot(cy, cy)))
    return 0.0 if denominator == 0.0 else float(np.dot(cx, cy)) / denominator


REFERENCE = {"iota": ref_iota, "max_iota_sq": ref_max_iota_sq, "spearman": ref_spearman}


# ---------------------------------------------------------------------------
# Input generation.


def _product_blocks(rng, m, blocks, n_noise):
    """Targets, each the product of its own block of U(0, 1) factors, plus noise.

    Returns the column names (targets T1.., factors F01.., noise N1..), an
    (m, n) array and the factor block of every target. Factors and noise
    are drawn in column order.
    """
    factors, targets = {}, {}
    for t, k in enumerate(blocks, start=1):
        block = [f"F{len(factors) + i:02d}" for i in range(1, k + 1)]
        for name in block:
            factors[name] = rng.random(m)
        targets[f"T{t}"] = tuple(block)
    noise = {f"N{i}": rng.random(m) for i in range(1, n_noise + 1)}
    columns = {**factors, **noise}
    for target, block in targets.items():
        columns[target] = np.prod([factors[name] for name in block], axis=0)
    names = list(targets) + list(factors) + list(noise)
    return names, np.column_stack([columns[name] for name in names]), targets


def _write_csv(path: str, names: list[str], cells: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(",".join(row) + "\n" for row in cells.tolist())


# ---------------------------------------------------------------------------
# network: three matrix calls on a wide CSV.


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_matrix_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    names = rows[0][1:]
    values = np.array([[float(v) for v in row[1:]] for row in rows[1 : 1 + len(names)]])
    return names, values


def prepare_network(workdir: str, seed: int, size: dict) -> Job:
    rng = np.random.default_rng([seed, 1])
    names, data, targets = _product_blocks(
        rng, size["network_m"], size["network_blocks"], size["network_noise"]
    )
    path = os.path.join(workdir, "network.csv")
    # 17 significant digits round-trip every double, so the program parses
    # exactly the values the reference uses.
    _write_csv(path, names, np.char.mod("%.17g", data))
    outputs = {
        "iota": os.path.join(workdir, "iota.json"),
        "max_iota_sq": os.path.join(workdir, "max_iota_sq.json"),
        "spearman": os.path.join(workdir, "spearman.csv"),
    }
    calls = (
        ("matrix", path, "--metric", "iota", "--output", outputs["iota"]),
        ("matrix", path, "--metric", "max_iota_sq", "--output", outputs["max_iota_sq"]),
        ("matrix", path, "--metric", "spearman", "--format", "csv",
         "--output", outputs["spearman"]),
    )
    # A seeded sample of cells, plus each target against its first factor,
    # where the values are far from zero.
    sample = np.random.default_rng([seed, 2]).integers(
        0, len(names), size=(size["network_sample"], 2)
    ).tolist()
    sample += [[names.index(t), names.index(block[0])] for t, block in targets.items()]
    noise = [names.index(name) for name in names if name.startswith("N")]

    def check() -> list[str]:
        problems = []
        matrices = {}
        for metric in ("iota", "max_iota_sq"):
            payload = _read_json(outputs[metric])
            if payload["names"] != names:
                return [f"{metric}: column names differ from the input header"]
            matrices[metric] = np.array(
                [[payload["values"][x][y] for y in names] for x in names]
            )
        spearman_names, matrices["spearman"] = _read_matrix_csv(outputs["spearman"])
        if spearman_names != names:
            return ["spearman: column names differ from the input header"]
        for metric, matrix in matrices.items():
            low = 0.0 if metric == "max_iota_sq" else -1.0
            if not np.all((matrix >= low) & (matrix <= 1.0)):
                problems.append(f"{metric}: values outside [{low:g}, 1]")
            reference = REFERENCE[metric]
            for i, j in sample:
                expected = reference(data[:, i], data[:, j])
                if abs(matrix[i, j] - expected) > TOLERANCE:
                    problems.append(
                        f"{metric}[{names[i]}, {names[j]}] = {matrix[i, j]!r}, "
                        f"reference {expected!r}"
                    )
            for target, block in targets.items():
                row = matrix[names.index(target)]
                weakest = min(row[names.index(name)] for name in block)
                if not weakest > row[noise].max():
                    problems.append(f"{metric}: a noise column outranks a factor of {target}")
        if not np.array_equal(matrices["max_iota_sq"], matrices["max_iota_sq"].T):
            problems.append("max_iota_sq: matrix is not exactly symmetric")
        return problems

    return Job(calls=calls, outputs=tuple(outputs.values()), check=check)


# ---------------------------------------------------------------------------
# select: rank the columns of a tall, heavily tied CSV against T1.


def prepare_select(workdir: str, seed: int, size: dict) -> Job:
    rng = np.random.default_rng([seed, 3])
    names, data, targets = _product_blocks(
        rng, size["select_m"], SELECT_BLOCKS, SELECT_NOISE
    )
    # Three significant digits make ties heavy. The reference parses the
    # same text the program reads.
    text = np.char.mod("%.3g", data)
    values = text.astype(float)
    path = os.path.join(workdir, "select.csv")
    _write_csv(path, names, text)
    output = os.path.join(workdir, "rank.json")
    relevant = targets["T1"]
    calls = (
        ("rank", path, "--target", "T1", "--criterion", "max_iota_sq",
         "--relevant", ",".join(relevant), "--output", output),
    )
    target = values[:, names.index("T1")]

    def check() -> list[str]:
        payload = _read_json(output)
        ranking = payload["ranking"]
        problems = []
        ranked = [entry["name"] for entry in ranking]
        if sorted(ranked) != sorted(name for name in names if name != "T1"):
            return [f"ranking covers {ranked}, not every non-target column"]
        if set(ranked[: len(relevant)]) != set(relevant):
            problems.append(f"top positions {ranked[:len(relevant)]} are not T1's factors")
        expected_avg = (len(relevant) + 1) / 2
        if payload.get("avg_position") != expected_avg:
            problems.append(f"avg_position {payload.get('avg_position')!r} != {expected_avg}")
        scores = [entry["score"] for entry in ranking]
        if scores != sorted(scores, reverse=True):
            problems.append("scores are not in descending order")
        for entry in ranking:
            expected = ref_max_iota_sq(values[:, names.index(entry["name"])], target)
            if abs(entry["score"] - expected) > TOLERANCE:
                problems.append(f"score of {entry['name']} = {entry['score']!r}, reference {expected!r}")
        return problems

    return Job(calls=calls, outputs=(output,), check=check)


# ---------------------------------------------------------------------------
# repro: the paper's three toy tables by Monte Carlo.

# The paper's reference values and tolerances, cell label -> (value, tolerance).
PAPER_TABLES = {
    "table2": {
        **{
            f"{label}({tag})": cell
            for tag in ("A,B", "A,C")
            for label, cell in (
                ("rho", (0.66, 0.02)),
                ("iota", (0.99, 0.01)),
                ("iota_negy", (-0.99, 0.01)),
                ("iota_negx", (-0.79, 0.03)),
                ("iota_yx", (0.77, 0.03)),
            )
        },
        **{
            f"{label}(B,C)": (0.0, 0.02)
            for label in ("rho", "iota", "iota_negy", "iota_negx", "iota_yx")
        },
    },
    "table3": {
        f"{label}(A,{name})": cell
        for name, rho, iota in (("B", 0.79, 0.98), ("C", 0.52, 0.81), ("D", 0.26, 0.46))
        for label, cell in (("rho", (rho, 0.02)), ("iota", (iota, 0.03)), ("iota_yx", (iota, 0.03)))
    },
    "table4": {
        f"{label}(A,{name})": cell
        for name, rho, iota in (
            ("B", (0.53, 0.03), (0.97, 0.02)),
            ("C", (0.53, 0.03), (0.97, 0.02)),
            ("D", (0.53, 0.03), (0.97, 0.02)),
            ("E", (0.00, 0.02), (0.00, 0.02)),
            ("G", (0.57, 0.03), (0.92, 0.02)),
        )
        for label, cell in (("rho", rho), ("iota", iota))
    },
}


def _paper_orderings(table: str, mean: dict[str, float]) -> list[str]:
    """The qualitative claims of each table, checked on the reported means."""
    problems = []
    if table == "table3":
        for name in ("B", "C", "D"):
            if abs(mean[f"iota(A,{name})"] - mean[f"iota_yx(A,{name})"]) > 0.02:
                problems.append(f"table3: iota(A,{name}) and iota({name},A) differ by > 0.02")
    if table == "table4":
        rho = {name: mean[f"rho(A,{name})"] for name in "BCDEG"}
        iota = {name: mean[f"iota(A,{name})"] for name in "BCDEG"}
        if max(rho, key=rho.get) != "G":
            problems.append("table4: squared correlation does not rank G first")
        if not all(iota[name] > iota["G"] for name in "BCD"):
            problems.append("table4: iota does not put B, C, D above G")
    return problems


def prepare_repro(workdir: str, seed: int, size: dict) -> Job:
    outputs = {table: os.path.join(workdir, f"{table}.json") for table in PAPER_TABLES}
    calls = tuple(
        ("experiment", table, "--reps", str(size["repro_reps"]), "--m", str(size["repro_m"]),
         "--seed", str(seed), "--output", output)
        for table, output in outputs.items()
    )

    def check() -> list[str]:
        problems = []
        for table, output in outputs.items():
            payload = _read_json(output)
            mean = {cell["label"]: cell["mean"] for cell in payload["cells"]}
            if set(mean) != set(PAPER_TABLES[table]):
                problems.append(f"{table}: cells {sorted(mean)} differ from the paper's")
                continue
            for label, (reference, tolerance) in PAPER_TABLES[table].items():
                if not abs(mean[label] - reference) <= tolerance:
                    problems.append(
                        f"{table}: {label} = {mean[label]:.4f}, paper {reference} +- {tolerance}"
                    )
            problems.extend(_paper_orderings(table, mean))
            failed = [c["label"] for c in payload["cells"] + payload["checks"] if c["status"] != "pass"]
            if failed or payload["passed"] is not True:
                problems.append(f"{table}: the program reports failures {failed}")
        return problems

    return Job(calls=calls, outputs=tuple(outputs.values()), check=check)


PREPARE = {"network": prepare_network, "select": prepare_select, "repro": prepare_repro}
