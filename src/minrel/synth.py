"""Seeded generators for the toy experiment families.

All generators draw from ``numpy.random.default_rng(seed)`` (PCG64) in a
fixed documented order, so a given (family, m, seed) always yields the same
dataset on this implementation. Structural identities (A = B*C and the
like) hold exactly, not just statistically. Repetition harnesses derive
per-repetition seeds as ``seed + repetition_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInputError
from .matrix import Dataset

@dataclass(frozen=True)
class GeneratedDataset:
    """A synthetic dataset together with how it was produced."""

    dataset: Dataset
    family: str
    m: int
    seed: int


@dataclass(frozen=True)
class RelevanceSuiteDataset:
    """A ranking benchmark dataset: targets with known relevant columns."""

    dataset: Dataset
    targets: Mapping[str, tuple[str, ...]]
    m: int
    seed: int


def _require_m(m: int) -> int:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 2:
        raise InvalidInputError(f"m must be an integer >= 2, got {m!r}")
    return int(m)


def _require_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def gen_multiplication(m: int, seed: int) -> GeneratedDataset:
    """A = B * C with B, C independent U(0, 1).

    A is dominated by both factors componentwise, the cleanest way to
    produce a strong one-directional dependence. Draw order: B, then C.
    """
    m = _require_m(m)
    seed = _require_seed(seed)
    rng = np.random.default_rng(seed)
    b = rng.random(m)
    c = rng.random(m)
    dataset = Dataset.from_columns({"A": b * c, "B": b, "C": c})
    return GeneratedDataset(dataset=dataset, family="multiplication", m=m, seed=seed)


def gen_linear(m: int, seed: int) -> GeneratedDataset:
    """A = 3B + 2C + D with B, C, D independent standard normals.

    Draw order: B, C, D.
    """
    m = _require_m(m)
    seed = _require_seed(seed)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(m)
    c = rng.standard_normal(m)
    d = rng.standard_normal(m)
    dataset = Dataset.from_columns({"A": 3.0 * b + 2.0 * c + d, "B": b, "C": c, "D": d})
    return GeneratedDataset(dataset=dataset, family="linear", m=m, seed=seed)


def gen_combined(m: int, seed: int) -> GeneratedDataset:
    """A = B*C*D (uniform factors) observed through noise: G = A + E.

    E is normal with mean 0 and standard deviation 0.15. Draw order:
    B, C, D, then E.
    """
    m = _require_m(m)
    seed = _require_seed(seed)
    rng = np.random.default_rng(seed)
    b = rng.random(m)
    c = rng.random(m)
    d = rng.random(m)
    e = rng.normal(0.0, 0.15, m)
    a = b * c * d
    dataset = Dataset.from_columns(
        {"A": a, "B": b, "C": c, "D": d, "E": e, "G": a + e}
    )
    return GeneratedDataset(dataset=dataset, family="combined", m=m, seed=seed)


def gen_triangle_pair(m: int, seed: int) -> GeneratedDataset:
    """(X, Y) uniform on the triangle -0.5 <= x <= y <= 0.5.

    Built as the (min, max) of two independent U(0, 1) draws shifted to be
    centered, so x_i <= y_i holds for every sample, X has a decreasing
    triangular marginal (mean -1/6) and Y an increasing one (mean +1/6).
    Draw order: the min/max source pair.
    """
    m = _require_m(m)
    seed = _require_seed(seed)
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    v = rng.random(m)
    x = np.minimum(u, v) - 0.5
    y = np.maximum(u, v) - 0.5
    dataset = Dataset.from_columns({"X": x, "Y": y})
    return GeneratedDataset(dataset=dataset, family="triangle", m=m, seed=seed)


#: Each toy family's generator, by the name the command line uses.
GENERATORS = {
    "multiplication": gen_multiplication,
    "linear": gen_linear,
    "combined": gen_combined,
    "triangle": gen_triangle_pair,
}

FAMILIES = tuple(GENERATORS)


def gen_relevance_suite_dataset(
    m: int,
    seed: int,
    factor_counts: tuple[int, ...] = (4, 5, 6),
    n_noise: int = 2,
) -> RelevanceSuiteDataset:
    """One ranking-benchmark dataset with known predictor sets.

    Columns: one target per entry of ``factor_counts``, each the product of
    its own disjoint block of independent U(0, 1) factor columns, plus
    ``n_noise`` unrelated U(0, 1) columns. With the default layout that is
    20 columns: T1 = product of F01..F04, T2 of F05..F09, T3 of F10..F15,
    noise N1, N2. The factor and noise columns are drawn in column order.
    """
    m = _require_m(m)
    seed = _require_seed(seed)
    if not factor_counts or any(k < 1 for k in factor_counts):
        raise InvalidInputError("factor_counts must be positive integers")
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    targets: dict[str, tuple[str, ...]] = {}
    factor_index = 0
    for t, k in enumerate(factor_counts, start=1):
        block = []
        for _ in range(k):
            factor_index += 1
            name = f"F{factor_index:02d}"
            columns[name] = rng.random(m)
            block.append(name)
        product = np.ones(m)
        for name in block:
            product = product * columns[name]
        columns[f"T{t}"] = product
        targets[f"T{t}"] = tuple(block)
    for i in range(1, n_noise + 1):
        columns[f"N{i}"] = rng.random(m)
    ordered = {f"T{t}": columns[f"T{t}"] for t in range(1, len(factor_counts) + 1)}
    ordered.update(
        (name, columns[name]) for name in columns if not name.startswith("T")
    )
    return RelevanceSuiteDataset(
        dataset=Dataset.from_columns(ordered), targets=targets, m=m, seed=seed
    )
