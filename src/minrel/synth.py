"""Seeded generators for the toy experiment families.

All generators draw from ``numpy.random.default_rng(seed)`` (PCG64) in a
fixed documented order, so a given (family, m, seed) always yields the same
dataset on this implementation. Structural identities (A = B*C and the
like) hold exactly, not just statistically. Repetition harnesses derive
per-repetition seeds as ``seed + repetition_index``.

Each toy family's draw is one function, its :data:`DRAWS` entry, called
by its ``gen_*`` generator and by the experiments, which stack the draws
straight into batches. Every generator shares one prologue, :func:`_generate`:
it checks m (>= 2) and seed (>= 0), seeds the generator and wraps the draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidInputError, require_count
from .matrix import Dataset

@dataclass(frozen=True, eq=False)
class GeneratedDataset:
    """A synthetic dataset together with how it was produced."""

    dataset: Dataset
    family: str
    m: int
    seed: int


@dataclass(frozen=True, eq=False)
class RelevanceSuiteDataset:
    """A ranking benchmark dataset: targets with known relevant columns."""

    dataset: Dataset
    targets: Mapping[str, tuple[str, ...]]
    m: int
    seed: int


def _generate(family: str, m: int, seed: int, draw: Callable[..., dict]) -> GeneratedDataset:
    """Check m and seed, then wrap ``draw(default_rng(seed), m)``'s columns as ``family``."""
    m = require_count(m, "m", 2)
    seed = require_count(seed, "seed", 0)
    dataset = Dataset.from_columns(draw(np.random.default_rng(seed), m))
    return GeneratedDataset(dataset=dataset, family=family, m=m, seed=seed)


def _draw_multiplication(rng: np.random.Generator, m: int) -> dict:
    b, c = rng.random((2, m))
    return {"A": b * c, "B": b, "C": c}


def _draw_linear(rng: np.random.Generator, m: int) -> dict:
    b, c, d = rng.standard_normal((3, m))
    return {"A": 3.0 * b + 2.0 * c + d, "B": b, "C": c, "D": d}


def _draw_combined(rng: np.random.Generator, m: int) -> dict:
    b, c, d = rng.random((3, m))
    e = rng.normal(0.0, 0.15, m)
    a = b * c * d
    return {"A": a, "B": b, "C": c, "D": d, "E": e, "G": a + e}


def _draw_triangle(rng: np.random.Generator, m: int) -> dict:
    u, v = rng.random((2, m))
    return {"X": np.minimum(u, v) - 0.5, "Y": np.maximum(u, v) - 0.5}


#: Each toy family's draw(rng, m): its (m,) columns by name, in column order.
DRAWS = {
    "multiplication": _draw_multiplication,
    "linear": _draw_linear,
    "combined": _draw_combined,
    "triangle": _draw_triangle,
}


def gen_multiplication(m: int, seed: int) -> GeneratedDataset:
    """A = B * C with B, C independent U(0, 1).

    A is dominated by both factors componentwise, the cleanest way to
    produce a strong one-directional dependence. Draw order: B, then C.
    """
    return _generate("multiplication", m, seed, _draw_multiplication)


def gen_linear(m: int, seed: int) -> GeneratedDataset:
    """A = 3B + 2C + D with B, C, D independent standard normals.

    Draw order: B, C, D.
    """
    return _generate("linear", m, seed, _draw_linear)


def gen_combined(m: int, seed: int) -> GeneratedDataset:
    """A = B*C*D (uniform factors) observed through noise: G = A + E.

    E is normal with mean 0 and standard deviation 0.15. Draw order:
    B, C, D, then E.
    """
    return _generate("combined", m, seed, _draw_combined)


def gen_triangle_pair(m: int, seed: int) -> GeneratedDataset:
    """(X, Y) uniform on the triangle -0.5 <= x <= y <= 0.5.

    Built as the (min, max) of two independent U(0, 1) draws shifted to be
    centered, so x_i <= y_i holds for every sample, X has a decreasing
    triangular marginal (mean -1/6) and Y an increasing one (mean +1/6).
    Draw order: the min/max source pair.
    """
    return _generate("triangle", m, seed, _draw_triangle)


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
    targets: dict[str, tuple[str, ...]] = {}

    def draw(rng, m):
        counts = tuple(require_count(k, "factor count", 1) for k in factor_counts)
        if not counts:
            raise InvalidInputError("factor_counts must not be empty")
        noise = require_count(n_noise, "n_noise", 0)
        products: dict[str, np.ndarray] = {}
        drawn: dict[str, np.ndarray] = {}
        for t, k in enumerate(counts, start=1):
            product = np.ones(m)
            block = tuple(f"F{len(drawn) + i:02d}" for i in range(1, k + 1))
            for name in block:
                drawn[name] = rng.random(m)
                product = product * drawn[name]
            products[f"T{t}"] = product
            targets[f"T{t}"] = block
        drawn.update((f"N{i}", rng.random(m)) for i in range(1, noise + 1))
        return {**products, **drawn}

    generated = _generate("relevance_suite", m, seed, draw)
    return RelevanceSuiteDataset(generated.dataset, targets, generated.m, generated.seed)
