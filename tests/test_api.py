"""The package's public surface: one public name per capability."""

import types

import minrel
import minrel.experiments
import minrel.ranks

#: Names that only relabelled a kept one; each value is one attribute or call away:
#: ``ColumnTransforms(x).ranks``, ``.dec`` and ``.inc``, ``ranks / m`` and
#: ``run_experiment("tableN", ...)``.
REMOVED = (
    "RankVector",
    "TriangularScores",
    "Direction",
    "compute_ranks",
    "uniform_norm",
    "tri_decreasing",
    "tri_increasing",
    "run_table2",
    "run_table3",
    "run_table4",
)


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(minrel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(minrel.__all__) == len(set(minrel.__all__))
    assert set(minrel.__all__) == public | {"__version__"}
    for name in minrel.__all__:
        assert getattr(minrel, name) is not None


def test_removed_aliases_stay_removed():
    for module in (minrel, minrel.ranks, minrel.experiments):
        assert [name for name in REMOVED if hasattr(module, name)] == []
