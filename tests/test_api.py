"""The package's public surface: one public name per capability."""

import ast
import types
from pathlib import Path

import minrel
import minrel.experiments
import minrel.ranking
import minrel.ranks

#: Names removed from the package. The first ten only relabelled a kept one; each value
#: is one attribute or call away: ``ColumnTransforms(x).ranks``, ``.dec`` and ``.inc``,
#: ``ranks / m`` and ``run_experiment("tableN", ...)``. The last five were a split-half
#: cross-validation harness and its least-squares regressor, with no replacement: rank
#: with ``rank_variables`` and fit with any regression library.
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
    "split_half_cv_eval",
    "least_squares_regressor",
    "CvSummary",
    "FitResult",
    "RIDGE_EPSILON",
)

#: Names that reach a BLAS routine through numpy: the matrix products and ``np.linalg``.
BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "vecdot", "linalg"}


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
    for module in (minrel, minrel.ranks, minrel.experiments, minrel.ranking):
        assert [name for name in REMOVED if hasattr(module, name)] == []


def test_the_package_calls_no_blas_routine():
    # A BLAS routine's summation order can follow its library and thread count, so no
    # output value may go through one.
    found = []
    for path in sorted(Path(minrel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name == "@" or name in BLAS_NAMES]
    assert found == []
