"""Rank minrelation coefficients: asymmetric bivariate dependence for ranking.

The package measures directional dependence p(X <= Y) between continuous
variables via triangular squared-rank transforms, provides the coefficient
in all four sign orientations together with Pearson/Spearman baselines, a
cached pairwise-matrix engine, seeded synthetic experiment families, and a
variable-ranking filter with a win/loss evaluation protocol.
"""

from .coeff import (
    METRICS,
    CoefficientValue,
    MinrelProfile,
    evaluate_metric,
    iota2,
    iota_oriented,
    iota_raw_indicator,
    iota_raw_squared,
    max_iota_sq,
    minrel_profile,
    minrel_simple,
    p_leq_hat,
    pearson,
    rank_minrelation,
    spearman,
)
from .errors import InvalidInputError, MinrelError
from .experiments import (
    EXPERIMENTS,
    ExperimentCell,
    ExperimentResult,
    OrderingCheck,
    run_experiment,
)
from .matrix import (
    MATRIX_METRICS,
    SYMMETRIC_METRICS,
    CoefficientMatrix,
    Dataset,
    ProfileMatrix,
    minrel_profile_matrix,
    pairwise_matrix,
    transform_cache,
)
from .ranking import (
    CRITERIA,
    RankingResult,
    RelevanceEval,
    TargetOutcome,
    WinLossRecord,
    average_position,
    compare_criteria,
    rank_variables,
)
from .ranks import ColumnTransforms, fractional_ranks
from .synth import (
    FAMILIES,
    GeneratedDataset,
    RelevanceSuiteDataset,
    gen_combined,
    gen_linear,
    gen_multiplication,
    gen_relevance_suite_dataset,
    gen_triangle_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CRITERIA",
    "EXPERIMENTS",
    "FAMILIES",
    "MATRIX_METRICS",
    "METRICS",
    "SYMMETRIC_METRICS",
    "CoefficientMatrix",
    "CoefficientValue",
    "ColumnTransforms",
    "Dataset",
    "ExperimentCell",
    "ExperimentResult",
    "GeneratedDataset",
    "InvalidInputError",
    "MinrelError",
    "MinrelProfile",
    "OrderingCheck",
    "ProfileMatrix",
    "RankingResult",
    "RelevanceEval",
    "RelevanceSuiteDataset",
    "TargetOutcome",
    "WinLossRecord",
    "average_position",
    "compare_criteria",
    "evaluate_metric",
    "fractional_ranks",
    "gen_combined",
    "gen_linear",
    "gen_multiplication",
    "gen_relevance_suite_dataset",
    "gen_triangle_pair",
    "iota2",
    "iota_oriented",
    "iota_raw_indicator",
    "iota_raw_squared",
    "max_iota_sq",
    "minrel_profile",
    "minrel_profile_matrix",
    "minrel_simple",
    "p_leq_hat",
    "pairwise_matrix",
    "pearson",
    "rank_minrelation",
    "rank_variables",
    "run_experiment",
    "spearman",
    "transform_cache",
    "__version__",
]
