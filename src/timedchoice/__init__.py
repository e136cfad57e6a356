"""Choice modeling with stopping times under time-growing limited attention.

The package estimates heterogeneous preference distributions from
stochastic choice data observed per stopping-time period, tests whether a
dataset is compatible with attention that only expands over time, and
provides the revealed-preference elimination algorithms for the
homogeneous-preference case.
"""

from .core import (
    AttentionRule,
    ChoiceDataset,
    ConsiderationSet,
    Menu,
    MonotonicityReport,
    MonotonicityViolation,
    OrderingSet,
    PreferenceDistribution,
    PreferenceOrdering,
    SetEnumeration,
    accumulated_attention,
    all_orderings,
    best_in,
    check_time_monotonicity,
    enumerate_sets,
    moebius_inverse,
    zeta_transform,
)
from .errors import (
    ConfigurationError,
    CutoffTieError,
    SolverError,
    TimedChoiceError,
    ValidationError,
)
from .transform import (
    ChoiceTransform,
    block_diag,
    build_choice_transform,
    design_matrix,
    predict_choices,
)
from .survival import (
    RejectionWitness,
    SurvivorReport,
    lower_contour_sum,
    rejection_test,
    survivor_search,
)
from .sampler import (
    SamplerConfig,
    initial_row_outside,
    sample_attention_rule,
    sample_attention_rules,
)
from .estimator import EstimationResult, estimate, solve_p
from .hyptest import (
    TestConfig,
    TestResult,
    VarianceWeights,
    bootstrap_test,
    default_tau,
    fit_test_rule,
    test_statistic,
    variance_weights,
)
from .generators import (
    FixedThreshold,
    GammaSchedule,
    NormalThreshold,
    SearchOrderDistribution,
    gen_diffusion,
    gen_mm,
    gen_satisficing,
    gen_topn,
    mm_accumulation,
)
from .lotteries import (
    Lottery,
    OrderingInterval,
    crra_ordering_set,
    crra_ordering_table,
    crra_rank,
    experiment_lotteries,
    experiment_menu,
)
from .clustering import RawObservation, TimeClustering, cluster_times, kmeans_1d
from .dataio import load_experiment_dataset

__version__ = "0.1.0"

__all__ = [
    "AttentionRule",
    "ChoiceDataset",
    "ChoiceTransform",
    "ConfigurationError",
    "ConsiderationSet",
    "CutoffTieError",
    "EstimationResult",
    "FixedThreshold",
    "GammaSchedule",
    "Lottery",
    "Menu",
    "MonotonicityReport",
    "MonotonicityViolation",
    "NormalThreshold",
    "OrderingInterval",
    "OrderingSet",
    "PreferenceDistribution",
    "PreferenceOrdering",
    "RawObservation",
    "RejectionWitness",
    "SamplerConfig",
    "SearchOrderDistribution",
    "SetEnumeration",
    "SolverError",
    "SurvivorReport",
    "TestConfig",
    "TestResult",
    "TimeClustering",
    "TimedChoiceError",
    "ValidationError",
    "VarianceWeights",
    "accumulated_attention",
    "all_orderings",
    "best_in",
    "block_diag",
    "bootstrap_test",
    "build_choice_transform",
    "check_time_monotonicity",
    "cluster_times",
    "crra_ordering_set",
    "crra_ordering_table",
    "crra_rank",
    "default_tau",
    "design_matrix",
    "enumerate_sets",
    "estimate",
    "experiment_lotteries",
    "experiment_menu",
    "fit_test_rule",
    "gen_diffusion",
    "gen_mm",
    "gen_satisficing",
    "gen_topn",
    "initial_row_outside",
    "kmeans_1d",
    "load_experiment_dataset",
    "lower_contour_sum",
    "mm_accumulation",
    "moebius_inverse",
    "predict_choices",
    "rejection_test",
    "sample_attention_rule",
    "sample_attention_rules",
    "solve_p",
    "survivor_search",
    "test_statistic",
    "variance_weights",
    "zeta_transform",
]
