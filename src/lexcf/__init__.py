"""Counterfactual explanations for tabular classifiers.

Trains black-box models and searches for counterfactuals with two
competing multi-objective evolutionary strategies: Pareto dominance
(returning a nondominated set) and lexicographic tournament selection
(returning a single best solution under a priority ordering of
objectives), with an optional resilience extension of the validity
objective that rewards counterfactuals whose recommendation survives
being pushed further in the same direction.
"""

from .data import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    NEGATIVE,
    POSITIVE,
    PRESET_NON_ACTIONABLE,
    Dataset,
    FeatureSchema,
    FeatureStats,
    Instance,
    compute_feature_stats,
    generate_synthetic,
    load_dataset,
    load_dataset_config,
    schema_fingerprint,
    split_dataset,
)
from .ea import (
    STRATEGIES,
    Candidate,
    EAConfig,
    EAResult,
    crossover,
    init_population,
    mutate,
    run_ea,
    run_paired,
)
from .errors import (
    ConfigError,
    DataError,
    InvariantViolation,
    LexcfError,
    ModelFormatError,
    ParseError,
    SchemaError,
    TrainingError,
)
from .model import (
    FixedLinearModel,
    LearnerConfig,
    LogisticModel,
    Model,
    RandomForestModel,
    load_model,
    save_model,
    train_logistic,
    train_model,
    train_random_forest,
    tune_random_search,
)
from .objectives import (
    EvalContext,
    ObjectiveVector,
    ResilienceReport,
    evaluate,
    evaluate_population,
    gower_dist,
    obj_distance,
    obj_plausibility,
    obj_sparsity,
    obj_validity,
    obj_validity_resilient,
    resilience_scores,
    resilience_step,
)
from .selection import (
    DISTANCE_BEFORE_SPARSITY,
    SPARSITY_BEFORE_DISTANCE,
    LexParams,
    crowding_distance,
    final_select_lex,
    lex_compare,
    lex_tournament_select,
    nondominated_sort,
    nsga2_select,
    pareto_dominates,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    load_experiment_config,
    run_experiment,
    sample_points_of_interest,
    valid_fraction,
    win_loss_tie,
)

__version__ = "0.1.0"
