"""Counterfactual explanations for tabular classifiers.

Trains black-box models and searches for counterfactuals with two
competing multi-objective evolutionary strategies: Pareto dominance
(returning a nondominated set) and lexicographic tournament selection
(returning a single best solution under a priority ordering of
objectives), with an optional resilience extension of the validity
objective that rewards counterfactuals whose recommendation survives
being pushed further in the same direction.
"""

from .bench import ExperimentConfig, emit_report, run_experiment
from .data import FeatureSchema, compute_feature_stats, generate_synthetic, split_dataset
from .ea import STRATEGIES, EAConfig, run_paired
from .model import LearnerConfig, load_model, save_model, train_model, tune_random_search
from .objectives import (
    EvalContext,
    gower_dist,
    obj_distance,
    obj_plausibility,
    obj_sparsity,
    obj_validity,
    resilience_scores,
    resilience_step,
)

__version__ = "0.1.0"
