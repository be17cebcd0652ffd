"""Contextual preselection bandits under the Plackett-Luce model.

A learner repeatedly observes per-arm feature vectors, preselects a
k-subset of arms, and receives preference feedback (the winner, or a
ranking of the chosen subset) drawn from a contextual Plackett-Luce
model.  This package provides the probability model, likelihood
machinery, an averaged-SGD estimator with UCB-style confidence widths,
the resulting subset-selection policy plus three baselines, simulated
benchmark environments, and an experiment harness with a CLI.
"""

from .plackett_luce import (
    ContextMatrix,
    Ranking,
    UtilityVector,
    contextual_utilities,
    prob_full_ranking,
    prob_partial_ranking,
    prob_top_rank,
    sample_partial_ranking,
    sample_winner,
)
from .likelihood import (
    Feedback,
    Observation,
    RankingFeedback,
    WinnerFeedback,
    grad_loglik,
    hessian_loglik,
    loglik,
)
from .estimator import (
    ConfidenceWidths,
    EstimatorState,
    chi2_tail_bounds,
    chi2_upper_tail_bound,
    confidence_widths,
    covariance,
    f_tail_bound,
    f_tail_threshold,
    sgd_update,
)
from .policies import (
    CPPLPolicy,
    EpsilonGreedyPolicy,
    MMPolicy,
    MMState,
    Policy,
    PolicyDecision,
    cppl_choose,
    mm_fit,
)
from .environments import (
    AlgoSelectEnvironment,
    RuntimeTable,
    SyntheticEnvironment,
    SyntheticScenario,
    bundled_solver_features,
    instant_regret,
    load_runtime_table,
    load_solver_features,
    preprocess_features,
    sample_feedback,
)
from .harness import (
    AggregatedResult,
    ExperimentConfig,
    emit_results,
    run_experiment,
    run_repetition,
)

__version__ = "0.1.0"
