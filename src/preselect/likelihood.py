"""Log-likelihood, gradient, and Hessian of the contextual PL model.

An observed round is the winner of the chosen subset or a full ranking
of it; either way it is a sequence of choice stages (``Observation.stages``),
a winner being the single first stage.  Both log-likelihoods are concave.

One stage pass (``_stage_terms``) orders the subset's columns X by stage
and, from their logits l_j = theta . x_j, computes the per-stage log
normalizers lognorm_i = log sum_{j >= i} exp(l_j) (a reverse ``logaddexp``
accumulation, so every stage is shifted by its own maximum) and the choice
probabilities P_ij = exp(l_j - lognorm_i) for j >= i, 0 for arms already
taken (masked in log space, so nothing overflows).  Then

    loglik = sum_i l_(i) - sum_i lognorm_i
    grad   = sum_i x_(i) - X (column sums of P)
    hess   = X C X^T,  C = P^T P - diag(column sums of P)  (k x k)

The Hessian is computed as ``X C X^T``, from the factors the carried
estimator path hands to its Woodbury step (``_factors``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plackett_luce import (
    ContextMatrix, Ranking, _check_int, _check_subset, _check_theta, _suffix_log_normalizers,
)

__all__ = [
    "WinnerFeedback",
    "RankingFeedback",
    "Feedback",
    "Observation",
    "loglik",
    "grad_loglik",
    "hessian_loglik",
]


@dataclass(frozen=True)
class WinnerFeedback:
    """The top-ranked arm of the chosen subset was revealed."""

    arm: int


@dataclass(frozen=True)
class RankingFeedback:
    """A full ranking of the chosen subset was revealed."""

    ranking: Ranking


Feedback = WinnerFeedback | RankingFeedback


def _check_feedback(subset: tuple[int, ...], feedback: Feedback) -> None:
    """Raise ``ValueError`` unless ``feedback`` is about exactly ``subset``.

    ``subset`` must already be sorted and distinct (see ``_check_subset``).
    """
    if isinstance(feedback, WinnerFeedback):
        if _check_int(feedback.arm, "winner") not in subset:
            raise ValueError("winner must be a member of the subset")
    elif isinstance(feedback, RankingFeedback):
        if feedback.ranking.items != subset:
            raise ValueError("ranking domain must equal the subset")
    else:
        raise ValueError(f"unknown feedback type: {type(feedback)!r}")


@dataclass(frozen=True)
class Observation:
    """One round of feedback: what was chosen, what came back, under which context."""

    feedback: Feedback
    subset: tuple[int, ...]
    context: ContextMatrix

    def __post_init__(self):
        object.__setattr__(self, "subset", _check_subset(self.subset, self.context.n))
        _check_feedback(self.subset, self.feedback)

    @property
    def stages(self) -> tuple[int, ...]:
        """Arms in observed choice order; a winner observation is one stage."""
        if isinstance(self.feedback, WinnerFeedback):
            return (self.feedback.arm,)
        return self.feedback.ranking.ordering


def _stage_terms(theta: np.ndarray, obs: Observation):
    """Stage-ordered columns X (observed stages first), logits, lognorm and P."""
    stages = obs.stages
    feats = obs.context.features[:, stages + tuple(i for i in obs.subset if i not in stages)]
    logits = _check_theta(theta, obs.context.d) @ feats
    lognorm = _suffix_log_normalizers(logits)[: len(stages)]
    log_probs = logits - lognorm[:, None]
    for i in range(1, len(stages)):
        log_probs[i, :i] = -np.inf
    return feats, logits, lognorm, np.exp(log_probs)


def loglik(theta: np.ndarray, obs: Observation) -> float:
    """Log-likelihood of ``theta`` for one observation (always <= 0)."""
    _, logits, lognorm, _ = _stage_terms(theta, obs)
    return float(logits[: lognorm.size].sum() - lognorm.sum())


def _grad(feats: np.ndarray, m: int, col_sums: np.ndarray) -> np.ndarray:
    """The gradient from a stage pass with m stages: ``sum_i x_(i) - X colsums(P)``."""
    return feats[:, :m].sum(axis=1) - feats @ col_sums


def grad_loglik(theta: np.ndarray, obs: Observation) -> np.ndarray:
    """Gradient of the log-likelihood with respect to ``theta``."""
    feats, _, lognorm, probs = _stage_terms(theta, obs)
    return _grad(feats, lognorm.size, probs.sum(axis=0))


def hessian_loglik(theta: np.ndarray, obs: Observation) -> np.ndarray:
    """Hessian of the log-likelihood, ``X C X^T`` symmetrized; negative semi-definite."""
    feats, core, _ = _factors(theta, obs)
    hess = feats @ core @ feats.T
    return (hess + hess.T) / 2.0


def _factors(theta: np.ndarray, obs: Observation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, the (singular) core C with Hessian ``X C X^T``, and the column sums of P."""
    feats, _, _, probs = _stage_terms(theta, obs)
    col_sums = probs.sum(axis=0)
    core = probs.T @ probs
    core.flat[:: core.shape[0] + 1] -= col_sums  # the diagonal, without index arrays
    return feats, core, col_sums


def _grad_and_factors(theta: np.ndarray, obs: Observation) -> tuple[np.ndarray, ...]:
    """``grad_loglik(theta, obs)``, bit-identical, and the X and C of ``_factors``: one pass."""
    feats, core, col_sums = _factors(theta, obs)
    return _grad(feats, len(obs.stages), col_sums), feats, core
