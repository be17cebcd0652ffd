"""Log-likelihood, gradient, and Hessian of the contextual PL model.

Two feedback scenarios are supported for an observed round: the winner
of the chosen subset, or a full ranking of the chosen subset.  Both
log-likelihoods are concave in theta; the gradient and Hessian are the
stage-wise sums

    grad  = sum_i [ x_(i) - a_i / b_i ]
    hess  = sum_i [ a_i a_i^T / b_i^2 - c_i / b_i ]

where stage i ranges over the observed ordering, a_i / b_i / c_i are the
utility-weighted first moment / normalizer / second moment of the arms
still available at stage i.  A winner observation is the single first
stage.  Stage terms are computed from max-shifted softmax weights, which
leaves the ratios a_i/b_i and c_i/b_i unchanged while avoiding overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .plackett_luce import ContextMatrix, Ranking, _check_subset, _softmax

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
        if feedback.arm not in subset:
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
        members = _check_subset(self.subset, self.context.n)
        object.__setattr__(self, "subset", tuple(int(i) for i in members))
        _check_feedback(self.subset, self.feedback)

    @property
    def stages(self) -> tuple[int, ...]:
        """Arms in observed choice order; a winner observation is one stage."""
        if isinstance(self.feedback, WinnerFeedback):
            return (self.feedback.arm,)
        return self.feedback.ranking.ordering


def _check_theta(theta: np.ndarray, obs: Observation) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size != obs.context.d:
        raise ValueError(
            f"theta has dimension {theta.size}, context expects {obs.context.d}"
        )
    return theta


def _ordered_features(obs: Observation) -> np.ndarray:
    """Columns of the chosen subset, in observed order (d x |S|).

    For winner feedback the winner column comes first; the order of the
    losers is irrelevant because only the first stage contributes.
    """
    if isinstance(obs.feedback, WinnerFeedback):
        rest = [i for i in obs.subset if i != obs.feedback.arm]
        order = [obs.feedback.arm] + rest
    else:
        order = list(obs.feedback.ranking.ordering)
    return obs.context.features[:, order]


def loglik(theta: np.ndarray, obs: Observation) -> float:
    """Log-likelihood of ``theta`` for one observation (always <= 0)."""
    theta = _check_theta(theta, obs)
    feats = _ordered_features(obs)
    logits = theta @ feats
    if isinstance(obs.feedback, WinnerFeedback):
        return float(logits[0] - logsumexp(logits))
    total = 0.0
    for i in range(logits.size):
        total += logits[i] - logsumexp(logits[i:])
    return float(total)


def grad_loglik(theta: np.ndarray, obs: Observation) -> np.ndarray:
    """Gradient of the log-likelihood with respect to ``theta``."""
    theta = _check_theta(theta, obs)
    feats = _ordered_features(obs)
    logits = theta @ feats
    n_stages = 1 if isinstance(obs.feedback, WinnerFeedback) else logits.size
    grad = feats[:, :n_stages].sum(axis=1)
    for i in range(n_stages):
        weights = _softmax(logits[i:])
        grad -= feats[:, i:] @ weights
    return grad


def hessian_loglik(theta: np.ndarray, obs: Observation) -> np.ndarray:
    """Hessian of the log-likelihood; symmetric negative semi-definite."""
    theta = _check_theta(theta, obs)
    feats = _ordered_features(obs)
    logits = theta @ feats
    d = feats.shape[0]
    n_stages = 1 if isinstance(obs.feedback, WinnerFeedback) else logits.size
    hess = np.zeros((d, d))
    for i in range(n_stages):
        remaining = feats[:, i:]
        weights = _softmax(logits[i:])
        mean = remaining @ weights
        second_moment = (remaining * weights) @ remaining.T
        hess += np.outer(mean, mean) - second_moment
    return (hess + hess.T) / 2.0
