"""Log-likelihood, gradient, and Hessian of the contextual PL model.

An observed round is the winner of the chosen subset or a full ranking
of it; either way it is a sequence of choice stages (``Observation.stages``),
a winner being the single first stage.  Both log-likelihoods are concave.
One observation rule (``_check_feedback``) checks the subset and the
feedback together, for ``Observation`` and ``policies.MMState.record``.

One stage pass (``_stage_pass``) orders the subset's columns X by stage
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

Each pass is computed once per point: an ``Observation`` holds its last
pass, so ``grad_loglik`` then ``hessian_loglik`` (or ``_factors``) at the
same theta compute one pass, and a pass at a new theta reuses the held
columns X.  Each estimator update makes two passes: both curvature forms
take the gradient at the average from ``grad_loglik``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plackett_luce import (
    ContextMatrix, Ranking, _check_int, _check_ranking, _check_subset, _check_theta,
    _suffix_log_normalizers,
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


def _check_feedback(subset: tuple[int, ...], feedback: Feedback, n: int) -> tuple[int, ...]:
    """The one observation rule: ``subset`` passes the subset rule (see ``_check_subset``)
    and ``feedback`` is about exactly it.  Returns the subset sorted."""
    subset = _check_subset(subset, n)
    if isinstance(feedback, WinnerFeedback):
        if _check_int(feedback.arm, "winner") not in subset:
            raise ValueError("winner must be a member of the subset")
    elif isinstance(feedback, RankingFeedback):
        _check_ranking(feedback.ranking, subset)
    else:
        raise ValueError(f"unknown feedback type: {type(feedback)!r}")
    return subset


@dataclass(frozen=True)
class Observation:
    """One round of feedback: what was chosen, what came back, under which context."""

    feedback: Feedback
    subset: tuple[int, ...]
    context: ContextMatrix
    # The last stage pass, ``(theta.tobytes(), terms)`` (see ``_stage_pass``):
    # a cache, not an input, so no constructor takes it and equality ignores it.
    _pass: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        subset = _check_feedback(self.subset, self.feedback, self.context.n)
        object.__setattr__(self, "subset", subset)

    @property
    def stages(self) -> tuple[int, ...]:
        """Arms in observed choice order; a winner observation is one stage."""
        if isinstance(self.feedback, WinnerFeedback):
            return (self.feedback.arm,)
        return self.feedback.ranking.ordering


def _stage_pass(theta: np.ndarray, obs: Observation):
    """One stage pass, computed once per point: the stage-ordered columns X
    (observed stages first), the logits, lognorm, P and the column sums of P.

    ``obs`` holds its last pass, keyed by the bytes of ``theta``, so a
    second call at the same point (``grad_loglik`` then ``hessian_loglik``
    at the average) returns it, and a call at a new point reuses its X.
    The held arrays are read-only: every caller builds new arrays from
    them.  A ``theta`` changed in place has new bytes, so it gets a new
    pass; a context changed in place after the first pass is not seen, as
    an observation is a record of its round.
    """
    theta = _check_theta(theta, obs.context.d)
    key = theta.tobytes()
    held = obs._pass
    if held is not None and held[0] == key:
        return held[1]
    stages = obs.stages
    if held is None:
        feats = obs.context.features[:, stages + tuple(i for i in obs.subset if i not in stages)]
    else:
        feats = held[1][0]
    logits = theta @ feats
    lognorm = _suffix_log_normalizers(logits)[: len(stages)]
    log_probs = logits - lognorm[:, None]
    for i in range(1, len(stages)):
        log_probs[i, :i] = -np.inf
    probs = np.exp(log_probs)
    terms = (feats, logits, lognorm, probs, probs.sum(axis=0))
    for array in terms:
        array.setflags(write=False)
    object.__setattr__(obs, "_pass", (key, terms))
    return terms


def _symmetrize(A: np.ndarray) -> np.ndarray:
    """``(A + A.T) / 2``, the same bits, from a contiguous copy of the transpose.

    It skips the strided sum of ``A + A.T`` (11 against 16 us at d=80).
    """
    sym = A.T.copy()
    sym += A
    sym *= 0.5
    return sym


def loglik(theta: np.ndarray, obs: Observation) -> float:
    """Log-likelihood of ``theta`` for one observation (always <= 0), read from its stage pass."""
    _, logits, lognorm, _, _ = _stage_pass(theta, obs)
    return float(logits[: lognorm.size].sum() - lognorm.sum())


def grad_loglik(theta: np.ndarray, obs: Observation) -> np.ndarray:
    """Gradient of the log-likelihood with respect to ``theta``: ``sum_i x_(i) - X colsums(P)``."""
    feats, _, lognorm, _, col_sums = _stage_pass(theta, obs)
    return feats[:, : lognorm.size].sum(axis=1) - feats @ col_sums


def hessian_loglik(theta: np.ndarray, obs: Observation) -> np.ndarray:
    """Hessian of the log-likelihood, ``X C X^T`` symmetrized; negative semi-definite."""
    feats, core = _factors(theta, obs)
    return _symmetrize(feats @ core @ feats.T)


def _factors(theta: np.ndarray, obs: Observation) -> tuple[np.ndarray, np.ndarray]:
    """X and the (singular) core C with Hessian ``X C X^T``."""
    feats, _, _, probs, col_sums = _stage_pass(theta, obs)
    core = probs.T @ probs
    core.flat[:: core.shape[0] + 1] -= col_sums  # the diagonal, without index arrays
    return feats, core
