"""Subset-selection policies behind a uniform online interface.

Every policy follows the same per-round protocol driven by the harness:

    policy.observe(context)          # round context revealed
    decision = policy.choose(k)      # pick k distinct arms
    policy.update(feedback)          # winner or ranking of the chosen subset

Because the objective ``sum of per-arm scores`` is separable, the argmax
over fixed-size subsets reduces to taking the top-k arms by score; ties
break toward the lowest arm index so traces are reproducible.

Policies:

* ``CPPLPolicy`` scores arms by estimated utility plus confidence width.
  Max-Theta is ``CPPLPolicy`` with ``omega=0`` (``--policy maxtheta``):
  it scores by estimated utility alone.
* ``EpsilonGreedyPolicy`` plays Max-Theta's choice, but with probability
  epsilon picks a uniformly random k-subset.
* ``MMPolicy`` is context-free: it keeps per-arm stage wins and the
  multiplicity of each remaining-set seen, refits plain PL weights to
  them with a minorization-maximization iteration, and greedily plays
  the top-k arms by weight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .estimator import EstimatorState, _attach_inverse, confidence_widths, sgd_update
from .likelihood import Feedback, Observation, WinnerFeedback, _check_feedback
from .plackett_luce import ContextMatrix, _check_k, _check_setting, _check_subset

__all__ = [
    "PolicyDecision",
    "Policy",
    "CPPLPolicy",
    "EpsilonGreedyPolicy",
    "MMPolicy",
    "MMState",
    "cppl_choose",
    "mm_fit",
]


@dataclass(frozen=True)
class PolicyDecision:
    """The k-subset a policy chose for one round.

    Unchecked: ``top_k_subset`` and ``rng.choice(replace=False)`` give
    distinct, in-range ints; any other policy's subset is checked where
    it first enters, by the sampler behind ``sample_feedback``.
    """

    subset: tuple[int, ...]


def top_k_subset(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest scores; ties break toward the lowest index."""
    scores = np.asarray(scores, dtype=float)
    _check_k(k, scores.size)
    order = np.argsort(-scores, kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def cppl_choose(
    state: EstimatorState, context: ContextMatrix, k: int, omega: float
) -> PolicyDecision:
    """Top-k arms by estimated utility plus confidence width.

    Before the first estimator update the covariance is undefined, so the
    widths are zero and the choice falls back to the utility estimates
    from the initial parameter.  ``omega == 0`` (Max-Theta) likewise
    skips the widths.  Both rank by the logits ``theta_bar . x``: the
    top-k is the same as by ``exp`` of them, which overflows to tied
    ``inf`` above about 709.
    """
    if omega == 0.0 or state.t == 0:
        scores = state.theta_bar @ context.features
    else:
        cw = confidence_widths(state, context, omega)
        scores = cw.utilities + cw.widths
    return PolicyDecision(top_k_subset(scores, k))


# ---------------------------------------------------------------------------
# Context-free MM baseline
# ---------------------------------------------------------------------------

_WEIGHT_FLOOR = 1e-12  # keeps never-winning arms strictly positive


@dataclass(frozen=True)
class MMState:
    """Context-free PL weights plus the sufficient statistics of the stages seen.

    An observation is a sequence of choice stages (remaining arms, stage
    winner): a winner observation is one stage over the chosen subset, a
    ranking of m arms is m - 1 stages over the shrinking remainder.  The
    MM update needs only ``wins`` (stages won by each arm) and
    ``set_counts`` (stages per distinct remaining-set, keyed by its sorted
    tuple).  ``observations`` counts recorded rounds.  ``weights`` are
    normalized to sum 1.  The arms in no stage are those in no key of
    ``set_counts``; ``mm_fit`` holds their weights at the uniform prior
    1/n (up to renormalization).
    """

    weights: np.ndarray
    wins: np.ndarray | None = None
    set_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    observations: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise ValueError("weights must be strictly positive and finite")
        wins = np.zeros(w.size, dtype=np.int64) if self.wins is None else self.wins
        wins = np.asarray(wins)
        if wins.shape != w.shape:
            raise ValueError("wins must have one entry per arm")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "wins", wins)

    @classmethod
    def uniform(cls, n: int) -> "MMState":
        return cls(weights=np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.weights.size

    def record(self, subset: tuple[int, ...], feedback: Feedback) -> "MMState":
        """Add one observation's stages to the statistics; weights are unchanged."""
        subset = _check_subset(subset, self.n)
        _check_feedback(subset, feedback)
        if isinstance(feedback, WinnerFeedback):
            stages = [(subset, feedback.arm)]
        else:
            ordering = feedback.ranking.ordering
            stages = [(ordering[i:], ordering[i]) for i in range(len(ordering) - 1)]
        wins = self.wins.copy()
        set_counts = dict(self.set_counts)
        for remaining, winner in stages:
            wins[winner] += 1
            key = tuple(sorted(remaining))
            set_counts[key] = set_counts.get(key, 0) + 1
        return replace(
            self, wins=wins, set_counts=set_counts, observations=self.observations + 1
        )


def mm_fit(state: MMState, max_iters: int = 100, tol: float = 1e-8) -> MMState:
    """Fit context-free PL weights to the recorded stages (Hunter's MM iteration).

    Each sweep sets ``w_i`` to the number of stages won by arm i divided
    by the sum, over stages containing i, of the inverse stage total, then
    renormalizes.  With the S distinct remaining-sets as the rows of a
    0/1 incidence matrix ``A`` and their multiplicities ``m``, that
    denominator is ``(m / (A @ w)) @ A``.  Arms in no stage get numerator
    1/n and denominator 1, so they stay at the uniform prior.  The
    iteration warm-starts from ``state.weights`` and stops once no weight
    moves by ``tol`` or after ``max_iters`` sweeps.
    """
    if not state.observations:
        raise ValueError("cannot fit with an empty history")
    n = state.n
    sets = list(state.set_counts)
    A = np.zeros((len(sets), n))
    A[
        np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
        np.fromiter(chain.from_iterable(sets), dtype=np.intp),
    ] = 1.0
    m = np.fromiter(state.set_counts.values(), dtype=float, count=len(sets))
    seen = A.any(axis=0)
    pad = np.where(seen, 0.0, 1.0)
    numerator = state.wins + pad / n

    # At a few dozen sets per-call overhead dominates each sweep, hence
    # ndarray.dot and a bare ufunc reduce instead of ``@`` and ``np.max``.
    w = state.weights
    for _ in range(max_iters):
        w_new = np.maximum(numerator / ((m / A.dot(w)).dot(A) + pad), _WEIGHT_FLOOR)
        w_new /= w_new.sum()
        delta = np.maximum.reduce(np.abs(w_new - w))
        w = w_new
        if delta < tol:
            break
    return replace(state, weights=w)


# ---------------------------------------------------------------------------
# Uniform policy interface
# ---------------------------------------------------------------------------


class Policy(ABC):
    """Per-round protocol: observe(context) -> choose(k) -> update(feedback)."""

    def __init__(self):
        self._context: ContextMatrix | None = None
        self._subset: tuple[int, ...] | None = None

    def observe(self, context: ContextMatrix) -> None:
        self._context = context
        self._subset = None

    def choose(self, k: int) -> PolicyDecision:
        if self._context is None:
            raise RuntimeError("choose() called before observe()")
        decision = self._choose(self._context, k)
        self._subset = decision.subset
        return decision

    def update(self, feedback: Feedback) -> None:
        if self._context is None or self._subset is None:
            raise RuntimeError("update() called before observe()/choose()")
        obs = Observation(feedback=feedback, subset=self._subset, context=self._context)
        self._update(obs)

    @abstractmethod
    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision: ...

    @abstractmethod
    def _update(self, obs: Observation) -> None: ...


class CPPLPolicy(Policy):
    """Upper-confidence subset selection with averaged-SGD estimation."""

    def __init__(
        self,
        d: int,
        rng: np.random.Generator,
        gamma1: float = 2.0,
        alpha: float = 0.6,
        omega: float = 1.0,
        ridge: float = 1e-6,
    ):
        super().__init__()
        _check_setting("omega", omega)
        self.omega = omega
        self.state = EstimatorState.init(d, rng, gamma1=gamma1, alpha=alpha, ridge=ridge)

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        return cppl_choose(self.state, context, k, self.omega)

    def _update(self, obs: Observation) -> None:
        self.state = sgd_update(self.state, obs)
        # Only widths read the covariance, so only omega > 0 carries the inverse.
        if self.omega > 0 and self.state.S_accum_inv is None:
            self.state = _attach_inverse(self.state)


class EpsilonGreedyPolicy(CPPLPolicy):
    """Max-Theta with an epsilon-probability uniformly random subset."""

    def __init__(self, d, rng, epsilon=0.1, gamma1=2.0, alpha=0.6, ridge=1e-6):
        super().__init__(d, rng, gamma1=gamma1, alpha=alpha, omega=0.0, ridge=ridge)
        _check_setting("epsilon", epsilon)
        self.epsilon = epsilon
        self.rng = rng

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        """Greedy top-k with probability 1 - epsilon, else a uniform random k-subset."""
        # The greedy step runs first, so a bad k raises before any draw.
        greedy = cppl_choose(self.state, context, k, 0.0)
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            subset = self.rng.choice(context.n, size=k, replace=False)
            return PolicyDecision(tuple(sorted(int(i) for i in subset)))
        return greedy


class MMPolicy(Policy):
    """Context-free baseline: refit MM weights each round, play top-k greedily.

    The state holds only stage statistics, so a refit costs one pass per
    sweep over the distinct remaining-sets, however many rounds came
    before; it warm-starts from the previous weights and runs with
    ``mm_fit``'s default sweep cap and tolerance.
    """

    def __init__(self, n: int):
        super().__init__()
        self.state = MMState.uniform(n)

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        return PolicyDecision(top_k_subset(self.state.weights, k))

    def _update(self, obs: Observation) -> None:
        self.state = mm_fit(self.state.record(obs.subset, obs.feedback))
