"""Subset-selection policies behind a uniform online interface.

Every policy plays the same per-round protocol, and the harness passes
each step its inputs:

    decision = policy.choose(context, k)                 # pick k distinct arms
    policy.update(feedback, decision.subset, context)    # learn from their feedback

``update`` passes its inputs to the learner's public step: CPPL builds the
``Observation`` that ``sgd_update`` reads; MM is ``mm_fit(state.record(subset, feedback))``.

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
  multiplicity of each remaining-set seen, refits PL weights to them as
  the maximum a posteriori under a weak Gamma prior on each weight
  (``mm_fit``), and greedily plays the top-k arms by weight.  The prior
  gives the fit one maximum for any history, with an arm never played
  at 1/n and an arm never winning at a small weight set by its losses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
# np.linalg.solve's gufunc, without the checks and error-state switch that nearly
# double the cost of MM's 20 x 20 Newton solve; that matrix is positive definite.
from numpy.linalg._umath_linalg import solve1 as _solve

from .estimator import EstimatorState, _attach_inverse, confidence_widths, sgd_update
from .likelihood import Feedback, Observation, WinnerFeedback, _check_feedback
from .plackett_luce import ContextMatrix, _check_int, _check_k, _check_setting, _unchecked

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
    return tuple(sorted(np.argsort(-scores, kind="stable")[:k].tolist()))


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

_EPSILON = 1e-3  # the prior's strength: Gamma(1 + _EPSILON, n * _EPSILON) on each weight
_MAX_STEP = 2.0  # the largest Newton step in any log-weight


@dataclass(frozen=True)
class MMState:
    """Context-free PL weights plus the sufficient statistics of the stages seen.

    An observation is a sequence of choice stages (remaining arms, stage
    winner): a winner observation is one stage over the chosen subset, a
    ranking of m arms is m - 1 stages over the shrinking remainder.  The
    fit needs ``wins`` (stages won by each arm) and ``set_counts``
    (stages per distinct remaining-set, keyed by its sorted tuple).
    ``observations`` counts recorded rounds.  ``weights`` are the last
    fit's (see ``mm_fit``), uniform before the first.

    ``_incidence`` is ``mm_fit``'s cache (see ``_Incidence``), not a
    statistic: no constructor takes it, and equality ignores it.

    The constructor takes only statistics that recorded stages could
    give (see ``_check_stages``); ``record`` and ``mm_fit`` build their
    states unchecked.
    """

    weights: np.ndarray
    wins: np.ndarray | None = None
    set_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    observations: int = 0
    _incidence: _Incidence | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not (np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("weights must be strictly positive and finite")
        if not _is_int(self.observations, 0):
            raise ValueError("observations must be a nonnegative integer")
        if self.wins is None and not self.set_counts:  # no stage, as ``uniform`` builds
            wins = np.zeros(w.size, dtype=np.int64)
        else:
            wins = _check_stages(w.size, self.wins, self.set_counts, self.observations)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "wins", wins)

    @classmethod
    def uniform(cls, n: int) -> "MMState":
        return cls(weights=np.full(_check_int(n, "n"), 1.0 / n))

    @property
    def n(self) -> int:
        return self.weights.size

    def record(self, subset: tuple[int, ...], feedback: Feedback) -> "MMState":
        """Add one observation's stages to the statistics; weights are unchanged."""
        subset = _check_feedback(subset, feedback, self.n)
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
        return _unchecked(MMState, self.__dict__, wins=wins, set_counts=set_counts,
                          observations=self.observations + 1)


def _is_int(value, least: int) -> bool:
    """Whether ``value`` meets the integer rule (``_check_int``) and is at least ``least``."""
    try:
        return _check_int(value, "") >= least
    except ValueError:
        return False


def _check_stages(n: int, wins, set_counts: dict, observations: int) -> np.ndarray:
    """``wins`` as an array, if it and ``set_counts`` could come from recorded stages.

    Each stage is one count of its remaining-set's key, a sorted tuple of
    distinct arms, and one win for an arm of that set; a recorded stage
    implies a recorded observation.
    """
    wins = np.zeros(n, dtype=np.int64) if wins is None else np.asarray(wins)
    if wins.shape != (n,):
        raise ValueError("wins must have one entry per arm")
    if wins.dtype.kind not in "iu" or (wins < 0).any():
        raise ValueError("wins must be nonnegative integers")
    held = np.zeros(n, dtype=np.int64)  # stages holding each arm
    for key, count in set_counts.items():
        if not (type(key) is tuple and key and all(_is_int(i, 0) for i in key)
                and key == tuple(sorted(set(key))) and key[-1] < n):
            raise ValueError("set_counts keys must be sorted tuples of distinct arms below n")
        if not _is_int(count, 1):
            raise ValueError("set_counts values must be positive integers")
        held[list(key)] += count
    stages = sum(set_counts.values())
    if wins.sum() != stages:
        raise ValueError("total wins must equal the number of stages")
    if (wins > held).any():
        raise ValueError("an arm cannot win more stages than hold it")
    if stages and not observations:
        raise ValueError("observations must be at least 1 once a stage is recorded")
    return wins


class _Incidence(NamedTuple):
    """The keys of ``set_counts`` as 0/1 rows, in insertion order: ``mm_fit``'s cache."""

    full: np.ndarray  # one column per arm
    seen: np.ndarray  # indices of the arms in some key
    A: np.ndarray  # full[:, seen]


def _incidence_of(state: MMState) -> _Incidence:
    """The incidence ``state`` carries from its last fit, with a row for each newer key."""
    old = state._incidence
    done = 0 if old is None else len(old.full)
    if old is not None and done == len(state.set_counts):
        return old
    # Dict order is insertion order, so new keys are new last rows.
    keys = list(state.set_counts)[done:]
    block = np.zeros((len(keys), state.n))
    block[
        np.repeat(np.arange(len(keys)), [len(s) for s in keys]),
        np.fromiter(chain.from_iterable(keys), dtype=np.intp),
    ] = 1.0
    full = block if old is None else np.vstack((old.full, block))
    seen = np.flatnonzero(full.any(axis=0))
    return _Incidence(full, seen, full[:, seen])


def mm_fit(state: MMState, max_iters: int = 100, tol: float = 1e-8) -> MMState:
    """Fit context-free PL weights to the recorded stages: the MAP under a weak Gamma prior.

    Each weight has an independent Gamma(1 + eps, n eps) prior, eps =
    ``_EPSILON`` (Caron & Doucet 2012).  With ``W_S`` the total weight of
    remaining-set S and ``m_S`` its count, the log-posterior

        sum_i a_i log w_i - sum_S m_S log W_S - n eps sum_i w_i,   a_i = wins_i + eps,

    is strictly concave in the log-weights, so it has one maximum for any
    history, where every arm meets

        a_i = w_i D_i,   D_i = n eps + sum over the sets S holding i of m_S / W_S.

    Summed over the arms these give ``sum w = 1``.  An arm in no set sits
    at 1/n, where its equation holds; the other arms are fitted,
    warm-started from ``state.weights``.  The fit returns the first point
    whose residual ``max |a / (w D) - 1|`` is below ``tol``, or the point
    after step ``max_iters``.

    A step is Newton's in the log-weights: it solves
    ``(diag(w D) - P^T diag(m) P) delta = a - w D``, with ``P_Si = w_i / W_S``
    for i in S, shrinks ``delta`` so that no entry exceeds ``_MAX_STEP``
    in size, and moves to ``w exp(delta)`` if that point lowers the
    residual or raises the log-posterior.  Otherwise it takes the MM step
    ``w = a / D``, which always ascends (Hunter 2004).  The second test
    matters where the weights span many orders of magnitude: there a
    Newton point can ascend, and the next one converge, though the
    residual first grows.
    """
    if not state.observations:
        raise ValueError("cannot fit with an empty history")
    inc = _incidence_of(state)
    weights = np.full(state.n, 1.0 / state.n)
    if inc.seen.size:
        m = np.fromiter(state.set_counts.values(), dtype=float, count=len(inc.A))
        weights[inc.seen] = _newton(state.weights[inc.seen], state.wins[inc.seen] + _EPSILON,
                                    inc.A, m, state.n * _EPSILON, max_iters, tol)
    return _unchecked(MMState, state.__dict__, weights=weights, _incidence=inc)


def _stationarity(w, a, A, m, prior):
    """Set totals ``W``, ``q = m / W``, ``w D``, ``w D - a`` and the residual at ``w``."""
    W = A.dot(w)
    q = m / W
    wD = (q.dot(A) + prior) * w
    g = wD - a
    return W, q, wD, g, np.maximum.reduce(np.abs(g / wD))


def _newton(w, a, A, m, prior, max_iters, tol):
    """Newton steps on the log-weights, with an MM step as the fallback (see ``mm_fit``)."""

    def log_posterior(x, W):
        return a.dot(np.log(x)) - m.dot(np.log(W)) - prior * x.sum()

    W, q, wD, g, residual = _stationarity(w, a, A, m, prior)
    for _ in range(max_iters):
        if residual < tol:
            break
        V = A * w
        H = (V.T * (q / W)).dot(V)
        H.ravel()[:: w.size + 1] -= wD  # H is minus mm_fit's matrix, g minus its right side
        step = _solve(H, g)
        longest = np.maximum.reduce(np.abs(step))
        if longest > _MAX_STEP:
            step *= _MAX_STEP / longest
        x = w * np.exp(step)
        point = _stationarity(x, a, A, m, prior)
        if not (point[4] < residual or log_posterior(x, point[0]) > log_posterior(w, W)):
            x = a * w / wD
            point = _stationarity(x, a, A, m, prior)
        w, (W, q, wD, g, residual) = x, point
    return w


# ---------------------------------------------------------------------------
# Uniform policy interface
# ---------------------------------------------------------------------------


class Policy(ABC):
    """Per-round protocol: choose(context, k) -> update(feedback, subset, context).

    A policy holds only its learner state; the caller keeps the round's
    context and the chosen subset and passes them back to ``update``,
    which passes all three to the subclass's ``_update``.  Subclasses
    override ``_choose`` and ``_update``, never ``choose`` or ``update``.
    """

    def choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        return self._choose(context, k)

    def update(self, feedback: Feedback, subset: tuple[int, ...], context: ContextMatrix) -> None:
        self._update(feedback, subset, context)

    @abstractmethod
    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision: ...

    @abstractmethod
    def _update(self, feedback, subset, context) -> None: ...


class CPPLPolicy(Policy):
    """Upper-confidence subset selection with averaged-SGD estimation."""

    def __init__(
        self,
        d: int,
        rng: np.random.Generator,
        gamma1: float = 2.0,
        alpha: float = 0.6,
        omega: float = 1.0,
    ):
        self.omega = _check_setting("omega", omega)
        self.state = EstimatorState.init(d, rng, gamma1=gamma1, alpha=alpha)

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        return cppl_choose(self.state, context, k, self.omega)

    def _update(self, feedback, subset, context) -> None:
        self.state = sgd_update(self.state, Observation(feedback, subset, context))
        # Only widths read the covariance, so only omega > 0 carries the inverse.
        if self.omega > 0 and self.state.S_accum_inv is None:
            self.state = _attach_inverse(self.state)


class EpsilonGreedyPolicy(CPPLPolicy):
    """Max-Theta with an epsilon-probability uniformly random subset."""

    def __init__(self, d, rng, epsilon=0.1, gamma1=2.0, alpha=0.6):
        super().__init__(d, rng, gamma1=gamma1, alpha=alpha, omega=0.0)
        self.epsilon = _check_setting("epsilon", epsilon)
        self.rng = rng

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        """Greedy top-k with probability 1 - epsilon, else a uniform random k-subset."""
        # The greedy step runs first, so a bad k raises before any draw.
        greedy = cppl_choose(self.state, context, k, 0.0)
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            subset = self.rng.choice(context.n, size=k, replace=False)
            return PolicyDecision(tuple(sorted(subset.tolist())))
        return greedy


class MMPolicy(Policy):
    """Context-free baseline: refit the weights each round, play the top-k by weight.

    A round is ``mm_fit(state.record(subset, feedback))``: ``record``
    checks the subset and feedback and adds their stages, and ``mm_fit``
    refits with its defaults, warm-started from the previous weights.
    The context is not read.  A step of the fit passes once over the
    distinct remaining-sets, however many rounds came before.
    """

    def __init__(self, n: int):
        self.state = MMState.uniform(n)

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        return PolicyDecision(top_k_subset(self.state.weights, k))

    def _update(self, feedback, subset, context) -> None:
        self.state = mm_fit(self.state.record(subset, feedback))
