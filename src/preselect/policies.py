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
* ``MMPolicy`` is context-free: it keeps per-arm stage wins, the
  multiplicity of each remaining-set seen and who has beaten whom,
  refits plain PL weights to them with a minorization-maximization
  iteration, and greedily plays the top-k arms by weight.  Arms beaten
  by arms they never beat back sit at a floor weight in closed form;
  only the rest are swept.  Among those floor arms, the fewer arms that
  beat one, the earlier it is played.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

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

_WEIGHT_FLOOR = 1e-12  # the weight of every dominated arm


@dataclass(frozen=True)
class MMState:
    """Context-free PL weights plus the sufficient statistics of the stages seen.

    An observation is a sequence of choice stages (remaining arms, stage
    winner): a winner observation is one stage over the chosen subset, a
    ranking of m arms is m - 1 stages over the shrinking remainder.  The
    MM update needs ``wins`` (stages won by each arm), ``set_counts``
    (stages per distinct remaining-set, keyed by its sorted tuple) and
    ``reach``, the reflexive transitive closure of the comparison graph,
    in which i -> j when i won a stage in which j remained:
    ``reach[i, j]`` says that some chain of such wins leads from i to j.
    ``observations`` counts recorded rounds.  ``weights`` are normalized
    to sum 1.

    ``mm_fit`` splits the arms by ``reach``.  An arm is *dominated* when
    some arm reaches it that it does not reach back; the likelihood
    rises as its weight falls, with no maximum (Hunter 2004, Assumption
    1), so it sits at ``_WEIGHT_FLOOR``.  The arms in no key of
    ``set_counts`` are *unseen* and sit at the uniform prior 1/n.  The
    other arms are *free*, and the fit moves only them.

    ``reach`` defaults to the identity, the closure of no stages, so it
    must be given with a nonempty ``set_counts``.

    ``_restriction`` is ``mm_fit``'s cache (see ``_Restriction``), not a
    statistic: no constructor takes it, and equality ignores it.
    """

    weights: np.ndarray
    wins: np.ndarray | None = None
    set_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    observations: int = 0
    reach: np.ndarray | None = None
    _restriction: _Restriction | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not (np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("weights must be strictly positive and finite")
        wins = np.zeros(w.size, dtype=np.int64) if self.wins is None else self.wins
        wins = np.asarray(wins)
        if wins.shape != w.shape:
            raise ValueError("wins must have one entry per arm")
        if self.reach is None:
            if self.set_counts:
                raise ValueError("reach must be given with set_counts")
            reach = np.eye(w.size, dtype=bool)
        else:
            reach = np.asarray(self.reach, dtype=bool)
            if reach.shape != (w.size, w.size) or not reach.diagonal().all():
                raise ValueError("reach must be a reflexive n x n relation")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "wins", wins)
        object.__setattr__(self, "reach", reach)

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
        # Stage i's edges run from its winner to every arm remaining:
        # whatever reaches the winner now reaches whatever those arms
        # reach.  Taken last stage first, each stage's remaining arms are
        # the next one's plus its winner, so one running union covers them all.
        reach = self.reach
        if stages:
            target = reach[list(stages[-1][0])].any(axis=0)
        for _, winner in reversed(stages):
            target |= reach[winner]
            if (target > reach[winner]).any():
                if reach is self.reach:
                    reach = reach.copy()
                reach |= np.outer(reach[:, winner], target)
        return _unchecked(MMState, self.__dict__, wins=wins, set_counts=set_counts, reach=reach,
                          observations=self.observations + 1)


class _Restriction(NamedTuple):
    """The refit's view of a state: its free arms and the sets that hold one.

    Built for one ``reach`` array and the first ``len(incidence)`` keys of
    ``set_counts``; ``_restrict`` reuses it while neither changes.  A state
    carries the one it was last fitted on in its ``_restriction`` field,
    and ``record`` passes it on.
    """

    reach: np.ndarray
    incidence: np.ndarray  # 0/1, one row per key of set_counts, one column per arm
    free: np.ndarray  # indices of the free arms
    rows: np.ndarray  # indices of the keys that hold a free arm
    A: np.ndarray  # incidence[rows][:, free]
    fixed: np.ndarray  # weights of the other arms: floor or 1/n; 0 at the free arms
    mass: float  # 1 - fixed.sum(), the free arms' total weight


def _restrict(state: MMState) -> _Restriction:
    """The free arms and their sets, rebuilt only when ``reach`` or the set list changed."""
    old = state._restriction
    sets = state.set_counts
    incidence = None if old is None else old.incidence
    if incidence is None or len(incidence) < len(sets):
        # Dict order is insertion order, so new keys are new last rows.
        keys = list(sets)[0 if incidence is None else len(incidence):]
        block = np.zeros((len(keys), state.n))
        block[
            np.repeat(np.arange(len(keys)), [len(s) for s in keys]),
            np.fromiter(chain.from_iterable(keys), dtype=np.intp),
        ] = 1.0
        incidence = block if incidence is None else np.vstack((incidence, block))
    elif old.reach is state.reach:
        return old
    reach = state.reach
    seen = incidence.any(axis=0)
    dominated = (reach & ~reach.T).any(axis=0)
    free = np.flatnonzero(seen & ~dominated)
    restricted = incidence[:, free]
    rows = np.flatnonzero(restricted.any(axis=1))
    fixed = np.where(dominated, _WEIGHT_FLOOR, np.where(seen, 0.0, 1.0 / state.n))
    return _Restriction(reach, incidence, free, rows, restricted[rows], fixed, 1.0 - fixed.sum())


def mm_fit(state: MMState, max_iters: int = 100, tol: float = 1e-8) -> MMState:
    """Fit context-free PL weights to the recorded stages (Hunter's MM iteration).

    Dominated arms go to ``_WEIGHT_FLOOR`` and unseen arms to 1/n in
    closed form (see ``MMState``); only the free arms are swept, on the
    remaining-sets that hold a free arm, with the dominated arms left
    out of every stage total.  A sweep sets each free ``w_i`` to the
    number of stages won by arm i divided by the sum, over those stages
    containing i, of the inverse stage total, then scales the free
    weights to sum ``1 - (floors + priors)``.  With the sets as the rows
    of a 0/1 incidence matrix ``A`` and their multiplicities ``m``, that
    denominator is ``(m / (A @ w)) @ A``.

    The sweeps are accelerated by SQUAREM (Varadhan & Roland 2008, step
    S3).  From w, two sweeps give w1 and w2; with r = w1 - w,
    v = w2 - w1 - r and ``a = -|r| / |v|`` below -1, the next cycle starts
    from ``w - 2 a r + a^2 v`` if that point is positive and its
    log-likelihood on the swept stages is no lower than w's, and from w2
    otherwise.  The iteration warm-starts from ``state.weights`` and
    returns the output of the first sweep that moves no weight by
    ``tol``, or of sweep ``max_iters``.
    """
    if not state.observations:
        raise ValueError("cannot fit with an empty history")
    r = _restrict(state)
    weights = r.fixed.copy()
    if r.free.size:
        m = np.fromiter(state.set_counts.values(), dtype=float, count=len(r.incidence))
        w = state.weights[r.free]
        weights[r.free] = _squarem(
            w * (r.mass / w.sum()), state.wins[r.free].astype(float), r.A, m[r.rows],
            r.mass, max_iters, tol,
        )
    return _unchecked(MMState, state.__dict__, weights=weights, _restriction=r)


def _squarem(w, wins, A, m, mass, max_iters, tol):
    """SQUAREM-accelerated MM sweeps of the free weights (see ``mm_fit``)."""

    # At a few dozen sets per-call overhead dominates each sweep, hence
    # ndarray.dot and a bare ufunc reduce instead of ``@`` and ``np.max``.
    def sweep(w):
        w_new = wins / (m / A.dot(w)).dot(A)
        return w_new * (mass / np.add.reduce(w_new))

    def loglik(w):
        return wins.dot(np.log(w)) - m.dot(np.log(A.dot(w)))

    sweeps, ll = 0, None  # ll: log-likelihood of w, once computed
    while True:
        w1 = sweep(w)
        r = w1 - w
        sweeps += 1
        if sweeps == max_iters or np.maximum.reduce(np.abs(r)) < tol:
            return w1
        w2 = sweep(w1)
        d = w2 - w1
        sweeps += 1
        if sweeps == max_iters or np.maximum.reduce(np.abs(d)) < tol:
            return w2
        v = d - r
        rr, vv = r.dot(r), v.dot(v)
        if 0.0 < vv < rr:
            a = -math.sqrt(rr / vv)
            x = w - (2.0 * a) * r + (a * a) * v
            if np.minimum.reduce(x) > 0.0:
                lx = loglik(x)
                if ll is None:
                    ll = loglik(w)
                if lx >= ll:
                    w, ll = x, lx
                    continue
        w, ll = w2, None


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
    """Context-free baseline: refit MM weights each round, play top-k greedily.

    A round is ``mm_fit(state.record(subset, feedback))``: ``record``
    checks the subset and feedback and adds their stages, and ``mm_fit``
    refits with its defaults, warm-started from the previous weights.
    The context is not read.  A sweep passes once over the
    distinct remaining-sets that hold a free arm (see ``MMState``),
    however many rounds came before.
    """

    def __init__(self, n: int):
        self.state = MMState.uniform(n)

    def _choose(self, context: ContextMatrix, k: int) -> PolicyDecision:
        """Top-k by fewest dominators (see ``MMState``), then weight, then index.

        Dominated arms share the floor weight.  A fitted or uniform state's
        weights lie in (0, 1], so subtracting the integer count orders by both keys.
        """
        reach = self.state.reach
        dominators = (reach & ~reach.T).sum(axis=0)
        return PolicyDecision(top_k_subset(self.state.weights - dominators, k))

    def _update(self, feedback, subset, context) -> None:
        self.state = mm_fit(self.state.record(subset, feedback))
