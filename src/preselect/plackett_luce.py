"""Plackett-Luce core: rankings, choice probabilities, and exact sampling.

The Plackett-Luce (PL) model assigns each alternative i a positive latent
utility v_i and defines a distribution over rankings by repeated choice:
the top-ranked alternative is drawn with probability proportional to its
utility, then the next one from the remainder, and so on.  In the
contextual variant the utility of alternative i is ``exp(theta . x_i)``
for a joint feature vector x_i.

All probability computations run in log space, each choice stage
normalized by its own log-sum-exp, so large ``theta . x`` do not overflow.
Every function is pure; random sampling takes a caller-owned
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

__all__ = [
    "Ranking",
    "ContextMatrix",
    "UtilityVector",
    "contextual_utilities",
    "prob_full_ranking",
    "prob_partial_ranking",
    "prob_top_rank",
    "sample_partial_ranking",
    "sample_winner",
]


@dataclass(frozen=True)
class Ranking:
    """Distinct alternatives listed best-first: ``ordering[0]`` is ranked first.

    ``items`` (the ranked set, sorted) is derived from the ordering.
    """

    ordering: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ordering", _distinct_ints(self.ordering, "ranking"))

    @property
    def items(self) -> tuple[int, ...]:
        """The ranked alternatives in sorted order."""
        return tuple(sorted(self.ordering))


@dataclass(frozen=True)
class ContextMatrix:
    """Per-round block of joint context/arm feature vectors.

    ``features`` has shape ``(d, n)``; column i is the joint feature
    vector of arm i for this round.
    """

    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a d x n matrix with d, n >= 1")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)

    @property
    def d(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class UtilityVector:
    """Positive latent utilities of ``n`` alternatives.

    Stored as log-utilities so that probability computations stay in log
    space; ``values`` materializes ``exp(log_values)`` and can overflow
    for extreme logits, which is exactly why the probability functions
    below never go through it.
    """

    log_values: np.ndarray = field()

    def __post_init__(self):
        logs = np.asarray(self.log_values, dtype=float)
        if logs.ndim != 1 or logs.size < 1:
            raise ValueError("log utilities must be a nonempty vector")
        if not np.all(np.isfinite(logs)):
            raise ValueError("log utilities must be finite")
        object.__setattr__(self, "log_values", logs)

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray) -> "UtilityVector":
        """From utilities; the constructor checks the shape and finiteness of their logs."""
        vals = np.asarray(values, dtype=float)
        if not np.all(vals > 0):
            raise ValueError("utilities must be strictly positive")
        return cls(np.log(vals))

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    def __len__(self) -> int:
        return self.log_values.size


def contextual_utilities(theta: np.ndarray, context: ContextMatrix) -> UtilityVector:
    """Utilities ``v_i = exp(theta . x_i)`` for every arm column of the context."""
    return UtilityVector(_check_theta(theta, context.d) @ context.features)


# Input rules, each written once: the config and the constructors call these.
_NONNEGATIVE = ("nonnegative and finite", lambda v: v >= 0)
_SETTING_RULES = {  # setting -> (what it must be, range test on a finite value)
    "gamma1": ("finite and positive", lambda v: v > 0),
    "alpha": ("in (1/2, 1)", lambda v: 0.5 < v < 1.0),
    "omega": _NONNEGATIVE,
    "epsilon": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "lam": _NONNEGATIVE,
}


def _check_setting(name: str, value: float, label: str | None = None) -> float:
    """The one number rule: a real number, not a bool, finite, then in ``name``'s range.

    Returns the value to store: a Python int or float as given, a numpy scalar as a float.
    """
    try:
        # float and int first: they skip the slow abstract-class check of numbers.Real.
        real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
        finite = real and math.isfinite(value)
    except OverflowError:  # a real number too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{label or name} must be a finite number, got {value!r}")
    what, ok = _SETTING_RULES[name]
    if not ok(value):
        raise ValueError(f"{label or name} must be {what}, got {value!r}")
    return value if type(value) in (int, float) else float(value)


def _check_int(value: int, name: str) -> int:
    """The one integer rule: a Python or numpy integer, not a bool, as a Python ``int``."""
    if type(value) is int:  # the common case, first: subsets are checked several times a round
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_k(k: int, n: int) -> None:
    """The one preselection-size rule: integers with ``1 <= k < n``."""
    k, n = _check_int(k, "k"), _check_int(n, "n")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n (got k={k}, n={n})")


def _check_theta(theta: np.ndarray, d: int) -> np.ndarray:
    """``theta`` as a float vector, if it has the context's dimension ``d``."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size != d:
        raise ValueError(f"theta has dimension {theta.size}, context expects {d}")
    return theta


def _distinct_ints(values: Sequence[int], name: str) -> tuple[int, ...]:
    """The steps a subset and a ranking share: integer members, at least one, distinct."""
    ints = tuple(map(_check_int, values, repeat(f"{name} member")))
    if not ints:
        raise ValueError(f"{name} must be nonempty")
    if len(set(ints)) != len(ints):
        raise ValueError(f"{name} members must be distinct")
    return ints


def _check_subset(subset: Sequence[int], n: int) -> tuple[int, ...]:
    """The one subset rule (integers, nonempty, distinct, in [0, n)); returns them sorted."""
    members = tuple(sorted(_distinct_ints(subset, "subset")))
    if members[0] < 0 or members[-1] >= n:
        raise ValueError(f"subset members must lie in [0, {n})")
    return members


def _check_ranking(ranking: Ranking, members: tuple[int, ...]) -> None:
    """The one ranking-domain rule: ``ranking`` is a ``Ranking`` of exactly ``members``
    (a subset already through ``_check_subset``)."""
    if not isinstance(ranking, Ranking):
        raise ValueError(f"ranking must be a Ranking, got {ranking!r}")
    if ranking.items != members:
        raise ValueError("ranking domain must equal the subset")


def _unchecked(cls, fields=(), **changes):
    """An instance of the dataclass ``cls`` with ``fields`` updated by ``changes``,
    without running its checks.

    The one construction rule: a value built from values its builder has
    just checked or made goes through here; a value built from a caller's
    arguments goes through its constructor, which checks them.
    """
    new = object.__new__(cls)
    new.__dict__.update(fields, **changes)
    return new


def _suffix_log_normalizers(logits: np.ndarray) -> np.ndarray:
    """``log sum_{j >= i} exp(logits[j])`` for every stage i, each shifted by its own max."""
    return np.logaddexp.accumulate(logits[::-1])[::-1]


def _log_prob_stages(logits: np.ndarray, stages: int) -> float:
    """Log PL probability that the first ``stages`` entries of ``logits`` are chosen in order."""
    return float(logits[:stages].sum() - _suffix_log_normalizers(logits)[:stages].sum())


def prob_full_ranking(utilities: UtilityVector, ranking: Ranking) -> float:
    """PL probability of a full ranking over all ``n`` alternatives."""
    return prob_partial_ranking(utilities, range(len(utilities)), ranking)


def prob_partial_ranking(
    utilities: UtilityVector, subset: Sequence[int], ranking: Ranking
) -> float:
    """PL probability of a partial ranking on ``subset``.

    Equals the sum of full-ranking probabilities over all linear
    extensions of the partial ranking, but is computed directly via the
    closed-form product of stage-wise choice probabilities.
    """
    members = _check_subset(subset, len(utilities))
    _check_ranking(ranking, members)
    logits = utilities.log_values[list(ranking.ordering)]
    return float(np.exp(_log_prob_stages(logits, len(members))))


def prob_top_rank(utilities: UtilityVector, subset: Sequence[int], arm: int) -> float:
    """Probability that ``arm`` is ranked first among ``subset``."""
    members = _check_subset(subset, len(utilities))
    arm = _check_int(arm, "arm")
    if arm not in members:
        raise ValueError(f"arm {arm} is not a member of the subset")
    logits = utilities.log_values[[arm] + [i for i in members if i != arm]]
    return float(np.exp(_log_prob_stages(logits, 1)))


def _draw_stages(
    utilities: UtilityVector, subset: Sequence[int], stages: int, rng: np.random.Generator
) -> list[int]:
    """The first ``stages`` arms of a PL ranking of ``subset``, best first, one uniform each.

    Each stage weighs the remaining arms by ``exp(l - max l)`` and takes the first whose
    cumulative weight exceeds ``u * total``; the uniforms are one ``rng.random(stages)``.
    """
    remaining = list(_check_subset(subset, len(utilities)))
    logs = utilities.log_values[remaining].tolist()
    picked = []
    for u in rng.random(stages).tolist():
        top = max(logs)
        cum = list(accumulate(math.exp(log - top) for log in logs))
        i = bisect_right(cum, u * cum[-1])
        picked.append(remaining.pop(i))
        del logs[i]
    return picked


def sample_partial_ranking(
    utilities: UtilityVector, subset: Sequence[int], rng: np.random.Generator
) -> Ranking:
    """Draw a full ranking of ``subset`` exactly from the PL model: one stage per arm."""
    # The stages are distinct members of the subset ``_draw_stages`` checked.
    return _unchecked(Ranking, ordering=tuple(_draw_stages(utilities, subset, len(subset), rng)))


def sample_winner(
    utilities: UtilityVector, subset: Sequence[int], rng: np.random.Generator
) -> int:
    """Draw the top-ranked arm of ``subset``: the first stage of a ranking."""
    return _draw_stages(utilities, subset, 1, rng)[0]
