"""The numeric checks of the acceptance suite, and ``preselect verify``.

Each check compares a library computation with an independent oracle
(enumeration, finite differences, an eigen-decomposition or sampled
frequencies), takes a ``numpy.random.Generator`` and a size, and returns
its measured errors by name, not a verdict.  Acceptance criteria 1-4 and
6 call the checks at their pinned seeds and sizes; ``run_all_checks``
(the CLI ``verify``) calls them at small sizes, with unequal utilities
for the sampler so that one ignoring them fails, plus the tail-bound spot
values.  Both apply ``LIMITS`` to the exact checks; sampler limits depend
on the number of draws, so each caller sets its own.  The oracles are
public for the unit tests.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .estimator import (
    EstimatorState, confidence_widths, covariance, f_tail_bound, f_tail_threshold,
)
from .likelihood import (
    Observation, RankingFeedback, WinnerFeedback, grad_loglik, hessian_loglik, loglik,
)
from .plackett_luce import (
    ContextMatrix, Ranking, UtilityVector, prob_full_ranking, prob_partial_ranking,
    prob_top_rank, sample_partial_ranking, sample_winner,
)
from .policies import cppl_choose, top_k_subset

__all__ = [
    "LIMITS", "VERIFY_LIMITS", "failures", "random_observation", "random_state",
    "fd_gradient", "fd_hessian", "linear_extension_sum", "exhaustive_top_k", "derivative_errors",
    "pl_exactness_errors", "winner_deviation", "ranking_deviation", "width_errors", "top_k_errors",
    "tail_spot_errors", "run_all_checks",
]

# Largest allowed value of each error the exact checks measure, at any size.
LIMITS = {
    "grad": 1e-5, "hess": 1e-4, "asymmetry": 1e-12, "max_eig": 1e-10,
    "full": 1e-12, "extensions": 1e-12, "top_rank": 1e-12,
    "width": 1e-8, "disagreements": 0,
    "mismatches": 0,
    "threshold": 1e-12, "bound": 1e-12,
}
# Verify's sampler limits: about six standard errors at its draw counts.
VERIFY_LIMITS = {**LIMITS, "winner": 0.03, "ranking": 0.05}


def failures(errors: dict, limits: dict = LIMITS) -> list[str]:
    """Names of the errors above their limit (NaN fails); names without one are counts."""
    return [name for name, value in errors.items()
            if name in limits and not value <= limits[name]]


def random_observation(rng, d, n, subset_size, mode):
    """Random observation with uniform features and a random feedback draw."""
    context = ContextMatrix(rng.uniform(size=(d, n)))
    subset = tuple(sorted(rng.choice(n, size=subset_size, replace=False)))
    if mode == "winner":
        feedback = WinnerFeedback(int(rng.choice(subset)))
    else:
        order = list(subset)
        rng.shuffle(order)
        feedback = RankingFeedback(Ranking(order))
    return Observation(feedback=feedback, subset=subset, context=context)


def _central_differences(f, theta, h):
    """Column j is ``(f(theta + h e_j) - f(theta - h e_j)) / 2h``."""
    return np.stack([(f(theta + e) - f(theta - e)) / (2 * h) for e in np.eye(theta.size) * h],
                    axis=-1)


def fd_gradient(theta, obs, h=1e-5):
    """Central finite differences of ``loglik``."""
    return _central_differences(lambda t: loglik(t, obs), theta, h)


def fd_hessian(theta, obs, h=1e-5):
    """Central finite differences of ``grad_loglik``."""
    return _central_differences(lambda t: grad_loglik(t, obs), theta, h)


def linear_extension_sum(utils, subset, ranking):
    """Sum of full-ranking probabilities over the linear extensions of ``ranking``."""
    members = set(subset)
    return sum(
        prob_full_ranking(utils, Ranking(perm))
        for perm in itertools.permutations(range(len(utils)))
        if tuple(a for a in perm if a in members) == ranking.ordering
    )


def exhaustive_top_k(scores, k):
    """The first k-subset, in lexicographic order, with the largest score sum.

    That is the lowest-index tie-break.  Integer scores compare exactly,
    so a grid of tied decimals is best given in integer units.
    """
    best, best_sum = None, None
    for subset in itertools.combinations(range(len(scores)), k):
        total = sum(scores[i] for i in subset)
        if best_sum is None or total > best_sum:
            best, best_sum = subset, total
    return best


def random_state(rng, d, t_low, t_high):
    """Estimator state with negative-definite curvature, PSD scores and t in [t_low, t_high)."""
    A, B = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    return EstimatorState(
        theta_hat=rng.uniform(size=d), theta_bar=rng.uniform(size=d),
        t=int(rng.integers(t_low, t_high)), S_accum=-(A @ A.T + np.eye(d)), V_accum=B @ B.T,
        gamma1=2.0, alpha=0.6,
    )


def derivative_errors(rng, cases):
    """Gradient and Hessian against finite differences (criterion 1).

    ``cases`` random observations per feedback mode.  Returns the worst
    relative errors, the worst Hessian asymmetry and the largest Hessian
    eigenvalue (at most ~0 for a negative semi-definite Hessian).
    """
    worst = {"grad": 0.0, "hess": 0.0, "asymmetry": 0.0, "max_eig": -np.inf}
    for mode in ("winner", "ranking"):
        for _ in range(cases):
            d = int(rng.integers(2, 7))
            size = int(rng.integers(2, 6))
            n = size + int(rng.integers(0, 3))
            obs = random_observation(rng, d, n, size, mode)
            theta = rng.uniform(size=d)
            grad, hess = grad_loglik(theta, obs), hessian_loglik(theta, obs)
            for name, value, fd in (
                ("grad", grad, fd_gradient(theta, obs)),
                ("hess", hess, fd_hessian(theta, obs)),
            ):
                rel = np.linalg.norm(value - fd) / max(np.linalg.norm(fd), 1e-8)
                worst[name] = max(worst[name], rel)
            worst["asymmetry"] = max(worst["asymmetry"], np.max(np.abs(hess - hess.T)))
            worst["max_eig"] = max(worst["max_eig"], np.linalg.eigvalsh(hess).max())
    return {name: float(value) for name, value in worst.items()}


def pl_exactness_errors(rng, max_n):
    """PL probabilities against enumeration, for n = 2..max_n (criterion 2).

    ``full``: full rankings sum to 1; ``extensions``: a partial ranking
    of up to 3 arms equals its linear-extension sum; ``top_rank``:
    top-rank probabilities over each subset sum to 1.
    """
    worst = {"full": 0.0, "extensions": 0.0, "top_rank": 0.0}
    for n in range(2, max_n + 1):
        utils = UtilityVector.from_values(rng.uniform(0.1, 3.0, size=n))
        total = sum(prob_full_ranking(utils, Ranking(p))
                    for p in itertools.permutations(range(n)))
        worst["full"] = max(worst["full"], abs(total - 1.0))
        for size in range(1, min(3, n) + 1):
            for subset in itertools.combinations(range(n), size):
                for ordering in itertools.permutations(subset):
                    ranking = Ranking(ordering)
                    direct = prob_partial_ranking(utils, subset, ranking)
                    brute = linear_extension_sum(utils, subset, ranking)
                    worst["extensions"] = max(worst["extensions"], abs(direct - brute))
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                top_sum = sum(prob_top_rank(utils, subset, i) for i in subset)
                worst["top_rank"] = max(worst["top_rank"], abs(top_sum - 1.0))
    return worst


def winner_deviation(rng, draws, values):
    """Largest gap between sampled winner frequencies and ``prob_top_rank``.

    Criterion 3: ``draws`` winners among all arms, with utilities ``values``.
    """
    utils = UtilityVector.from_values(values)
    subset = tuple(range(len(utils)))
    counts = np.zeros(len(utils))
    for _ in range(draws):
        counts[sample_winner(utils, subset, rng)] += 1
    return float(np.max(np.abs(counts / draws
                               - [prob_top_rank(utils, subset, i) for i in subset])))


def ranking_deviation(rng, draws, values):
    """Largest gap between sampled ranking frequencies and ``prob_partial_ranking``.

    Criterion 3: ``draws`` rankings of all arms, with utilities ``values``.
    """
    utils = UtilityVector.from_values(values)
    subset = tuple(range(len(utils)))
    freq = Counter(sample_partial_ranking(utils, subset, rng).ordering for _ in range(draws))
    return max(
        abs(freq[p] / draws - prob_partial_ranking(utils, subset, Ranking(p)))
        for p in itertools.permutations(subset)
    )


def width_errors(rng, width_cases, greedy_cases):
    """Width identity and the omega = 0 reduction (criterion 4).

    ``width``: worst relative gap, over ``width_cases`` random states, between
    ``confidence_widths`` and ``sqrt(bracket * ||Sigma^1/2 M Sigma^1/2||)`` by
    eigen-decomposition.  ``disagreements``: in how many of ``greedy_cases``
    ``cppl_choose`` at omega = 0 (Max-Theta) differs from
    ``exhaustive_top_k`` of the utilities ``exp(theta_bar . x)``.
    """
    worst = 0.0
    for _ in range(width_cases):
        d = int(rng.integers(2, 6))
        state = random_state(rng, d, 1, 100)
        context = ContextMatrix(rng.uniform(size=(d, 5)))
        cw = confidence_widths(state, context, omega=1.0)
        evals, evecs = np.linalg.eigh(covariance(state))
        root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0))) @ evecs.T
        log_t = math.log(state.t)
        bracket = 2 * log_t + d + 2 * math.sqrt(d * log_t)
        for i in range(context.n):
            x = context.features[:, i]
            M = math.exp(2 * x @ state.theta_bar) * np.outer(x, x)
            op_norm = max(np.linalg.eigvalsh(root @ M @ root).max(), 0.0)
            expected = math.sqrt(bracket * op_norm)
            if expected > 0:
                worst = max(worst, abs(cw.widths[i] - expected) / expected)
    disagreements = 0
    for _ in range(greedy_cases):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 9))
        state = random_state(rng, d, 0, 50)
        context = ContextMatrix(rng.uniform(size=(d, n)))
        k = int(rng.integers(1, n))
        disagreements += (cppl_choose(state, context, k, 0.0).subset
                          != exhaustive_top_k(np.exp(state.theta_bar @ context.features), k))
    return {"width": float(worst), "disagreements": disagreements}


def top_k_errors(rng, max_n):
    """``top_k_subset`` against ``exhaustive_top_k`` (criterion 6).

    Five tie-heavy score vectors (hundredths in [-3, 3]) for every n in
    3..max_n and k in 1..n-1; returns the mismatches and the instances.
    """
    mismatches = instances = 0
    for n in range(3, max_n + 1):
        for k in range(1, n):
            for _ in range(5):
                hundredths = rng.integers(-300, 301, size=n)
                mismatches += (top_k_subset(hundredths / 100.0, k)
                               != exhaustive_top_k(hundredths, k))
                instances += 1
    return {"mismatches": mismatches, "instances": instances}


def tail_spot_errors():
    """Closed-form tail threshold and bound against hand-computed values."""
    return {
        "threshold": max(abs(f_tail_threshold(4, 1.0) - 10.0 / 3.0),
                         abs(f_tail_threshold(1, 0.0) - 4.0 / 3.0)),
        "bound": abs(f_tail_bound(256, 0.0) - (1.0 + math.exp(-3.0))),
    }


def run_all_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every check at verify's sizes; returns (name, passed, detail) triples."""
    rng = np.random.default_rng(seed)
    checks = [
        ("criterion 1: gradient and Hessian match finite differences, NSD",
         lambda: derivative_errors(rng, cases=10)),
        ("criterion 2: PL probabilities equal enumeration, n <= 4",
         lambda: pl_exactness_errors(rng, max_n=4)),
        ("criterion 3: sampler frequencies match the model",
         lambda: {"winner": winner_deviation(rng, 10000, (0.5, 1.0, 2.0, 4.0)),
                  "ranking": ranking_deviation(rng, 3000, (0.5, 1.0, 2.0))}),
        ("criterion 4: width identity; omega=0 plays the top-k utilities",
         lambda: width_errors(rng, width_cases=10, greedy_cases=100)),
        ("criterion 6: top-k equals exhaustive subset argmax, n <= 10",
         lambda: top_k_errors(rng, max_n=10)),
        ("tail threshold and bound spot values", lambda: tail_spot_errors()),
    ]
    results = []
    for name, check in checks:
        try:
            errors = check()
            ok = not failures(errors, VERIFY_LIMITS)
            detail = ", ".join(f"{key} {value:.3g}" for key, value in errors.items())
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
