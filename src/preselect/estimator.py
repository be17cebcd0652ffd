"""Averaged-SGD estimation of the utility parameter and UCB-style widths.

The parameter estimate is the running average ``theta_bar`` of
stochastic gradient-ascent iterates ``theta_hat`` on the observation
log-likelihood, with step size ``gamma1 * t**(-alpha)``.  Alongside the
iterates we accumulate plug-in curvature and score statistics

    S_accum = sum_i  hess loglik(theta_bar_i | obs_i)
    V_accum = sum_i  grad loglik(theta_bar_i | obs_i) grad(...)^T

from which a sandwich covariance estimate for ``theta_bar`` is formed.
Once the warm-up ends, a CPPL run with omega > 0 holds ``inv(S_accum)``
in place of ``S_accum`` (see ``EstimatorState``).
Per-arm confidence widths follow from the covariance through a rank-one
operator-norm identity; together with the estimated utilities they give
upper confidence bounds used for subset selection.

The module also provides closed-form tail-bound helpers for the
F-distribution and the chi-square distribution that back the width
construction; they are plain formulas, verified elsewhere by Monte
Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import (
    Observation, _factors, _symmetrize, grad_loglik, hessian_loglik,
)
from .plackett_luce import ContextMatrix, _check_int, _check_setting, _check_theta, _unchecked

__all__ = [
    "EstimatorState",
    "ConfidenceWidths",
    "sgd_update",
    "covariance",
    "confidence_widths",
    "f_tail_threshold",
    "f_tail_bound",
    "chi2_upper_tail_bound",
    "chi2_tail_bounds",
]

# The ridge rule's shift (see ``covariance``): the normalized curvature is
# near-singular in early rounds, and is shifted by it before inversion.
_RIDGE = 1e-6


@dataclass(frozen=True)
class EstimatorState:
    """State of the averaged-SGD estimator after ``t`` updates.

    ``theta_hat`` is the current SGD iterate, ``theta_bar`` the running
    average of iterates 1..t.  ``V_accum`` is the raw (unnormalized)
    score accumulator.

    The curvature is held in exactly one of two forms: the raw
    accumulator ``S_accum`` (fresh state), or its inverse
    ``S_accum_inv = W`` with ``S_accum`` None (carried state).  A
    carried state never goes back: ``sgd_update`` moves W to the next
    ``S_accum`` by a Woodbury step on the new Hessian ``F C F^T``
    (O(d^2 k), against O(d^3) for ``inv``), and ``covariance`` and
    ``confidence_widths`` read W alone, so neither runs an ``inv`` and
    no ``S_accum`` is kept beside it.  ``CPPLPolicy`` with omega > 0
    switches to the carried form, with one ``inv``, once the ridge test
    first passes, at every d; the warm-up rounds before it, omega = 0
    policies and states built by hand stay fresh.  The carried W tracks
    ``inv(S_accum)`` to round-off, because each step is symmetrized.
    """

    theta_hat: np.ndarray
    theta_bar: np.ndarray
    t: int
    S_accum: np.ndarray | None
    V_accum: np.ndarray
    gamma1: float
    alpha: float
    S_accum_inv: np.ndarray | None = None

    def __post_init__(self):
        theta_hat = np.asarray(self.theta_hat, dtype=float)
        theta_bar = np.asarray(self.theta_bar, dtype=float)
        d = theta_hat.size
        if theta_bar.size != d:
            raise ValueError("theta_hat and theta_bar must have equal dimension")
        if (self.S_accum is None) == (self.S_accum_inv is None):
            raise ValueError("give exactly one of S_accum and S_accum_inv")
        curvature = "S_accum" if self.S_accum_inv is None else "S_accum_inv"
        S = np.asarray(getattr(self, curvature), dtype=float)
        V = np.asarray(self.V_accum, dtype=float)
        if S.shape != (d, d) or V.shape != (d, d):
            raise ValueError(f"{curvature} and V_accum must be d x d matrices")
        object.__setattr__(self, "t", _check_int(self.t, "t"))
        if self.t < 0:
            raise ValueError("update counter must be nonnegative")
        for name in ("gamma1", "alpha"):
            object.__setattr__(self, name, _check_setting(name, getattr(self, name)))
        object.__setattr__(self, "theta_hat", theta_hat)
        object.__setattr__(self, "theta_bar", theta_bar)
        object.__setattr__(self, curvature, S)
        object.__setattr__(self, "V_accum", V)

    @classmethod
    def init(
        cls,
        d: int,
        rng: np.random.Generator,
        gamma1: float = 2.0,
        alpha: float = 0.6,
    ) -> "EstimatorState":
        """Fresh state with ``theta_hat = theta_bar`` drawn uniformly from [0, 1]^d.

        A test that needs a chosen starting point builds the state with
        the constructor instead.
        """
        theta = rng.uniform(size=_check_int(d, "d"))
        return cls(
            theta_hat=theta,
            theta_bar=theta.copy(),
            t=0,
            S_accum=np.zeros((d, d)),
            V_accum=np.zeros((d, d)),
            gamma1=gamma1,
            alpha=alpha,
        )

    @property
    def d(self) -> int:
        return self.theta_hat.size


@dataclass(frozen=True)
class ConfidenceWidths:
    """Per-arm estimated utilities and exploration bonuses for one round.

    Unchecked: ``confidence_widths`` raises ``OverflowError`` on a
    non-finite value, and its widths are >= 0 by construction.  The
    utilities are ``exp(logit)``, 0 only where a logit below -745 underflows.
    """

    widths: np.ndarray
    utilities: np.ndarray


def sgd_update(state: EstimatorState, obs: Observation) -> EstimatorState:
    """One gradient-ascent step plus accumulator maintenance.

    The step uses the gradient at the current iterate; the accumulators
    are evaluated at the new running average, matching their plug-in
    definitions.  Both curvature forms take the gradient at the average
    from ``grad_loglik``.  A fresh state (warm-up rounds, omega = 0
    policies) adds ``hessian_loglik`` to ``S_accum``: three likelihood
    calls.  A carried state (every later CPPL round) moves ``S_accum_inv``
    by one Woodbury step on the Hessian's factors (see ``_woodbury_step``),
    so no d x d Hessian is formed: two likelihood calls.  Either way two
    stage passes are computed, as the curvature reuses the gradient's pass
    at the average, and they gather the observation's columns once (see
    ``likelihood._stage_pass``).  A non-finite average raises ``OverflowError``.
    """
    t_new = state.t + 1
    step = state.gamma1 * t_new ** (-state.alpha)
    theta_hat = state.theta_hat + step * grad_loglik(state.theta_hat, obs)
    theta_bar = ((t_new - 1) * state.theta_bar + theta_hat) / t_new
    if not np.isfinite(theta_bar).all():
        raise OverflowError("SGD estimate overflowed; lower gamma1 or rescale the features")
    g = grad_loglik(theta_bar, obs)
    if state.S_accum_inv is None:
        curvature = {"S_accum": state.S_accum + hessian_loglik(theta_bar, obs)}
    else:
        curvature = {"S_accum_inv": _woodbury_step(state.S_accum_inv, *_factors(theta_bar, obs))}
    return _unchecked(
        EstimatorState,
        state.__dict__,
        theta_hat=theta_hat,
        theta_bar=theta_bar,
        t=t_new,
        V_accum=state.V_accum + g[:, None] * g,  # np.outer(g, g), without its ravels
        **curvature,
    )


def _woodbury_step(W: np.ndarray, F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``inv(A + F C F^T)`` from ``W = inv(A)`` in O(d^2 k) (Sherman-Morrison-Woodbury).

    Uses ``W - W F C (I + F^T W F C)^-1 F^T W`` with the push-through
    identity ``C (I + G C)^-1 = (I + C G)^-1 C``, which never inverts C,
    so it holds for the singular Plackett-Luce core.  The result is
    symmetrized: unsymmetrized, the round-off asymmetry grows every step.
    """
    WF = W @ F
    core = np.linalg.solve(np.eye(C.shape[0]) + C @ (F.T @ WF), C)
    return _symmetrize(W - WF @ core @ WF.T)


def _has_cholesky(A: np.ndarray) -> bool:
    """True when ``A`` has a Cholesky factor, that is, is positive definite."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _passes_ridge_test(S: np.ndarray) -> bool:
    """The ridge rule's test on ``S = S_accum / t``: is ``-S - _RIDGE * I`` positive definite?"""
    return _has_cholesky(-S - _RIDGE * np.eye(S.shape[0]))


def _attach_inverse(state: EstimatorState) -> EstimatorState:
    """``state`` in the carried form once the ridge test passes, else unchanged.

    From then on ``S_accum`` is negative definite and stays so, since
    every update adds a negative semi-definite Hessian.
    """
    if not _passes_ridge_test(state.S_accum / state.t):
        return state
    return _unchecked(EstimatorState, state.__dict__, S_accum=None,
                      S_accum_inv=np.linalg.inv(state.S_accum))


def _update_count(state: EstimatorState) -> int:
    """``state.t``, which must be >= 1: before the first update there is no curvature."""
    if state.t < 1:
        raise RuntimeError("covariance is undefined before the first update")
    return state.t


def _carried_factor(state: EstimatorState) -> np.ndarray:
    """M with ``Sigma = M V_accum M`` for a carried state, W = ``S_accum_inv``.

    The ridge rule of ``covariance`` restated on W.  With ``S = S_accum / t
    = (t W)^-1`` negative definite, ``-S - _RIDGE * I`` is positive
    definite exactly when ``I + t * _RIDGE * W`` is.  The test is skipped
    when ``||W||_F * t * _RIDGE < 1``: the Frobenius norm bounds the
    spectral radius, so every eigenvalue magnitude of S exceeds ``_RIDGE``
    and the test would pass.  A passing test gives M = W.  A failing one
    gives the shifted inverse ``(S - _RIDGE * I)^-1 / t``, which is
    ``inv(I - t * _RIDGE * W) W``: one ``inv``, as the fresh path spends.
    The bound skips the test on the usual carried round: ``S_accum`` grows
    about as t, so ``||W||_F * t * _RIDGE`` stays far below 1.
    """
    t = _update_count(state)
    W = state.S_accum_inv
    if np.linalg.norm(W) * t * _RIDGE < 1.0 or _has_cholesky(
        np.eye(state.d) + t * _RIDGE * W
    ):
        return W
    return np.linalg.inv(np.eye(state.d) - t * _RIDGE * W) @ W


def covariance(state: EstimatorState) -> np.ndarray:
    """Sandwich covariance estimate ``t^-1 S^-1 V S^-1`` for ``theta_bar``.

    Ridge rule: ``S = S_accum / t`` is shifted to ``S - _RIDGE * I``
    before inversion unless ``-S - _RIDGE * I`` has a Cholesky factor,
    that is, unless every eigenvalue of S is below ``-_RIDGE``.  S is a
    sum of Plackett-Luce Hessians and hence negative semi-definite, so
    for it the rule shifts exactly when the smallest eigenvalue
    magnitude is at most ``_RIDGE``.  A user-built S with an eigenvalue at
    or above ``-_RIDGE`` (indefinite or positive) is always shifted.  The
    result is symmetrized and positive semi-definite regardless of the
    sign of S because S enters twice.

    A carried state (``S_accum_inv = W``) applies the same rule to W
    (see ``_carried_factor``) and returns ``M V_accum M``, which is
    ``t^-1 (t W) (V_accum / t) (t W)`` when the test passes; no ``inv``
    runs then.
    """
    if state.S_accum_inv is not None:
        M = _carried_factor(state)
        sigma = M @ state.V_accum @ M
    else:
        t = _update_count(state)
        S = state.S_accum / t
        if not _passes_ridge_test(S):
            S = S - _RIDGE * np.eye(state.d)
        S_inv = np.linalg.inv(S)
        sigma = S_inv @ (state.V_accum / t) @ S_inv / t
    return _symmetrize(sigma)


def confidence_widths(
    state: EstimatorState, context: ContextMatrix, omega: float
) -> ConfidenceWidths:
    """Estimated utilities and UCB bonuses for every arm of ``context``.

    For arm i with feature column x the bonus is

        omega * sqrt( (2 log t + d + 2 sqrt(d log t)) * I_i ),
        I_i = exp(2 x . theta_bar) * x^T Sigma x,

    where the bracket is the chi-square threshold ``_chi2_threshold(d, log t)``,
    which a chi2(d) variable exceeds with probability at most 1/t
    (``chi2_upper_tail_bound``), and ``I_i`` is the operator norm of the
    rank-one matrix ``Sigma^(1/2) [exp(2 x.theta_bar) x x^T] Sigma^(1/2)``
    in closed form; the square root of Sigma is never materialized.  A
    fresh state takes Sigma from ``covariance``.  A carried state never
    forms the d x d Sigma: with ``Sigma = M V_accum M`` (see
    ``_carried_factor``) and ``Y = M X``, the quadratic forms are the
    column sums of ``(V_accum Y) * Y``.
    """
    omega = _check_setting("omega", omega)
    X = context.features
    logits = _check_theta(state.theta_bar, context.d) @ X
    with np.errstate(over="ignore"):  # overflow becomes an explicit error below
        # Both branches raise before the first update.
        if state.S_accum_inv is None:
            quad = ((covariance(state) @ X) * X).sum(axis=0)
        else:
            Y = _carried_factor(state) @ X
            quad = ((state.V_accum @ Y) * Y).sum(axis=0)
        utilities = np.exp(logits)
        if not np.isfinite(utilities).all():
            raise OverflowError("estimated utilities overflowed; rescale the features")
        quad = np.maximum(quad, 0.0)  # guard tiny negative round-off
        bracket = _chi2_threshold(state.d, math.log(state.t))
        # sqrt(exp(2 logit)) = exp(logit): multiply by the utilities rather
        # than form exp(2 logit), which overflows for logits above ~355.
        widths = omega * utilities * np.sqrt(bracket * quad)
    if not np.isfinite(widths).all():
        raise OverflowError("confidence widths overflowed; rescale the features")
    return ConfidenceWidths(widths=widths, utilities=utilities)


def _check_tail_args(d: int, x: float, name: str = "d") -> None:
    """The one tail-bound argument rule: ``d >= 1`` degrees of freedom and ``x >= 0``."""
    if not (d >= 1 and x >= 0):
        raise ValueError(f"need {name} >= 1 and x >= 0, got {name}={d!r}, x={x!r}")


def _chi2_threshold(d: int, x: float) -> float:
    """``d + 2 sqrt(d x) + 2 x``, which ``Y ~ chi2(d)`` exceeds with probability <= ``exp(-x)``."""
    return 2.0 * x + d + 2.0 * math.sqrt(d * x)


def f_tail_threshold(d1: int, x: float) -> float:
    """Threshold ``s`` such that an F(d1, d2) variable exceeds s with small probability."""
    _check_tail_args(d1, x, "d1")
    return 4.0 * _chi2_threshold(d1, x) / (3.0 * d1)


def f_tail_bound(d2: int, x: float) -> float:
    """Upper bound on ``P(F >= f_tail_threshold(d1, x))``: ``exp(-x) + exp(-3 d2 / 256)``."""
    _check_tail_args(d2, x, "d2")
    return math.exp(-x) + math.exp(-3.0 * d2 / 256.0)


def chi2_upper_tail_bound(d: int, x: float) -> float:
    """Bound ``exp(-x)`` on ``P(Y - d >= 2 sqrt(d x) + 2 x)`` for ``Y ~ chi2(d)``."""
    _check_tail_args(d, x)
    return math.exp(-x)


def chi2_tail_bounds(d: int, x: float) -> tuple[float, float]:
    """Chi-square tail bounds for ``Y ~ chi2(d)``.

    Returns ``(exp(-x), exp(-3 d x^2 / 16))`` bounding
    ``P(Y - d >= 2 sqrt(d x) + 2 x)`` and ``P(|Y - d| >= d x)``
    respectively.  The second form is only valid for ``x < 1/2``; use
    ``chi2_upper_tail_bound`` alone for larger ``x``.
    """
    upper = chi2_upper_tail_bound(d, x)  # checks d and x
    if x >= 0.5:
        raise ValueError("the concentration bound requires x in [0, 1/2)")
    return upper, math.exp(-3.0 * d * x * x / 16.0)
