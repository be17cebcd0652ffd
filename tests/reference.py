"""A reference CPPL learner written from the formulas, for teacher-forced tests.

It shares no code with the package's ``estimator``, ``likelihood`` or
``policies``: every quantity is computed the direct way, stage by stage
and by eigendecomposition, so a test can replay a recorded run into it
and compare.

For an observed round with feature columns ``x_j`` and choice stages
(remaining arms R, stage winner w), with ``p_j = exp(theta . x_j) /
sum_{l in R} exp(theta . x_l)`` over R and ``mu = sum_j p_j x_j``:

    grad = sum over stages of  x_w - mu
    hess = sum over stages of  -(sum_j p_j x_j x_j^T - mu mu^T)

A winner round is one stage over the subset; a ranking of m arms is m - 1
stages over the shrinking remainder.  After t updates:

    theta_hat_t = theta_hat_{t-1} + gamma1 t^-alpha grad(theta_hat_{t-1})
    theta_bar_t = ((t - 1) theta_bar_{t-1} + theta_hat_t) / t
    S = sum_i hess(theta_bar_i),   V = sum_i grad(theta_bar_i) grad(theta_bar_i)^T
    Sigma = S'^-1 (V / t) S'^-1 / t,   S' = S / t, less ridge * I unless
            every eigenvalue of S / t is below -ridge (the ridge test)

Arm i's width is ``omega sqrt(c I_i)`` with ``c = 2 log t + d + 2 sqrt(d
log t)`` and ``I_i`` the operator norm of ``Sigma^1/2 (exp(2 theta_bar .
x_i) x_i x_i^T) Sigma^1/2``; its score is ``exp(theta_bar . x_i)`` plus
the width, and the choice is the k-subset of largest total score, found
by trying every subset.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

RIDGE = 1e-6


def stages(subset, ordering):
    """(remaining arms, winner) per stage: ``ordering`` is a winner's 1-tuple or a full ranking."""
    if len(ordering) == 1:
        return [(tuple(subset), ordering[0])]
    return [(tuple(ordering[i:]), ordering[i]) for i in range(len(ordering) - 1)]


def grad_and_hessian(theta, features, subset, ordering):
    """The log-likelihood's gradient and Hessian at ``theta``, summed stage by stage."""
    d = theta.size
    grad, hess = np.zeros(d), np.zeros((d, d))
    for remaining, winner in stages(subset, ordering):
        X = features[:, list(remaining)]
        logits = theta @ X
        p = np.exp(logits - logits.max())
        p /= p.sum()
        mu = X @ p
        grad += features[:, winner] - mu
        hess -= (X * p) @ X.T - np.outer(mu, mu)
    return grad, hess


class ReferenceLearner:
    """Averaged SGD with plug-in sandwich covariance, held as plain sums."""

    def __init__(self, theta0, gamma1=2.0, alpha=0.6):
        self.theta_hat = np.array(theta0, dtype=float)
        self.theta_bar = self.theta_hat.copy()
        self.t = 0
        d = self.theta_hat.size
        self.S, self.V = np.zeros((d, d)), np.zeros((d, d))
        self.gamma1, self.alpha = gamma1, alpha

    @property
    def d(self):
        return self.theta_hat.size

    def update(self, features, subset, ordering):
        self.t += 1
        grad, _ = grad_and_hessian(self.theta_hat, features, subset, ordering)
        self.theta_hat = self.theta_hat + self.gamma1 * self.t ** (-self.alpha) * grad
        self.theta_bar = ((self.t - 1) * self.theta_bar + self.theta_hat) / self.t
        grad, hess = grad_and_hessian(self.theta_bar, features, subset, ordering)
        self.S += hess
        self.V += np.outer(grad, grad)

    def passes_ridge_test(self):
        return bool(np.linalg.eigvalsh(self.S / self.t).max() < -RIDGE)

    def covariance(self):
        S = self.S / self.t
        if not self.passes_ridge_test():
            S = S - RIDGE * np.eye(self.d)
        S_inv = np.linalg.inv(S)
        sigma = S_inv @ (self.V / self.t) @ S_inv / self.t
        return (sigma + sigma.T) / 2

    def widths(self, features, omega):
        """Each arm's width, from the operator-norm definition (zero before any update)."""
        if self.t == 0 or omega == 0:
            return np.zeros(features.shape[1])
        eigenvalues, vectors = np.linalg.eigh(self.covariance())
        root = (vectors * np.sqrt(np.maximum(eigenvalues, 0.0))) @ vectors.T
        log_t = math.log(self.t)
        bracket = 2 * log_t + self.d + 2 * math.sqrt(self.d * log_t)
        out = np.empty(features.shape[1])
        for i, x in enumerate(features.T):
            M = root @ (math.exp(2 * (self.theta_bar @ x)) * np.outer(x, x)) @ root
            out[i] = omega * math.sqrt(bracket * np.abs(np.linalg.eigvalsh(M)).max())
        return out


def best_subset(scores, k):
    """The k-subset of largest total score, by trying every subset (ties: the first found)."""
    return max(combinations(range(scores.size), k), key=lambda s: scores[list(s)].sum())
