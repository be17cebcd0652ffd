"""Log-likelihood surface of one observation and its derivatives.

Shows the two feedback scenarios (winner only, full ranking of the
chosen subset), checks the analytic gradient against finite differences,
and demonstrates concavity through the Hessian spectrum.
"""

import numpy as np

from preselect import (
    ContextMatrix,
    Observation,
    Ranking,
    RankingFeedback,
    WinnerFeedback,
    grad_loglik,
    hessian_loglik,
    loglik,
)

rng = np.random.default_rng(1)
d, n = 3, 6
context = ContextMatrix(rng.uniform(size=(d, n)))
subset = (0, 2, 3, 5)

obs_winner = Observation(feedback=WinnerFeedback(3), subset=subset, context=context)
obs_ranking = Observation(
    feedback=RankingFeedback(Ranking((3, 5, 0, 2))),
    subset=subset,
    context=context,
)

theta = rng.uniform(size=d)
print("theta:", np.round(theta, 3))
print(f"loglik, winner feedback : {loglik(theta, obs_winner):+.4f}")
print(f"loglik, ranking feedback: {loglik(theta, obs_ranking):+.4f}")
print("(a ranking carries more information, so it is less probable)")

# Gradient check: central finite differences of the scalar loglik.
for name, obs in [("winner", obs_winner), ("ranking", obs_ranking)]:
    grad = grad_loglik(theta, obs)
    fd = np.empty(d)
    h = 1e-5
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fd[j] = (loglik(theta + e, obs) - loglik(theta - e, obs)) / (2 * h)
    err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
    print(f"\n{name}: analytic grad {np.round(grad, 4)}")
    print(f"{name}: finite diff   {np.round(fd, 4)}   rel err {err:.2e}")

# Both log-likelihoods are concave: the Hessian spectrum is nonpositive,
# which is what makes plain gradient ascent sensible here.
for name, obs in [("winner", obs_winner), ("ranking", obs_ranking)]:
    eigs = np.linalg.eigvalsh(hessian_loglik(theta, obs))
    print(f"\n{name} Hessian eigenvalues: {np.round(eigs, 4)} (all <= 0)")

# Following the gradient increases the likelihood of what was observed.
step = 0.5
before = loglik(theta, obs_ranking)
after = loglik(theta + step * grad_loglik(theta, obs_ranking), obs_ranking)
print(f"\none ascent step: loglik {before:+.4f} -> {after:+.4f}")
