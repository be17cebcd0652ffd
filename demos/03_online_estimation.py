"""Averaged-SGD estimation of the hidden utility parameter.

Streams winner observations from a fixed ground-truth model and watches
the running-average iterate converge, the plug-in covariance shrink, and
the per-arm confidence widths settle around the estimated utilities.
"""

import numpy as np

from preselect import (
    ContextMatrix,
    EstimatorState,
    Observation,
    WinnerFeedback,
    confidence_widths,
    contextual_utilities,
    covariance,
    sample_winner,
    sgd_update,
)

rng = np.random.default_rng(2)
d, n, k = 4, 8, 4
theta_star = rng.uniform(size=d)
print("hidden parameter:", np.round(theta_star, 3))

state = EstimatorState.init(d, rng, gamma1=2.0, alpha=0.6)
print("random start:    ", np.round(state.theta_hat, 3))

checkpoints = {100, 500, 2000, 5000}
print(f"\n{'round':>6}  {'|theta_bar - theta*|':>22}  {'trace(cov)':>12}")
for t in range(1, 5001):
    context = ContextMatrix(rng.uniform(size=(d, n)))
    subset = tuple(sorted(rng.choice(n, size=k, replace=False)))
    winner = sample_winner(contextual_utilities(theta_star, context), subset, rng)
    obs = Observation(feedback=WinnerFeedback(winner), subset=subset, context=context)
    state = sgd_update(state, obs)
    if t in checkpoints:
        err = np.linalg.norm(state.theta_bar - theta_star)
        print(f"{t:>6}  {err:>22.4f}  {np.trace(covariance(state)):>12.2e}")

print("\nfinal estimate:  ", np.round(state.theta_bar, 3))

# Confidence widths: an upper confidence bound per arm for a fresh
# context.  By now the widths are small relative to the utilities, so
# the bound mostly follows the estimate.
context = ContextMatrix(rng.uniform(size=(d, n)))
cw = confidence_widths(state, context, omega=1.0)
truth = contextual_utilities(theta_star, context).values
print(f"\n{'arm':>4} {'true util':>10} {'estimate':>10} {'width':>8} {'upper bound':>12}")
for i in range(n):
    print(f"{i:>4} {truth[i]:>10.3f} {cw.utilities[i]:>10.3f} "
          f"{cw.widths[i]:>8.3f} {cw.utilities[i] + cw.widths[i]:>12.3f}")
