"""Teacher-forced checks of CPPL against a reference learner written from the formulas.

A wrapping policy records one ``CPPLPolicy`` run through ``run_repetition``:
each round's context, the state the policy chose from, its subset, the
feedback and the state after the update.  The recorded stream is then
replayed into ``reference.ReferenceLearner``, which shares no code with the
package's estimator, likelihood or policies.  Every round the two must
agree on theta_bar (1e-9 relative to its largest entry); on the widths
(1e-8 relative, per arm) whenever the reference's ridge test passes; and on
the choice whenever the reference's k-th and (k+1)-th scores are more than
1e-9 apart, relative.  omega = 1 runs take the carried inverse once the
warm-up ends; omega = 0 runs keep the fresh curvature, whose widths are
compared too.
"""

import numpy as np
import pytest

from preselect import (
    CPPLPolicy, ExperimentConfig, Policy, WinnerFeedback, confidence_widths, run_repetition,
)
from reference import ReferenceLearner, best_subset


class Recorder(Policy):
    """Plays ``inner``'s choices and keeps, per round, what a replay needs."""

    def __init__(self, inner):
        self.inner = inner
        self.rounds = []

    def _choose(self, context, k):
        decision = self.inner.choose(context, k)
        self.rounds.append({"context": context, "before": self.inner.state,
                            "subset": decision.subset})
        return decision

    def _update(self, feedback, subset, context):
        self.inner.update(feedback, subset, context)
        self.rounds[-1].update(feedback=feedback, after=self.inner.state)


def record_run(mode, d, omega, seed):
    config = ExperimentConfig(policy="cppl", feedback=mode, n=10, d=d, k=4, T=300, reps=1,
                              seed=seed, omega=omega)
    recorder = Recorder(CPPLPolicy(d, np.random.default_rng(seed), omega=omega))
    theta0 = recorder.inner.state.theta_hat.copy()
    run_repetition(config, 0, policy=recorder)
    return config, theta0, recorder.rounds


@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("d", [3, 5, 12])
@pytest.mark.parametrize("mode", ["winner", "ranking"])
def test_a_recorded_run_matches_the_reference_learner(mode, d, omega):
    config, theta0, rounds = record_run(mode, d, omega, seed=d)
    reference = ReferenceLearner(theta0)
    widths_compared = choices_compared = 0
    for t, played in enumerate(rounds, 1):
        features = played["context"].features
        widths = reference.widths(features, 1.0)
        if reference.t and reference.passes_ridge_test():
            np.testing.assert_allclose(
                confidence_widths(played["before"], played["context"], 1.0).widths,
                widths, rtol=1e-8, atol=0, err_msg=f"round {t}")
            widths_compared += 1
        scores = np.exp(reference.theta_bar @ features) + omega * widths
        kth, next_ = np.sort(scores)[::-1][config.k - 1: config.k + 1]
        if kth - next_ > 1e-9 * max(abs(kth), abs(next_)):
            assert played["subset"] == best_subset(scores, config.k), f"round {t}"
            choices_compared += 1
        feedback = played["feedback"]
        ordering = ((feedback.arm,) if isinstance(feedback, WinnerFeedback)
                    else feedback.ranking.ordering)
        reference.update(features, played["subset"], ordering)
        theta_bar = played["after"].theta_bar
        scale = np.abs(reference.theta_bar).max()
        assert np.abs(theta_bar - reference.theta_bar).max() <= 1e-9 * scale, f"round {t}"
    carried = rounds[-1]["after"].S_accum_inv is not None
    assert carried == (omega > 0)  # omega = 1 ran the carried path, omega = 0 the fresh one
    assert widths_compared >= config.T - 50 and choices_compared >= config.T * 0.9
