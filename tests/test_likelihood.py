"""Likelihood tests: probability-path equality, finite differences, curvature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from preselect import (
    ContextMatrix,
    Observation,
    Ranking,
    RankingFeedback,
    WinnerFeedback,
    contextual_utilities,
    grad_loglik,
    hessian_loglik,
    loglik,
    prob_partial_ranking,
    prob_top_rank,
)
from preselect.likelihood import _factors, _stage_pass
from preselect.selfcheck import fd_gradient, fd_hessian, random_observation


def reference_terms(theta, obs):
    """Stage-by-stage reference for (loglik, grad, hess).

    Each stage takes a softmax over the arms still available, shifted by
    their own maximum; the chosen arm is then removed.
    """
    feats = obs.context.features
    remaining = list(obs.subset)
    ll, grad, hess = 0.0, np.zeros(theta.size), np.zeros((theta.size, theta.size))
    for arm in obs.stages:
        X = feats[:, remaining]
        logits = theta @ X
        weights = np.exp(logits - logits.max())
        ll += theta @ feats[:, arm] - logits.max() - np.log(weights.sum())
        probs = weights / weights.sum()
        mean = X @ probs
        grad += feats[:, arm] - mean
        hess += np.outer(mean, mean) - (X * probs) @ X.T
        remaining.remove(arm)
    return ll, grad, hess


_TINY = np.finfo(float).tiny


@st.composite
def spread_observations(draw):
    """Observations with logits anywhere in [-700, 700], plus their theta.

    Features are one-hot columns scaled by drawn logits, so theta = 1
    reproduces the drawn logits exactly and a late ranking stage can sit
    ~1400 below the first one.
    """
    size = draw(st.integers(1, 6))
    logits = draw(arrays(np.float64, size, elements=st.floats(-700, 700)))
    dense = draw(arrays(np.float64, (2, size), elements=st.floats(-1, 1)))
    features = np.vstack([np.diag(logits), dense])
    context = ContextMatrix(features)
    subset = tuple(range(size))
    order = list(draw(st.permutations(subset)))
    if draw(st.booleans()):
        feedback = WinnerFeedback(order[0])
    else:
        feedback = RankingFeedback(Ranking(order))
    theta = np.concatenate([np.ones(size), draw(arrays(np.float64, 2, elements=st.floats(-1, 1)))])
    return theta, Observation(feedback=feedback, subset=subset, context=context)


class TestStageKernelReference:
    @settings(max_examples=200, deadline=None)
    @given(spread_observations())
    @example((  # first stage at +700, the remaining stages near -700
        np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
        Observation(
            feedback=RankingFeedback(Ranking((0, 2, 1))),
            subset=(0, 1, 2),
            context=ContextMatrix(np.vstack([np.diag([700.0, -699.0, -700.0]), np.ones((2, 3))])),
        ),
    ))
    def test_matches_stage_loop(self, case):
        theta, obs = case
        # Underflow of a far-below stage weight to 0 is the correct result
        # (the reference underflows the same way); everything else raises.
        with np.errstate(all="raise", under="ignore"):
            got = loglik(theta, obs), grad_loglik(theta, obs), hessian_loglik(theta, obs)
            want = reference_terms(theta, obs)
        # Relative to the size of the summed stage terms; subnormal results
        # carry no relative precision, so the floor is the smallest normal.
        logits = theta @ obs.context.features[:, list(obs.subset)]
        x_max = np.abs(obs.context.features).max()
        stages = len(obs.stages)
        for value, ref, scale in zip(got, want, (
            stages * max(np.abs(logits).max(), 1.0), stages * x_max, stages * x_max**2,
        )):
            assert np.all(np.isfinite(value))
            assert np.max(np.abs(np.asarray(value) - ref)) <= max(1e-12 * scale, _TINY)


class TestObservation:
    def test_winner_must_be_member(self, rng):
        context = ContextMatrix(rng.uniform(size=(2, 4)))
        with pytest.raises(ValueError):
            Observation(feedback=WinnerFeedback(3), subset=(0, 1), context=context)

    def test_ranking_domain_must_match(self, rng):
        context = ContextMatrix(rng.uniform(size=(2, 4)))
        with pytest.raises(ValueError):
            Observation(
                feedback=RankingFeedback(Ranking((0, 2))),
                subset=(0, 1),
                context=context,
            )

    def test_subset_must_index_context(self, rng):
        context = ContextMatrix(rng.uniform(size=(2, 3)))
        with pytest.raises(ValueError):
            Observation(feedback=WinnerFeedback(5), subset=(0, 5), context=context)


class TestLoglik:
    def test_singleton_winner_is_certain(self, rng):
        context = ContextMatrix(rng.uniform(size=(3, 5)))
        obs = Observation(feedback=WinnerFeedback(2), subset=(2,), context=context)
        assert loglik(rng.normal(size=3), obs) == pytest.approx(0.0, abs=1e-14)

    def test_zero_theta_winner_is_uniform(self, rng):
        context = ContextMatrix(rng.uniform(size=(3, 6)))
        obs = Observation(
            feedback=WinnerFeedback(4), subset=(0, 1, 2, 4, 5), context=context
        )
        assert loglik(np.zeros(3), obs) == pytest.approx(np.log(1 / 5), rel=1e-12)

    def test_never_positive(self, rng):
        for _ in range(20):
            mode = "winner" if rng.random() < 0.5 else "ranking"
            obs = random_observation(rng, 3, 6, 4, mode)
            assert loglik(rng.normal(size=3), obs) <= 1e-12

    def test_matches_probability_path(self, rng):
        # Oracle: exp(loglik) must equal the model probability on the same inputs.
        for _ in range(25):
            theta = rng.normal(size=4)
            obs = random_observation(rng, 4, 7, 4, "ranking")
            utils = contextual_utilities(theta, obs.context)
            expected = prob_partial_ranking(utils, obs.subset, obs.feedback.ranking)
            assert np.exp(loglik(theta, obs)) == pytest.approx(expected, rel=1e-10)
        for _ in range(25):
            theta = rng.normal(size=4)
            obs = random_observation(rng, 4, 7, 4, "winner")
            utils = contextual_utilities(theta, obs.context)
            expected = prob_top_rank(utils, obs.subset, obs.feedback.arm)
            assert np.exp(loglik(theta, obs)) == pytest.approx(expected, rel=1e-10)

    def test_pair_ranking_equals_winner_of_top(self, rng):
        # With |S|=2 the second stage contributes nothing.
        context = ContextMatrix(rng.uniform(size=(3, 5)))
        theta = rng.normal(size=3)
        obs_rank = Observation(
            feedback=RankingFeedback(Ranking((3, 1))),
            subset=(1, 3),
            context=context,
        )
        obs_win = Observation(feedback=WinnerFeedback(3), subset=(1, 3), context=context)
        assert loglik(theta, obs_rank) == pytest.approx(loglik(theta, obs_win), rel=1e-12)
        np.testing.assert_allclose(
            grad_loglik(theta, obs_rank), grad_loglik(theta, obs_win), atol=1e-12
        )

    def test_dimension_mismatch(self, rng):
        obs = random_observation(rng, 3, 5, 3, "winner")
        with pytest.raises(ValueError):
            loglik(np.zeros(4), obs)


class TestGradient:
    def test_singleton_winner_zero_gradient(self, rng):
        context = ContextMatrix(rng.uniform(size=(4, 5)))
        obs = Observation(feedback=WinnerFeedback(1), subset=(1,), context=context)
        np.testing.assert_allclose(grad_loglik(rng.normal(size=4), obs), 0.0, atol=1e-14)

    def test_identical_columns_zero_gradient(self, rng):
        col = rng.uniform(size=4)
        context = ContextMatrix(np.tile(col[:, None], (1, 5)))
        theta = rng.normal(size=4)
        obs_w = Observation(feedback=WinnerFeedback(2), subset=(0, 2, 3), context=context)
        np.testing.assert_allclose(grad_loglik(theta, obs_w), 0.0, atol=1e-12)
        obs_r = Observation(
            feedback=RankingFeedback(Ranking((3, 0, 2))),
            subset=(0, 2, 3),
            context=context,
        )
        np.testing.assert_allclose(grad_loglik(theta, obs_r), 0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(202)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            size = int(rng.integers(2, 6))
            n = size + int(rng.integers(0, 3))
            obs = random_observation(rng, d, n, size, mode)
            theta = rng.uniform(size=d)
            grad = grad_loglik(theta, obs)
            fd = fd_gradient(theta, obs)
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8) < 1e-5


class TestHessian:
    def test_singleton_winner_zero_matrix(self, rng):
        context = ContextMatrix(rng.uniform(size=(3, 4)))
        obs = Observation(feedback=WinnerFeedback(0), subset=(0,), context=context)
        np.testing.assert_allclose(hessian_loglik(rng.normal(size=3), obs), 0.0, atol=1e-14)

    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(303)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            size = int(rng.integers(2, 6))
            obs = random_observation(rng, d, size + 1, size, mode)
            theta = rng.uniform(size=d)
            hess = hessian_loglik(theta, obs)
            fd = fd_hessian(theta, obs)
            assert np.linalg.norm(hess - fd) / max(np.linalg.norm(fd), 1e-8) < 1e-4

    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    def test_symmetric_negative_semidefinite(self, mode):
        rng = np.random.default_rng(404)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            size = int(rng.integers(1, 6))
            obs = random_observation(rng, d, size + 2, size, mode)
            hess = hessian_loglik(rng.uniform(size=d), obs)
            assert np.max(np.abs(hess - hess.T)) < 1e-12
            assert np.linalg.eigvalsh(hess).max() <= 1e-10


def means_hessian(theta, obs):
    """Reference Hessian in the means form: ``M M^T - X diag(colsums P) X^T``, M = X P^T."""
    feats, _, _, probs, _ = _stage_pass(theta, obs)
    means = feats @ probs.T
    hess = means @ means.T - (feats * probs.sum(axis=0)) @ feats.T
    return (hess + hess.T) / 2.0


class TestHessianMeansOracle:
    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    @pytest.mark.parametrize("d", [2, 5, 80])
    def test_factored_form_matches_means_form(self, mode, d):
        rng = np.random.default_rng(606 + d)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            obs = random_observation(rng, d, size + 3, size, mode)
            theta = rng.normal(size=d) / np.sqrt(d)
            got, want = hessian_loglik(theta, obs), means_hessian(theta, obs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestFusedGradientAndFactors:
    """``grad_loglik`` then ``_factors``, the carried estimator path's one stage pass."""

    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    def test_matches_grad_and_hessian(self, mode):
        rng = np.random.default_rng(505)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            size = int(rng.integers(1, 6))
            obs = random_observation(rng, d, size + 2, size, mode)
            theta = rng.normal(size=d)
            grad = grad_loglik(theta, obs)
            F, C = _factors(theta, obs)
            assert F is obs._pass[1][0]  # the factors read the gradient's held pass
            fresh = Observation(obs.feedback, obs.subset, obs.context)
            assert np.array_equal(grad, grad_loglik(theta, fresh))
            # Relative to the whole matrix: a single small entry can lose
            # more digits to cancellation in either expression.
            hess = hessian_loglik(theta, fresh)
            assert np.linalg.norm(F @ C @ F.T - hess) <= 1e-12 * np.linalg.norm(hess)


def test_unknown_feedback_type_is_rejected():
    with pytest.raises(ValueError, match="^unknown feedback type: <class 'int'>$"):
        Observation(1, (0, 1), ContextMatrix(np.ones((2, 3))))
