"""Estimator tests: averaged SGD bookkeeping, covariance, widths, tail bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from preselect import (
    ContextMatrix,
    CPPLPolicy,
    EstimatorState,
    ExperimentConfig,
    Observation,
    WinnerFeedback,
    chi2_tail_bounds,
    chi2_upper_tail_bound,
    confidence_widths,
    contextual_utilities,
    covariance,
    f_tail_bound,
    f_tail_threshold,
    sample_winner,
    sgd_update,
)
from preselect import estimator, likelihood
from preselect.environments import sample_feedback
from preselect.estimator import _RIDGE, _attach_inverse
from preselect.harness import _build_environment, _streams
from preselect.likelihood import hessian_loglik


def winner_obs(rng, d, n, k, theta_star=None):
    """Random winner observation; feedback from the true model when theta_star given."""
    context = ContextMatrix(rng.uniform(size=(d, n)))
    subset = tuple(sorted(rng.choice(n, size=k, replace=False)))
    if theta_star is None:
        winner = int(rng.choice(subset))
    else:
        winner = sample_winner(contextual_utilities(theta_star, context), subset, rng)
    return Observation(feedback=WinnerFeedback(winner), subset=subset, context=context)


def random_state(rng, d, t=7):
    """State with a random PSD score accumulator and negative-definite curvature."""
    A = rng.normal(size=(d, d))
    B = rng.normal(size=(d, d))
    return EstimatorState(
        theta_hat=rng.uniform(size=d),
        theta_bar=rng.uniform(size=d),
        t=t,
        S_accum=-(A @ A.T + 0.5 * np.eye(d)),
        V_accum=B @ B.T,
        gamma1=2.0,
        alpha=0.6,
    )


class TestState:
    def test_init_draws_uniform(self):
        state = EstimatorState.init(4, np.random.default_rng(0))
        assert state.t == 0
        assert np.all((state.theta_hat >= 0) & (state.theta_hat <= 1))
        np.testing.assert_array_equal(state.theta_hat, state.theta_bar)

    def test_rejects_bad_hyperparameters(self, rng):
        with pytest.raises(ValueError):
            EstimatorState.init(3, rng, gamma1=0.0)
        with pytest.raises(ValueError):
            EstimatorState.init(3, rng, alpha=0.5)
        with pytest.raises(ValueError):
            EstimatorState.init(3, rng, alpha=1.0)

    @pytest.mark.parametrize("t", [1.0, 2.5, True])
    def test_rejects_non_integer_update_count(self, rng, t):
        with pytest.raises(ValueError, match=f"^t must be an integer, got {t!r}$"):
            replace(EstimatorState.init(3, rng), t=t)

    def test_stores_a_numpy_update_count_as_int(self, rng):
        state = replace(EstimatorState.init(3, rng), t=np.int64(4))
        assert state.t == 4 and type(state.t) is int

    @pytest.mark.parametrize("build", [EstimatorState.init, CPPLPolicy], ids=["state", "policy"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_gamma1(self, rng, build, value):
        with pytest.raises(ValueError, match=f"gamma1 must be a finite number, got {value}"):
            build(3, rng, gamma1=value)


class TestSgdUpdate:
    def test_singleton_observation_leaves_iterate(self, rng):
        state = EstimatorState.init(3, rng)
        context = ContextMatrix(rng.uniform(size=(3, 4)))
        obs = Observation(feedback=WinnerFeedback(1), subset=(1,), context=context)
        new = sgd_update(state, obs)
        np.testing.assert_allclose(new.theta_hat, state.theta_hat)
        np.testing.assert_allclose(new.theta_bar, new.theta_hat)
        assert new.t == 1

    def test_step_sizes_follow_schedule(self, rng):
        # gamma1=2, alpha=0.6: steps 2 * 1^-0.6 then 2 * 2^-0.6.
        state = EstimatorState.init(2, rng, gamma1=2.0, alpha=0.6)
        from preselect import grad_loglik

        obs1 = winner_obs(rng, 2, 4, 3)
        g1 = grad_loglik(state.theta_hat, obs1)
        s1 = sgd_update(state, obs1)
        np.testing.assert_allclose(s1.theta_hat, state.theta_hat + 2.0 * g1, atol=1e-14)

        obs2 = winner_obs(rng, 2, 4, 3)
        g2 = grad_loglik(s1.theta_hat, obs2)
        s2 = sgd_update(s1, obs2)
        np.testing.assert_allclose(
            s2.theta_hat, s1.theta_hat + 2.0 * 2 ** (-0.6) * g2, atol=1e-14
        )

    def test_running_average_matches_history(self, rng):
        state = EstimatorState.init(3, rng)
        iterates = []
        for t in range(1, 1001):
            state = sgd_update(state, winner_obs(rng, 3, 5, 3))
            iterates.append(state.theta_hat.copy())
            if t in (1, 10, 137, 1000):
                np.testing.assert_allclose(
                    state.theta_bar, np.mean(iterates, axis=0), atol=1e-10
                )

    def test_accumulators_symmetric(self, rng):
        state = EstimatorState.init(3, rng)
        for _ in range(10):
            state = sgd_update(state, winner_obs(rng, 3, 5, 3))
        assert np.max(np.abs(state.S_accum - state.S_accum.T)) < 1e-12
        assert np.max(np.abs(state.V_accum - state.V_accum.T)) < 1e-12
        assert np.linalg.eigvalsh(state.V_accum).min() >= -1e-10

    def test_dimension_mismatch(self, rng):
        state = EstimatorState.init(3, rng)
        with pytest.raises(ValueError):
            sgd_update(state, winner_obs(rng, 4, 5, 3))

    def test_overflowing_average_raises(self, rng):
        # (t - 1) * theta_bar overflows; a NaN or inf estimate is not returned.
        state = replace(EstimatorState.init(2, rng), theta_bar=np.full(2, 1e308), t=4)
        with np.errstate(over="ignore"), pytest.raises(
            OverflowError, match="SGD estimate overflowed; lower gamma1"
        ):
            sgd_update(state, winner_obs(rng, 2, 4, 3))

    def test_longer_run_improves_estimate(self):
        # Consistency smoke: the averaged iterate approaches the hidden parameter.
        theta_star = np.array([0.9, 0.1, 0.5])
        errors = {}
        for T in (2000, 20000):
            rng = np.random.default_rng(77)
            state = EstimatorState.init(3, rng)
            for _ in range(T):
                state = sgd_update(state, winner_obs(rng, 3, 5, 5, theta_star))
            errors[T] = np.linalg.norm(state.theta_bar - theta_star)
        assert errors[20000] < errors[2000]


def reference_ridged(state):
    """The eigenvalue ridge test that the Cholesky rule replaced."""
    return np.min(np.abs(np.linalg.eigvalsh(state.S_accum / state.t))) < _RIDGE


def reference_covariance(state, ridged):
    """Sandwich covariance by ``inv`` with the ridge shift on or off."""
    S = state.S_accum / state.t
    if ridged:
        S = S - _RIDGE * np.eye(state.d)
    S_inv = np.linalg.inv(S)
    sigma = S_inv @ (state.V_accum / state.t) @ S_inv / state.t
    return (sigma + sigma.T) / 2.0


def reference_widths(state, X, omega):
    """Widths by the three-operand einsum and ``exp(2 logit)``."""
    logits = state.theta_bar @ X
    sigma = reference_covariance(state, reference_ridged(state))
    quad = np.maximum(np.einsum("ij,jk,ki->i", X.T, sigma, X), 0.0)
    log_t = math.log(state.t)
    bracket = 2.0 * log_t + state.d + 2.0 * math.sqrt(state.d * log_t)
    return omega * np.sqrt(bracket * np.exp(2.0 * logits) * quad)


def nsd_state(rng, d, t, curvature):
    """State at ``t`` whose normalized curvature is ``-curvature`` (PSD given)."""
    B = rng.normal(size=(d, d))
    return EstimatorState(
        theta_hat=np.zeros(d),
        theta_bar=rng.uniform(-0.5, 0.5, size=d),
        t=t,
        S_accum=-t * curvature,
        V_accum=t * (B @ B.T / d),
        gamma1=2.0,
        alpha=0.6,
    )


def ridge_cases(rng, d):
    """NSD curvatures around the ridge: full rank, rank-deficient, and with
    the smallest eigenvalue of -S/t placed at 0.5 ridge and at 2 ridge."""
    for terms in (d + 3, d - 1, d // 2):  # sums of rank-one Hessian-like terms
        G = rng.normal(size=(terms, d))
        yield G.T @ G / terms
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    for smallest in (0.5 * _RIDGE, 2.0 * _RIDGE):
        eig = rng.uniform(0.5, 2.0, size=d)
        eig[rng.integers(d)] = smallest
        yield (Q * eig) @ Q.T


class TestRidgeRuleReference:
    @pytest.mark.parametrize("d", [2, 5, 80])
    def test_matches_eigenvalue_rule(self, d):
        rng = np.random.default_rng(400 + d)
        decisions = set()
        for curvature in ridge_cases(rng, d):
            state = nsd_state(rng, d, int(rng.integers(1, 500)), curvature)
            ridged = reference_ridged(state)
            decisions.add(ridged)
            sigma = covariance(state)
            want = reference_covariance(state, ridged)
            scale = np.abs(want).max()
            np.testing.assert_allclose(sigma, want, rtol=1e-9, atol=1e-9 * scale)
            # The other decision gives a visibly different matrix (or none),
            # so the match above pins the decision itself.
            try:
                other = reference_covariance(state, not ridged)
            except np.linalg.LinAlgError:
                other = None
            if other is not None and np.all(np.isfinite(other)):
                assert np.abs(other - want).max() > 1e-6 * scale
            X = rng.uniform(size=(d, 7))
            cw = confidence_widths(state, ContextMatrix(X), omega=1.3)
            np.testing.assert_array_equal(cw.utilities, np.exp(state.theta_bar @ X))
            np.testing.assert_allclose(cw.widths, reference_widths(state, X, 1.3), rtol=1e-9)
        assert decisions == {True, False}

    @pytest.mark.parametrize("d", [5, 80])
    def test_carried_inverse_matches_eigenvalue_rule(self, d, monkeypatch):
        # States carrying W = inv(S_accum), with the smallest eigenvalue of
        # -S/t at 0.5 ridge (the test fails: fresh inv of the shifted S), at
        # 1.2 ridge next to one at 1.3 ridge (||W||_F t ridge > 1, so the
        # test runs and passes: t W) and at 2 ridge (the norm bound skips the
        # test: t W), plus a well-conditioned full-rank case.
        calls = {"cholesky": 0, "inv": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np.linalg, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(500 + d)
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        G = rng.normal(size=(d + 3, d))
        cases = [(G.T @ G / (d + 3), (0, 0))]
        for smallest, expected_calls in (
            ((0.5,), (1, 1)), ((1.2, 1.3), (1, 0)), ((2.0,), (0, 0)),
        ):
            eig = rng.uniform(0.5, 2.0, size=d)
            eig[: len(smallest)] = np.array(smallest) * _RIDGE
            cases.append(((Q * eig) @ Q.T, expected_calls))
        # The carried state holds W alone; the references read the known
        # curvature from the fresh state it was built from.
        for curvature, expected_calls in cases:
            known = nsd_state(rng, d, int(rng.integers(1, 500)), curvature)
            state = replace(known, S_accum=None, S_accum_inv=np.linalg.inv(known.S_accum))
            calls.update(cholesky=0, inv=0)
            sigma = covariance(state)
            assert (calls["cholesky"], calls["inv"]) == expected_calls
            want = reference_covariance(known, reference_ridged(known))
            scale = np.abs(want).max()
            np.testing.assert_allclose(sigma, want, rtol=1e-9, atol=1e-9 * scale)
            X = rng.uniform(size=(d, 7))
            cw = confidence_widths(state, ContextMatrix(X), omega=1.3)
            np.testing.assert_allclose(cw.widths, reference_widths(known, X, 1.3), rtol=1e-9)


class TestCarriedInverse:
    """CPPL at d=80 carries inv(S_accum) by Woodbury steps; check every round.

    Once carried, the state holds no ``S_accum``, so the oracle is the sum
    of the Hessians at each round's average, accumulated here.
    """

    @pytest.mark.parametrize("feedback", ["winner", "ranking"])
    def test_long_run_tracks_inverse_and_ridge_rule(self, feedback):
        config = ExperimentConfig(n=20, d=80, k=5, T=1000, reps=1, seed=21, feedback=feedback)
        rep_seed, policy_rng, feedback_rng, setup_rng = _streams(config.seed, 0)
        env = _build_environment(config, rep_seed, setup_rng, None)
        policy = CPPLPolicy(config.d, policy_rng)
        eye = np.eye(config.d)
        S_ref = np.zeros((config.d, config.d))
        carried = 0
        for t in range(1, config.T + 1):
            context, utils = env.round(t)
            subset = policy.choose(context, config.k).subset
            feedback_t = sample_feedback(utils, subset, feedback, feedback_rng)
            policy.update(feedback_t, subset, context)
            state = policy.state
            obs = Observation(feedback=feedback_t, subset=subset, context=context)
            S_ref += hessian_loglik(state.theta_bar, obs)
            try:
                np.linalg.cholesky(-S_ref / t - _RIDGE * eye)
                ridged = False
            except np.linalg.LinAlgError:
                ridged = True
            if state.S_accum_inv is not None:
                carried += 1
                assert state.S_accum is None
                want = np.linalg.inv(S_ref)
                err = np.abs(state.S_accum_inv - want).max()
                assert err <= 1e-9 * np.abs(want).max(), (t, err)
            else:
                assert ridged, t  # the inverse is attached once the test passes
                np.testing.assert_array_equal(state.S_accum, S_ref)
            known = replace(state, S_accum=S_ref, S_accum_inv=None)
            want = reference_covariance(known, ridged)
            np.testing.assert_allclose(
                covariance(state), want, rtol=1e-9, atol=1e-9 * np.abs(want).max()
            )
            cw = confidence_widths(state, context, policy.omega)
            np.testing.assert_allclose(
                cw.widths, reference_widths(known, context.features, policy.omega), rtol=1e-9
            )
        assert carried > 0.9 * config.T

    def test_state_holds_exactly_one_curvature_form(self, rng):
        fresh = random_state(rng, 3)
        W = np.linalg.inv(fresh.S_accum)
        with pytest.raises(ValueError, match="exactly one of S_accum and S_accum_inv"):
            replace(fresh, S_accum_inv=W)
        with pytest.raises(ValueError, match="exactly one of S_accum and S_accum_inv"):
            replace(fresh, S_accum=None)
        with pytest.raises(ValueError, match="S_accum_inv and V_accum must be d x d"):
            replace(fresh, S_accum=None, S_accum_inv=np.eye(4))
        carried = replace(fresh, S_accum=None, S_accum_inv=W)
        assert carried.S_accum is None
        np.testing.assert_allclose(covariance(carried), covariance(fresh), rtol=1e-9)

    def test_carried_update_makes_two_stage_passes_and_no_hessian(self, rng, monkeypatch):
        d = 6
        fresh = random_state(rng, d)
        carried = replace(fresh, S_accum=None, S_accum_inv=np.linalg.inv(fresh.S_accum))
        obs = winner_obs(rng, d, 8, 4)
        computed, passes = [], []

        def counted_normalizers(logits, _fn=likelihood._suffix_log_normalizers):
            computed.append(logits)  # one call per computed stage pass
            return _fn(logits)

        def recorded_grad(theta, obs, _fn=estimator.grad_loglik):
            before = obs._pass
            grad = _fn(theta, obs)
            if obs._pass is not before:
                passes.append(np.array(theta))
            return grad

        def no_hessian(*args):
            raise AssertionError("a carried update formed a Hessian")

        monkeypatch.setattr(likelihood, "_suffix_log_normalizers", counted_normalizers)
        monkeypatch.setattr(estimator, "grad_loglik", recorded_grad)
        monkeypatch.setattr(estimator, "hessian_loglik", no_hessian)
        new = sgd_update(carried, obs)
        assert len(computed) == len(passes) == 2
        np.testing.assert_array_equal(passes[0], carried.theta_hat)
        np.testing.assert_array_equal(passes[1], new.theta_bar)
        assert new.S_accum is None and new.S_accum_inv is not None

    def test_carried_widths_form_no_covariance(self, rng, monkeypatch):
        d = 6
        fresh = random_state(rng, d)
        carried = replace(fresh, S_accum=None, S_accum_inv=np.linalg.inv(fresh.S_accum))
        context = ContextMatrix(rng.uniform(size=(d, 9)))
        want = confidence_widths(fresh, context, omega=1.0)

        def no_covariance(state):
            raise AssertionError("carried widths formed the d x d covariance")

        monkeypatch.setattr(estimator, "covariance", no_covariance)
        cw = confidence_widths(carried, context, omega=1.0)
        np.testing.assert_array_equal(cw.utilities, want.utilities)
        np.testing.assert_allclose(cw.widths, want.widths, rtol=1e-9)

    def test_internal_steps_do_not_revalidate(self, monkeypatch):
        # Every check runs where a state is built from outside; the
        # estimator's own steps advance a checked state without them.
        rng = np.random.default_rng(3)
        state = EstimatorState.init(4, rng)
        observations = [winner_obs(rng, 4, 6, 3) for _ in range(8)]
        checks = []
        original = EstimatorState.__post_init__
        monkeypatch.setattr(EstimatorState, "__post_init__",
                            lambda self: checks.append(1) or original(self))
        for obs in observations:
            state = sgd_update(state, obs)
        state = _attach_inverse(state)
        assert state.S_accum_inv is not None
        state = sgd_update(state, observations[0])
        assert checks == []


class TestCovariance:
    def test_requires_an_update(self, rng):
        with pytest.raises(RuntimeError):
            covariance(EstimatorState.init(3, rng))

    def test_zero_scores_give_zero_matrix(self, rng):
        state = EstimatorState.init(2, rng)
        context = ContextMatrix(rng.uniform(size=(2, 3)))
        obs = Observation(feedback=WinnerFeedback(0), subset=(0,), context=context)
        state = sgd_update(state, obs)
        np.testing.assert_allclose(covariance(state), 0.0, atol=1e-15)

    def test_diagonal_closed_form(self, rng):
        # Hand oracle: diagonal S_accum and V_accum with t=2 give
        # sigma_ii = V_accum_ii / S_accum_ii^2 = (0.5/4, 2/16).
        state = EstimatorState(
            theta_hat=np.zeros(2),
            theta_bar=np.zeros(2),
            t=2,
            S_accum=np.diag([-2.0, -4.0]),
            V_accum=np.diag([0.5, 2.0]),
            gamma1=2.0,
            alpha=0.6,
        )
        np.testing.assert_allclose(
            covariance(state), np.diag([0.125, 0.125]), atol=1e-12
        )

    def test_symmetric_psd(self, rng):
        for _ in range(20):
            sigma = covariance(random_state(rng, 4))
            assert np.max(np.abs(sigma - sigma.T)) < 1e-12
            assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    def test_ridge_handles_singular_curvature(self, rng):
        state = EstimatorState(
            theta_hat=np.zeros(2),
            theta_bar=np.zeros(2),
            t=1,
            S_accum=np.diag([-1.0, 0.0]),  # singular without the ridge
            V_accum=np.eye(2),
            gamma1=2.0,
            alpha=0.6,
        )
        sigma = covariance(state)
        assert np.all(np.isfinite(sigma))


class TestConfidenceWidths:
    def test_requires_an_update(self, rng):
        state = EstimatorState.init(2, rng)
        with pytest.raises(RuntimeError):
            confidence_widths(state, ContextMatrix(rng.uniform(size=(2, 3))), 1.0)

    def test_bracket_reduces_to_d_at_t_one(self, rng):
        state = random_state(rng, 3, t=1)
        context = ContextMatrix(rng.uniform(size=(3, 4)))
        cw = confidence_widths(state, context, omega=1.0)
        sigma = covariance(state)
        for i in range(4):
            x = context.features[:, i]
            info = math.exp(2 * x @ state.theta_bar) * (x @ sigma @ x)
            assert cw.widths[i] == pytest.approx(math.sqrt(3 * info), rel=1e-12)

    def test_zero_covariance_gives_zero_widths(self, rng):
        state = EstimatorState(
            theta_hat=np.zeros(2),
            theta_bar=np.zeros(2),
            t=3,
            S_accum=np.diag([-3.0, -3.0]),
            V_accum=np.zeros((2, 2)),
            gamma1=2.0,
            alpha=0.6,
        )
        cw = confidence_widths(state, ContextMatrix(np.ones((2, 3))), omega=1.0)
        np.testing.assert_allclose(cw.widths, 0.0, atol=1e-15)

    def test_closed_form_matches_eigen_decomposition(self):
        # Oracle: operator norm of Sigma^(1/2) M Sigma^(1/2) via eigh.
        rng = np.random.default_rng(55)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            state = random_state(rng, d, t=int(rng.integers(1, 50)))
            context = ContextMatrix(rng.uniform(size=(d, 6)))
            cw = confidence_widths(state, context, omega=1.0)
            sigma = covariance(state)
            evals, evecs = np.linalg.eigh(sigma)
            root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0))) @ evecs.T
            log_t = math.log(state.t)
            bracket = 2 * log_t + d + 2 * math.sqrt(d * log_t)
            for i in range(context.n):
                x = context.features[:, i]
                M = math.exp(2 * x @ state.theta_bar) * np.outer(x, x)
                op_norm = np.linalg.eigvalsh(root @ M @ root).max()
                expected = math.sqrt(bracket * max(op_norm, 0.0))
                assert cw.widths[i] == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_widths_scale_linearly_in_omega(self, rng):
        state = random_state(rng, 3)
        context = ContextMatrix(rng.uniform(size=(3, 5)))
        w1 = confidence_widths(state, context, omega=1.0).widths
        w2 = confidence_widths(state, context, omega=2.0).widths
        np.testing.assert_array_equal(w2, 2.0 * w1)

    def test_overflow_raises(self, rng):
        # Logits of 1000 overflow the utilities themselves.
        state = replace(random_state(rng, 2), theta_bar=np.ones(2))
        context = ContextMatrix(np.full((2, 3), 500.0))
        with pytest.raises(OverflowError):
            confidence_widths(state, context, omega=1.0)

    def test_context_dimension_must_match_state(self, rng):
        state = random_state(rng, 3)
        with pytest.raises(ValueError, match="theta has dimension 3, context expects 4"):
            confidence_widths(state, ContextMatrix(rng.uniform(size=(4, 5))), omega=1.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_non_finite_omega_is_a_value_error(self, rng, omega):
        # A bad width scale is a bad input, not an overflow of the arithmetic.
        state = random_state(rng, 2)
        with pytest.raises(ValueError, match=f"omega must be a finite number, got {omega}"):
            confidence_widths(state, ContextMatrix(rng.uniform(size=(2, 3))), omega=omega)

    def test_large_finite_logits_give_finite_widths(self, rng):
        # Logit 400: exp(2 * 400) overflows, but v_hat = exp(400) and the
        # width v_hat * sqrt(bracket * x^T Sigma x) are finite.
        state = replace(random_state(rng, 2), theta_bar=np.array([400.0, 0.0]))
        x = np.array([1.0, 0.2])
        cw = confidence_widths(state, ContextMatrix(x[:, None]), omega=1.0)
        log_t = math.log(state.t)
        bracket = 2 * log_t + 2 + 2 * math.sqrt(2 * log_t)
        v_hat = math.exp(400.0)
        assert cw.utilities[0] == pytest.approx(v_hat, rel=1e-12)
        expected = v_hat * math.sqrt(bracket * (x @ covariance(state) @ x))
        assert math.isfinite(expected)
        assert cw.widths[0] == pytest.approx(expected, rel=1e-12)


class TestTailBounds:
    def test_threshold_spot_values(self):
        assert f_tail_threshold(1, 0.0) == pytest.approx(4.0 / 3.0)
        assert f_tail_threshold(4, 1.0) == pytest.approx(4.0 * (4 + 4 + 2) / 12.0)
        assert f_tail_threshold(10, 2.0) == pytest.approx(
            4.0 * (10 + 2 * math.sqrt(20) + 4) / 30.0
        )

    def test_bound_value_and_monotonicity(self):
        assert f_tail_bound(10**9, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert f_tail_bound(50, 1.0) > f_tail_bound(50, 2.0)
        assert f_tail_bound(50, 1.0) > f_tail_bound(100, 1.0)

    def test_chi2_bounds_spot_values(self):
        upper, conc = chi2_tail_bounds(20, 0.4)
        assert upper == pytest.approx(math.exp(-0.4))
        assert conc == pytest.approx(math.exp(-3 * 20 * 0.16 / 16))
        both_one = chi2_tail_bounds(5, 0.0)
        assert both_one == (1.0, 1.0)

    @pytest.mark.parametrize("bound, name", [
        (f_tail_threshold, "d1"), (f_tail_bound, "d2"),
        (chi2_upper_tail_bound, "d"), (chi2_tail_bounds, "d"),
    ])
    @pytest.mark.parametrize("d, x", [(0, 0.1), (3, -0.1), (3, math.nan)])
    def test_every_bound_rejects_bad_arguments(self, bound, name, d, x):
        with pytest.raises(ValueError, match=rf"^need {name} >= 1 and x >= 0"):
            bound(d, x)

    def test_chi2_concentration_domain(self):
        with pytest.raises(ValueError):
            chi2_tail_bounds(5, 0.5)
        # The upper-tail form stays valid for any nonnegative x.
        assert chi2_upper_tail_bound(5, 2.0) == pytest.approx(math.exp(-2.0))

    def test_f_tail_bound_holds_monte_carlo(self):
        # Oracle: F(d1, d2) samples as a ratio of chi-squares.
        rng = np.random.default_rng(8)
        d1, d2, x, draws = 5, 50, 1.0, 10**6
        samples = (rng.chisquare(d1, draws) / d1) / (rng.chisquare(d2, draws) / d2)
        tail = np.mean(samples >= f_tail_threshold(d1, x))
        se = math.sqrt(tail * (1 - tail) / draws)
        assert tail <= f_tail_bound(d2, x) + 3 * se

    def test_chi2_first_bound_holds_monte_carlo(self):
        rng = np.random.default_rng(9)
        d, x, draws = 10, 2.0, 10**6
        samples = rng.chisquare(d, draws)
        tail = np.mean(samples - d >= 2 * math.sqrt(d * x) + 2 * x)
        se = math.sqrt(tail * (1 - tail) / draws)
        assert tail <= chi2_upper_tail_bound(d, x) + 3 * se


def state_with(**changes):
    fields = dict(theta_hat=np.zeros(3), theta_bar=np.zeros(3), t=4, S_accum=-np.eye(3),
                  V_accum=np.eye(3), gamma1=2.0, alpha=0.6)
    return EstimatorState(**{**fields, **changes})


@pytest.mark.parametrize("build, error, message", [
    (lambda: state_with(theta_bar=np.zeros(2)), ValueError,
     "theta_hat and theta_bar must have equal dimension"),
    (lambda: state_with(t=-1), ValueError, "update counter must be nonnegative"),
    # Utilities of 1 and a finite bracket: only the width product overflows.
    (lambda: confidence_widths(state_with(), ContextMatrix(np.ones((3, 4))), 1e308),
     OverflowError, "confidence widths overflowed; rescale the features"),
], ids=["theta-dimensions", "negative-t", "widths-overflow"])
def test_estimator_inputs_are_rejected(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
