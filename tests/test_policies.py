"""Policy tests: selection against brute-force oracles, MM fitting, the interface."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preselect import (
    ContextMatrix,
    CPPLPolicy,
    EpsilonGreedyPolicy,
    EstimatorState,
    ExperimentConfig,
    MMPolicy,
    MMState,
    Ranking,
    RankingFeedback,
    UtilityVector,
    WinnerFeedback,
    confidence_widths,
    cppl_choose,
    mm_fit,
    sample_feedback,
    sample_partial_ranking,
    run_repetition,
    sample_winner,
)
from preselect import harness, policies
from preselect.harness import _build_environment, _build_policy, _streams
from preselect.policies import top_k_subset
from preselect.selfcheck import exhaustive_top_k, random_state, top_k_errors


def fitted_state(rng, d, t=5):
    return random_state(rng, d, t, t + 1)


class TestTopK:
    def test_ties_break_to_lowest_index(self):
        assert top_k_subset(np.ones(6), 3) == (0, 1, 2)

    def test_simple_order(self):
        assert top_k_subset(np.array([5.0, 1.0, 3.0]), 2) == (0, 2)

    def test_matches_brute_force(self):
        # Criterion 6's check at another seed: tie-heavy grids, n <= 10.
        assert top_k_errors(np.random.default_rng(42), max_n=10)["mismatches"] == 0

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_subset(np.ones(4), 4)
        with pytest.raises(ValueError):
            top_k_subset(np.ones(4), 0)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            top_k_subset(np.ones(4), k)


class TestCpplChoose:
    def test_matches_subset_enumeration(self, rng):
        for _ in range(20):
            state = fitted_state(rng, 4)
            context = ContextMatrix(rng.uniform(size=(4, 8)))
            cw = confidence_widths(state, context, omega=1.0)
            decision = cppl_choose(state, context, k=3, omega=1.0)
            assert decision.subset == exhaustive_top_k(cw.utilities + cw.widths, 3)
            assert len(decision.subset) == 3

    def test_omega_zero_equals_max_theta(self, rng):
        for _ in range(50):
            state = fitted_state(rng, 3)
            context = ContextMatrix(rng.uniform(size=(3, 7)))
            k = int(rng.integers(1, 7))
            # Oracle: the exhaustive subset argmax of the utilities alone.
            greedy = exhaustive_top_k(np.exp(state.theta_bar @ context.features), k)
            assert cppl_choose(state, context, k, 0.0).subset == greedy

    def test_before_first_update_uses_utilities_only(self, rng):
        state = EstimatorState.init(3, rng)
        context = ContextMatrix(rng.uniform(size=(3, 6)))
        d1 = cppl_choose(state, context, k=2, omega=1.0)
        d2 = cppl_choose(state, context, k=2, omega=0.0)
        assert d1.subset == d2.subset

    @pytest.mark.parametrize("t", [0, 5])
    def test_greedy_ranking_survives_logits_past_exp_overflow(self, rng, t):
        # exp(800 * 0.99) and exp(800) both overflow to inf; the logits
        # 792 < 800 still order the arms, so arm 1 is the greedy choice.
        state = replace(random_state(rng, 1, t, t + 1), theta_bar=np.array([800.0]))
        context = ContextMatrix(np.array([[0.99, 1.0, 0.5]]))
        assert cppl_choose(state, context, 1, 0.0).subset == (1,)
        if t == 0:
            assert cppl_choose(state, context, 1, 1.0).subset == (1,)

    def test_deterministic(self, rng):
        state = fitted_state(rng, 3)
        context = ContextMatrix(rng.uniform(size=(3, 6)))
        d1 = cppl_choose(state, context, 2, 1.0)
        d2 = cppl_choose(state, context, 2, 1.0)
        assert d1.subset == d2.subset
        cw1 = confidence_widths(state, context, 1.0)
        cw2 = confidence_widths(state, context, 1.0)
        np.testing.assert_array_equal(cw1.utilities + cw1.widths, cw2.utilities + cw2.widths)

    def test_rejects_k_not_below_n(self, rng):
        state = fitted_state(rng, 3)
        context = ContextMatrix(rng.uniform(size=(3, 4)))
        with pytest.raises(ValueError):
            cppl_choose(state, context, 4, 1.0)

    def test_scale_invariance_of_argmax(self, rng):
        state = fitted_state(rng, 3)
        context = ContextMatrix(rng.uniform(size=(3, 6)))
        cw = confidence_widths(state, context, 1.0)
        rescaled = top_k_subset((cw.utilities + cw.widths) * 17.5, 3)
        assert rescaled == cppl_choose(state, context, 3, 1.0).subset


def epsilon_greedy(state, epsilon, rng):
    """An ``EpsilonGreedyPolicy`` holding ``state``, its choice stream ``rng``."""
    policy = EpsilonGreedyPolicy(state.d, np.random.default_rng(0), epsilon=epsilon)
    policy.state, policy.rng = state, rng
    return policy


class TestEpsilonGreedy:
    def test_epsilon_zero_is_greedy(self, rng):
        state = fitted_state(rng, 3)
        context = ContextMatrix(rng.uniform(size=(3, 6)))
        policy = epsilon_greedy(state, 0.0, rng)
        for _ in range(20):
            assert policy.choose(context, 2).subset == cppl_choose(state, context, 2, 0.0).subset

    def test_epsilon_one_uniform_over_subsets(self):
        state = fitted_state(np.random.default_rng(1), 2)
        context = ContextMatrix(np.random.default_rng(2).uniform(size=(2, 5)))
        policy = epsilon_greedy(state, 1.0, np.random.default_rng(17))
        counts = {}
        draws = 100000
        for _ in range(draws):
            subset = policy.choose(context, 2).subset
            counts[subset] = counts.get(subset, 0) + 1
        assert len(counts) == 10
        for subset, count in counts.items():
            assert count / draws == pytest.approx(0.1, abs=0.005)

    def test_rejects_bad_epsilon(self, rng):
        for epsilon in (-0.1, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                EpsilonGreedyPolicy(2, rng, epsilon=epsilon)


def record_all(state, history):
    """Record every (subset, feedback) pair of ``history`` into ``state``."""
    for subset, feedback in history:
        state = state.record(subset, feedback)
    return state


def raw_stages(history):
    """Choice stages (remaining arms, stage winner) of raw (subset, feedback) pairs."""
    stages = []
    for subset, feedback in history:
        if isinstance(feedback, WinnerFeedback):
            stages.append((frozenset(subset), feedback.arm))
        else:
            ordering = feedback.ranking.ordering
            stages.extend((frozenset(ordering[i:]), ordering[i]) for i in range(len(ordering) - 1))
    return stages


def residual_evaluations(monkeypatch):
    """Per ``mm_fit`` call from then on, how many residuals it evaluated (a list)."""
    counts, calls = [], [0]
    stationarity, fit = policies._stationarity, policies.mm_fit

    def counted_stationarity(*args):
        calls[0] += 1
        return stationarity(*args)

    def counted_fit(*args, **kwargs):
        before = calls[0]
        fitted = fit(*args, **kwargs)
        counts.append(calls[0] - before)
        return fitted

    monkeypatch.setattr(policies, "_stationarity", counted_stationarity)
    monkeypatch.setattr(policies, "mm_fit", counted_fit)
    return counts


def random_history(n, T, mode, seed):
    """T random rounds over n arms: a random subset, played in a random order,
    with that order as the ranking or its first arm as the winner."""
    rng = np.random.default_rng(seed)
    for _ in range(T):
        order = [int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        feedback = (WinnerFeedback(order[0]) if mode == "winner"
                    else RankingFeedback(Ranking(order)))
        yield tuple(sorted(order)), feedback


EPSILON = policies._EPSILON


def map_sides(w, stages, n):
    """Both sides of each arm's MAP equation, stage by stage from raw stages:
    wins_i + eps, and w_i (n eps + sum over the stages holding i of 1 / the stage's total)."""
    wins, denominator = np.full(n, EPSILON), np.full(n, n * EPSILON)
    for remaining, winner in stages:
        members = list(remaining)
        wins[winner] += 1
        denominator[members] += 1.0 / w[members].sum()
    return wins, w * denominator


def assert_map_equations(w, stages, n):
    """Every arm meets its MAP equation to 1e-6 relative."""
    np.testing.assert_allclose(*map_sides(w, stages, n)[::-1], rtol=1e-6)


def map_residual(w, stages, n):
    """The largest relative miss of the MAP equations, over the arms in some stage."""
    seen = sorted({i for remaining, _ in stages for i in remaining})
    wins, wD = map_sides(w, stages, n)
    return np.abs(wins / wD - 1)[seen].max()


def log_posterior(w, stages, n):
    """The log-posterior of ``w``, stage by stage, up to a constant, over the arms in some stage."""
    seen = sorted({i for remaining, _ in stages for i in remaining})
    value = EPSILON * np.log(w[seen]).sum() - n * EPSILON * w[seen].sum()
    for remaining, winner in stages:
        value += np.log(w[winner]) - np.log(w[list(remaining)].sum())
    return value


def reference_step(w, stages, n):
    """One step of the stated rule, stage by stage, and which point it took.

    The Newton step solves (diag(w D) - sum over stages of p p^T) delta =
    wins + eps - w D on the arms in some stage, p being the stage's shares
    of its total, and is scaled so that no entry exceeds 2.  Its point is
    taken if it lowers ``map_residual`` or raises ``log_posterior``, and the
    MM point otherwise.  Arms in no stage sit at 1/n.
    """
    seen = sorted({i for remaining, _ in stages for i in remaining})
    wins, wD = map_sides(w, stages, n)
    H = np.diag(wD)
    for remaining, _ in stages:
        p = np.zeros(n)
        p[list(remaining)] = w[list(remaining)] / w[list(remaining)].sum()
        H -= np.outer(p, p)
    delta = np.zeros(n)
    delta[seen] = np.linalg.solve(H[np.ix_(seen, seen)], (wins - wD)[seen])
    delta *= min(1.0, 2.0 / np.abs(delta).max())
    points = {"newton": w * np.exp(delta), "mm": wins * w / wD}
    taken = next(name for name, x in points.items() if name == "mm"
                 or map_residual(x, stages, n) < map_residual(w, stages, n)
                 or log_posterior(x, stages, n) > log_posterior(w, stages, n))
    out = np.full(n, 1 / n)
    out[seen] = points[taken][seen]
    return out, taken


class TestMMFit:
    def test_one_sided_evidence(self):
        state = MMState.uniform(2).record((0, 1), WinnerFeedback(0))
        fitted = mm_fit(state, max_iters=50, tol=1e-12)
        assert fitted.weights[0] > fitted.weights[1]
        assert fitted.weights.sum() == pytest.approx(1.0)

    def test_symmetric_evidence_gives_uniform(self):
        state = MMState.uniform(3)
        for winner in (0, 1, 2):
            state = state.record((0, 1, 2), WinnerFeedback(winner))
        fitted = mm_fit(state)
        np.testing.assert_allclose(fitted.weights, 1 / 3, atol=1e-6)

    def test_unseen_arm_flagged_and_near_uniform_prior(self):
        state = MMState.uniform(3).record((0, 1), WinnerFeedback(0))
        state = state.record((0, 1), WinnerFeedback(1))
        fitted = mm_fit(state)
        assert all(2 not in remaining for remaining in fitted.set_counts)
        # Held at the 1/n prior before the final renormalization.
        assert fitted.weights[2] == pytest.approx(1 / 3, rel=0.1)

    def test_recovers_generating_weights(self):
        # Oracle: generative recovery from 50k winner draws of a known model.
        rng = np.random.default_rng(21)
        true = np.array([0.35, 0.25, 0.2, 0.12, 0.08])
        utils = UtilityVector.from_values(true)
        state = MMState.uniform(5)
        for _ in range(50000):
            subset = tuple(sorted(rng.choice(5, size=3, replace=False)))
            state = state.record(subset, WinnerFeedback(sample_winner(utils, subset, rng)))
        fitted = mm_fit(state, max_iters=500, tol=1e-10)
        assert np.max(np.abs(fitted.weights - true)) < 0.05

    def test_ranking_history_decomposes_into_stages(self):
        rng = np.random.default_rng(22)
        true = np.array([0.5, 0.3, 0.2])
        utils = UtilityVector.from_values(true)
        state = MMState(weights=np.full(3, 1 / 3))
        for _ in range(20000):
            ranking = sample_partial_ranking(utils, (0, 1, 2), rng)
            state = state.record((0, 1, 2), RankingFeedback(ranking))
        fitted = mm_fit(state, max_iters=500, tol=1e-10)
        assert np.max(np.abs(fitted.weights - true)) < 0.05

    def test_order_invariance(self, rng):
        utils = UtilityVector.from_values([1.0, 2.0, 0.7, 1.4])
        history = []
        for _ in range(300):
            subset = tuple(sorted(rng.choice(4, size=2, replace=False)))
            history.append((subset, WinnerFeedback(sample_winner(utils, subset, rng))))
        fit1 = mm_fit(record_all(MMState(weights=np.full(4, 0.25)), history),
                      max_iters=300, tol=1e-12)
        shuffled = list(history)
        rng.shuffle(shuffled)
        fit2 = mm_fit(record_all(MMState(weights=np.full(4, 0.25)), shuffled),
                      max_iters=300, tol=1e-12)
        np.testing.assert_allclose(fit1.weights, fit2.weights, atol=1e-9)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            mm_fit(MMState.uniform(3))

    def test_observation_without_stages_keeps_prior(self):
        # A one-arm ranking carries no choice stage: nothing is learned.
        state = MMState.uniform(4).record((2,), RankingFeedback(Ranking([2])))
        fitted = mm_fit(state)
        np.testing.assert_allclose(fitted.weights, 0.25)

    @staticmethod
    def _check_steps(state, history, n):
        # max_iters counts steps: one step per call, chained three times.
        stages, w, taken = raw_stages(history), state.weights, []
        for _ in range(3):
            w, point = reference_step(w, stages, n)
            taken.append(point)
            state = mm_fit(state, max_iters=1, tol=0.0)
            np.testing.assert_allclose(state.weights, w, rtol=1e-10)
        return taken

    def test_sweeps_match_stage_by_stage_reference(self, rng):
        # Arm 4 never appears (held at 1/n), arm 3 never wins.
        history = [((0, 1, 2), WinnerFeedback(0)), ((1, 3), WinnerFeedback(1)),
                   ((0, 2, 3), RankingFeedback(Ranking([2, 0, 3]))),
                   ((0, 1), WinnerFeedback(1)), ((0, 1, 2), WinnerFeedback(2))]
        state = record_all(MMState(weights=rng.dirichlet(np.ones(5))), history)
        assert self._check_steps(state, history, 5) == ["newton"] * 3

    def test_sweeps_match_plain_map_when_strongly_connected(self, rng):
        # Every arm beats, through some chain, every other.
        history = [((0, 1, 2), WinnerFeedback(0)), ((1, 3), WinnerFeedback(1)),
                   ((0, 2, 3), RankingFeedback(Ranking([2, 0, 3]))), ((3, 4), WinnerFeedback(3)),
                   ((0, 4), WinnerFeedback(4)), ((1, 2), WinnerFeedback(2))]
        state = record_all(MMState(weights=rng.dirichlet(np.ones(5))), history)
        assert self._check_steps(state, history, 5) == ["newton"] * 3

    def test_a_newton_point_that_improves_neither_measure_gives_way_to_mm(self):
        # One stage of arm 0 alone: the Newton point overshoots 1/3 and
        # raises the residual without raising the log-posterior, so the
        # fit takes the MM point.
        history = [((0,), WinnerFeedback(0))]
        state = record_all(MMState(weights=np.array([0.116316837282796, 1 / 3, 1 / 3])), history)
        assert self._check_steps(state, history, 3)[0] == "mm"

    def test_a_newton_point_that_ascends_is_kept_though_the_residual_grows(self):
        # Weights from 0.5 down to 6e-7, then arm 5 beats arm 3.  The first
        # Newton point ascends but raises the residual from 6e-3 to 3e-2;
        # kept, it leads to the maximum in a few more steps.  Tested on
        # the residual alone, that refit alternated Newton and MM points
        # for all 100 steps and stopped 2.5e-3 away.
        history = list(random_history(8, 5, "winner", 447))
        assert history[-1] == ((3, 5), WinnerFeedback(5))
        policy, context = MMPolicy(8), ContextMatrix(np.zeros((1, 8)))
        for subset, feedback in history[:-1]:
            policy.update(feedback, subset, context)
        state = policy.state.record(*history[-1])
        stages = raw_stages(history)
        step, taken = reference_step(state.weights, stages, 8)
        assert taken == "newton"
        assert map_residual(step, stages, 8) > map_residual(state.weights, stages, 8)
        self._check_steps(state, history, 8)
        assert_map_equations(mm_fit(state, max_iters=10).weights, stages, 8)

    def test_fixed_point_is_stationary(self):
        # The MAP equations: wins_i + eps = w_i (n eps + sum over stages
        # containing i of 1 / stage total), evaluated stage by stage.
        rng = np.random.default_rng(23)
        utils = UtilityVector.from_values([1.5, 1.0, 0.6, 1.1, 0.8])
        history = []
        for t in range(400):
            subset = tuple(sorted(rng.choice(5, size=3, replace=False)))
            if t % 2:
                feedback = RankingFeedback(sample_partial_ranking(utils, subset, rng))
            else:
                feedback = WinnerFeedback(sample_winner(utils, subset, rng))
            history.append((subset, feedback))
        w = mm_fit(record_all(MMState.uniform(5), history), max_iters=10000, tol=1e-12).weights
        assert_map_equations(w, raw_stages(history), 5)
        assert w.sum() == pytest.approx(1.0, rel=1e-10)

    def test_fixed_point_without_strong_connection(self):
        # Arms 0-2 beat each other and always beat 3 and 4, which beat each
        # other; arm 5 is never played.  The fit still meets every arm's
        # MAP equation: 3 and 4 fall far below 0-2, by their evidence, and
        # 5 sits at 1/n.
        rng = np.random.default_rng(24)
        utils = UtilityVector.from_values([1.5, 1.0, 0.6, 1.1, 0.8, 1.0])
        history = []
        for t in range(400):
            subset = tuple(sorted(rng.choice(5, size=3, replace=False)))
            ordering = sample_partial_ranking(utils, subset, rng).ordering
            ordering = sorted(ordering, key=lambda i: i >= 3)  # stable: top arms first
            if t % 2:
                feedback = RankingFeedback(Ranking(ordering))
            else:
                feedback = WinnerFeedback(ordering[0])
            history.append((subset, feedback))
        w = mm_fit(record_all(MMState.uniform(6), history), max_iters=10000, tol=1e-12).weights
        assert w[5] == 1 / 6
        assert w[3:5].max() < 1e-4 * w[:3].min()
        assert w.sum() == pytest.approx(1.0, rel=1e-10)
        assert_map_equations(w, raw_stages(history), 6)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), T=st.integers(1, 30), mode=st.sampled_from(["winner", "ranking"]),
           seed=st.integers(0, 2**32 - 1))
    def test_free_weights_solve_the_score_equations(self, n, T, mode, seed):
        # After every refit of a random history, each arm meets its MAP
        # equation: a property of the maximum, whatever reached it.
        policy, history = MMPolicy(n), []
        context = ContextMatrix(np.zeros((1, n)))
        for subset, feedback in random_history(n, T, mode, seed):
            history.append((subset, feedback))
            policy.update(feedback, subset, context)
            assert_map_equations(policy.state.weights, raw_stages(history), n)

    def test_arms_leaving_the_floor_are_fitted_to_the_maximum(self):
        # Arms 2 and 3 fall to the floor in round 5, when arm 0 beats arm 3,
        # and restart from it in round 6, when arm 2 beats arm 0.  A stop on
        # the absolute step ended that refit after one sweep, at
        # (1, 1e-12, 3e-12, 1e-12, 1e-12), and MM played arm 0.
        history = [((2, 3), 3), ((2, 3), 2), ((0, 4), 0), ((2, 3), 2),
                   ((0, 1, 3, 4), 0), ((0, 1, 2), 2)]
        policy, context = MMPolicy(5), ContextMatrix(np.zeros((1, 5)))
        for subset, winner in history:
            policy.update(WinnerFeedback(winner), subset, context)
        np.testing.assert_allclose(policy.state.weights, [0.292, 1e-12, 0.553, 0.154, 1e-12],
                                   atol=1e-3)
        assert policy.choose(context, 1).subset == (2,)

    # A count, not a timer: on the histories the synth-winner (T=500) and
    # synth-ranking (T=150) benchmarks play, no refit reaches the 100-step
    # cap and a refit evaluates at most 4 residuals on average.  Measured:
    # winner 3.49, 3.50 and 3.49 (max 10), ranking 3.83, 3.89 and 3.81
    # (max 17), at seeds 0, 1 and 2.  A typical refit takes two Newton
    # steps: from about 1e-2 to 1e-4, then below 1e-8.
    @staticmethod
    def _check_refits(monkeypatch, feedback, T, seed):
        config = ExperimentConfig(policy="mm", feedback=feedback, n=20, d=5, k=5,
                                  T=T, reps=1, seed=seed)
        evaluations = residual_evaluations(monkeypatch)
        run_repetition(config, 0)
        assert len(evaluations) == T
        assert max(evaluations) < 100  # each step evaluates at least one residual
        assert np.mean(evaluations) <= 4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_winner_refits_settle_well_inside_the_cap(self, monkeypatch, seed):
        self._check_refits(monkeypatch, "winner", 500, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ranking_refits_settle_well_inside_the_cap(self, monkeypatch, seed):
        self._check_refits(monkeypatch, "ranking", 150, seed)

    @pytest.mark.parametrize("subset, feedback", [
        ((0, 1), WinnerFeedback(0)), ((0, 1, 2), RankingFeedback(Ranking((0, 2, 1)))),
    ], ids=["winner", "ranking"])
    def test_extreme_histories_fit_without_a_warning(self, monkeypatch, subset, feedback):
        # Arm 0 wins 20,000 stages and arm 1 is in 20,000 (or 40,000) and
        # wins none; arm 3 is never played.  Warnings are errors here.
        policy, context = MMPolicy(4), ContextMatrix(np.zeros((1, 4)))
        evaluations = residual_evaluations(monkeypatch)
        for _ in range(20_000):
            policy.update(feedback, subset, context)
        w = policy.state.weights
        assert np.isfinite(w).all() and (w > 0).all()
        assert w.sum() == pytest.approx(1.0, rel=1e-6)
        assert w[3] == 1 / 4 and w[1] < 1e-6 * w[0]
        assert max(evaluations) < 100

    @pytest.mark.parametrize("size", [1, 2, 5, 20])
    def test_private_solver_matches_numpy_solve(self, size):
        # The Newton step calls numpy's private gufunc ``solve1`` directly; a
        # numpy release that changes it fails here.  Warnings are errors here.
        rng = np.random.default_rng(size)
        root = rng.normal(size=(size, size))
        matrix = root @ root.T + size * np.eye(size)
        rhs = rng.normal(size=size)
        np.testing.assert_allclose(policies._solve(matrix, rhs), np.linalg.solve(matrix, rhs),
                                   rtol=1e-12, atol=0)


class TestMMState:
    def test_statistics_match_raw_stages(self, rng):
        n = 8
        utils = UtilityVector.from_values(rng.uniform(0.5, 2.0, size=n))
        history = []
        for mode in ("ranking", "winner"):
            for _ in range(300):
                size = int(rng.integers(2, 6))
                subset = tuple(sorted(rng.choice(n, size=size, replace=False)))
                if mode == "ranking":
                    feedback = RankingFeedback(sample_partial_ranking(utils, subset, rng))
                else:
                    feedback = WinnerFeedback(sample_winner(utils, subset, rng))
                history.append((subset, feedback))
        state = record_all(MMState.uniform(n), history)
        stages = raw_stages(history)
        assert len(state.set_counts) == len({remaining for remaining, _ in stages})
        assert sum(state.set_counts.values()) == len(stages)
        expected_wins = np.zeros(n, dtype=int)
        for _, winner in stages:
            expected_wins[winner] += 1
        np.testing.assert_array_equal(state.wins, expected_wins)
        assert state.observations == len(history)

    def test_record_rejects_winner_outside_subset(self):
        with pytest.raises(ValueError):
            MMState.uniform(3).record((0, 1), WinnerFeedback(2))

    def test_record_rejects_ranking_of_other_items(self):
        ranking = Ranking([2, 0])
        with pytest.raises(ValueError):
            MMState.uniform(3).record((0, 1), RankingFeedback(ranking))

    def test_record_leaves_original_state_unchanged(self):
        state = MMState.uniform(3)
        state.record((0, 1), WinnerFeedback(0))
        assert state.observations == 0
        assert not state.set_counts
        np.testing.assert_array_equal(state.wins, 0)

    def test_hand_built_statistics_fit_as_recorded_ones(self):
        # Wins and set counts are all the fit reads: a state built from them
        # fits bit for bit as the state that recorded them, and takes no
        # comparison relation.
        recorded = record_all(MMState.uniform(3), [
            ((0, 1), WinnerFeedback(0)), ((0, 1, 2), RankingFeedback(Ranking((2, 1, 0))))])
        built = MMState(weights=np.full(3, 1 / 3), wins=recorded.wins.copy(),
                        set_counts=dict(recorded.set_counts), observations=2)
        np.testing.assert_array_equal(mm_fit(built).weights, mm_fit(recorded).weights)
        with pytest.raises(TypeError, match="reach"):
            MMState(weights=np.full(2, 0.5), reach=np.eye(2, dtype=bool))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 8), T=st.integers(1, 30), mode=st.sampled_from(["winner", "ranking"]),
           seed=st.integers(0, 2**32 - 1))
    def test_recorded_statistics_pass_the_constructor(self, n, T, mode, seed):
        # Every state that ``record`` builds meets the constructor's rule,
        # and rebuilt through it, fits bit for bit as recorded.
        recorded = record_all(MMState.uniform(n), random_history(n, T, mode, seed))
        rebuilt = MMState(weights=recorded.weights, wins=recorded.wins,
                          set_counts=recorded.set_counts, observations=recorded.observations)
        assert mm_fit(rebuilt).weights.tobytes() == mm_fit(recorded).weights.tobytes()

    def test_policy_update_builds_one_unchecked_state(self, monkeypatch):
        # The constructor's checks run where a state comes from outside;
        # each MM round then builds two new states unchecked, one in
        # ``record`` and one in ``mm_fit``.
        policy = MMPolicy(4)
        built, checks = [], []
        original = policies._unchecked
        monkeypatch.setattr(policies, "_unchecked",
                            lambda *a, **kw: built.append(1) or original(*a, **kw))
        monkeypatch.setattr(MMState, "__post_init__", lambda self: checks.append(1))
        context = ContextMatrix(np.zeros((1, 4)))
        for t in range(5):
            subset = policy.choose(context, 2).subset
            policy.update(WinnerFeedback(subset[t % 2]), subset, context)
        assert len(built) == 10 and not checks


def mm_choice(state, k):
    """The subset an ``MMPolicy`` holding ``state`` chooses."""
    policy = MMPolicy(state.n)
    policy.state = state
    return policy.choose(ContextMatrix(np.zeros((1, state.n))), k).subset


class TestMMChoose:
    def test_uniform_weights_tie_break(self):
        assert mm_choice(MMState.uniform(5), 2) == (0, 1)

    def test_top_k_by_weight(self):
        state = MMState(weights=np.array([0.5, 0.1, 0.4]))
        assert mm_choice(state, 2) == (0, 2)

    def test_matches_enumeration(self, rng):
        w = rng.dirichlet(np.ones(7))
        state = MMState(weights=w)
        assert mm_choice(state, 3) == exhaustive_top_k(w, 3)

    def test_beaten_arms_are_played_by_their_fitted_weight(self):
        # Arm 0 beats everyone; arm 3 also beats arm 1.  Each beaten arm's
        # weight is set by its own evidence: arm 3, with a win, above arm 2,
        # above arm 1, beaten twice.
        state = MMState.uniform(4)
        state = state.record((0, 1, 3), RankingFeedback(Ranking((0, 3, 1))))
        state = mm_fit(state.record((0, 2), WinnerFeedback(0)))
        w = state.weights
        assert w[1] < w[2] < w[3] < w[0]
        assert mm_choice(state, 2) == (0, 3)
        assert mm_choice(state, 3) == (0, 2, 3)

    def test_components_that_share_no_stage_have_one_maximum(self, rng):
        # Arm 4 beats arm 3; arms 0-2 beat each other and share no stage
        # with 3 or 4.  The prior sets each part's scale, so fits from a
        # uniform and from a Dirichlet warm start agree, and the online fit
        # plays arm 3, beaten and never winning, last.
        history = ([((3, 4), 4), ((0, 1), 0)] + [((0, 1), 1)] * 20
                   + [((0, 1, 2), 2), ((1, 2), 1)])
        policy, context = MMPolicy(5), ContextMatrix(np.zeros((1, 5)))
        for subset, winner in history:
            policy.update(WinnerFeedback(winner), subset, context)
        assert policy.choose(context, 4).subset == (0, 1, 2, 4)
        recorded = policy.state
        fits = [mm_fit(MMState(weights=w, wins=recorded.wins, set_counts=recorded.set_counts,
                               observations=recorded.observations), tol=1e-12).weights
                for w in (np.full(5, 0.2), rng.dirichlet(np.ones(5)))]
        np.testing.assert_allclose(fits[0], fits[1], rtol=0, atol=1e-9)

    def test_hand_built_weights_are_played_by_weight_alone(self):
        # Arm 0 beat arm 1, but the choice reads only the weights it is given.
        state = MMState(weights=np.array([0.1, 3.0, 0.2]), wins=np.array([1, 0, 0]),
                        set_counts={(0, 1): 1}, observations=1)
        assert mm_choice(state, 1) == (1,)
        assert mm_choice(state, 2) == (1, 2)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), T=st.integers(1, 30), mode=st.sampled_from(["winner", "ranking"]),
           seed=st.integers(0, 2**32 - 1))
    def test_plays_top_k_by_weight_then_index(self, n, T, mode, seed):
        # After every round of a random history, each k takes the first k
        # arms in (-weight, index) order.
        policy = MMPolicy(n)
        context = ContextMatrix(np.zeros((1, n)))
        for subset, feedback in random_history(n, T, mode, seed):
            policy.update(feedback, subset, context)
            w = policy.state.weights
            ranked = sorted(range(n), key=lambda i: (-w[i], i))
            for k in range(1, n):
                assert policy.choose(context, k).subset == tuple(sorted(ranked[:k]))


class TestPolicyInterface:
    @pytest.mark.parametrize("name", ["cppl", "maxtheta", "egreedy", "mm"])
    def test_holds_only_its_learner_state(self, name):
        # The loop keeps the context and the subset; a round adds no attribute.
        config = ExperimentConfig(policy=name, n=6, d=3, k=2, T=3, reps=1, seed=4)
        rep_seed, policy_rng, feedback_rng, setup_rng = _streams(config.seed, 0)
        env = _build_environment(config, rep_seed, setup_rng, None)
        policy = _build_policy(config, env, policy_rng)
        attributes = set(vars(policy))
        for t in range(1, config.T + 1):
            context, utils = env.round(t)
            subset = policy.choose(context, config.k).subset
            policy.update(sample_feedback(utils, subset, "winner", feedback_rng), subset, context)
        assert set(vars(policy)) == attributes <= {"omega", "state", "epsilon", "rng"}

    @pytest.mark.parametrize("feedback, message", [
        (WinnerFeedback(3), "winner must be a member of the subset"),
        (WinnerFeedback(1.0), r"winner must be an integer, got 1\.0"),
        (RankingFeedback(Ranking((1, 3))), "ranking domain must equal the subset"),
        (RankingFeedback(Ranking((1,))), "ranking domain must equal the subset"),
        (RankingFeedback((1, 0)), r"ranking must be a Ranking, got \(1, 0\)"),
    ], ids=["winner-outside", "winner-float", "ranking-other-arm", "ranking-one-arm",
            "ranking-not-a-ranking"])
    def test_update_rejects_feedback_about_another_subset(self, rng, feedback, message):
        context = ContextMatrix(rng.uniform(size=(2, 4)))
        for policy in (CPPLPolicy(2, rng), MMPolicy(4)):
            state = policy.state
            with pytest.raises(ValueError, match=message):
                policy.update(feedback, (0, 1), context)
            assert policy.state is state

    def test_constructors_reject_a_non_integer_size(self, rng):
        with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.0$"):
            CPPLPolicy(2.0, rng)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 4\.0$"):
            MMPolicy(4.0)

    def test_mm_policy_matches_mm_fit_on_same_history(self, rng):
        utils = UtilityVector.from_values([1.5, 1.0, 0.6, 1.1])
        policy = MMPolicy(4)
        history = []
        for _ in range(120):
            context = ContextMatrix(rng.uniform(size=(2, 4)))
            decision = policy.choose(context, 2)
            winner = sample_winner(utils, decision.subset, rng)
            policy.update(WinnerFeedback(winner), decision.subset, context)
            history.append((decision.subset, WinnerFeedback(winner)))
        reference = record_all(MMState(weights=np.full(4, 0.25)), history)
        # Batch fit from cold start converges to the same fixed point.
        fitted = mm_fit(reference, max_iters=2000, tol=1e-12)
        np.testing.assert_allclose(policy.state.weights, fitted.weights, atol=1e-4)
        np.testing.assert_array_equal(policy.state.wins, reference.wins)
        assert policy.state.set_counts == reference.set_counts

    def test_all_choose_ops_return_k_distinct_members(self, rng):
        for policy in (MMPolicy(6),):
            decision = policy.choose(ContextMatrix(rng.uniform(size=(3, 6))), 3)
            assert len(set(decision.subset)) == 3
            assert all(0 <= i < 6 for i in decision.subset)


class TestCPPLPolicy:
    @pytest.mark.parametrize("omega", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_bad_omega(self, rng, omega):
        with pytest.raises(ValueError, match="omega"):
            CPPLPolicy(3, rng, omega=omega)

    @pytest.mark.parametrize("d", [5, 12, 80])
    def test_only_omega_positive_carries_the_inverse(self, d):
        config = ExperimentConfig(n=20, d=d, k=5, T=40, reps=1, seed=2)
        for make, expected in (
            (lambda rng: CPPLPolicy(d, rng), True),
            (lambda rng: CPPLPolicy(d, rng, omega=0.0), False),
            (lambda rng: EpsilonGreedyPolicy(d, rng), False),
        ):
            policy = make(np.random.default_rng(0))
            run_repetition(config, 0, policy=policy)
            assert (policy.state.S_accum_inv is not None) == expected

    # The reference never attaches the inverse, so it runs the fresh path
    # in every round; carrying it must not change a single choice.
    @pytest.mark.parametrize("d", [5, 12, 80])
    @pytest.mark.parametrize("feedback", ["winner", "ranking"])
    def test_both_inverse_paths_give_the_same_regret(self, d, feedback, monkeypatch):
        config = ExperimentConfig(n=20, d=d, k=5, T=200, reps=1, seed=8, feedback=feedback)
        default = run_repetition(config, 0)
        built = []
        monkeypatch.setattr(policies, "_attach_inverse", lambda state: state)
        monkeypatch.setattr(harness, "_build_policy",
                            lambda *args: built.append(_build_policy(*args)) or built[-1])
        np.testing.assert_array_equal(run_repetition(config, 0), default)
        assert built[0].state.S_accum_inv is None

    def test_confidence_bounds_cover_every_arm(self):
        """Every arm's bound holds: ``|v_hat_i - v_i| <= c_i``.

        Criterion 8's cppl configuration (seed 424242), repetitions 0-3,
        replayed round by round as ``run_repetition`` plays them; checked
        at t = 10, 100, 500, 1000 and 2000 with the state before round
        t's update.  The gate is the measured level, 100% of arms; the
        median width at a checkpoint is 1.0-13.7x the estimated utility.
        Scaling the widths by 0.3 breaks it.
        """
        config = ExperimentConfig(seed=424242, policy="cppl", feedback="winner")
        checkpoints = {10, 100, 500, 1000, 2000}
        uncovered = []
        for rep in range(4):
            rep_seed, policy_rng, feedback_rng, setup_rng = _streams(config.seed, rep)
            env = _build_environment(config, rep_seed, setup_rng, None)
            policy = _build_policy(config, env, policy_rng)
            for t in range(1, config.T + 1):
                context, utils = env.round(t)
                if t in checkpoints:
                    cw = confidence_widths(policy.state, context, config.omega)
                    miss = np.abs(cw.utilities - utils.values) > cw.widths
                    uncovered += [(rep, t, int(i)) for i in np.flatnonzero(miss)]
                subset = policy.choose(context, config.k).subset
                policy.update(sample_feedback(utils, subset, config.feedback, feedback_rng),
                              subset, context)
        assert not uncovered


@pytest.mark.parametrize("fields, message", [
    (dict(weights=[]), "weights must be a nonempty vector"),
    (dict(weights=np.ones((2, 2))), "weights must be a nonempty vector"),
    (dict(weights=[0.5, 0.0]), "weights must be strictly positive and finite"),
    (dict(weights=[0.5, np.inf]), "weights must be strictly positive and finite"),
    (dict(weights=[0.5, 0.5], wins=np.zeros(3)), "wins must have one entry per arm"),
    (dict(weights=[0.5, 0.5], wins=[-4, 0], set_counts={(0, 1): 1}, observations=1),
     "wins must be nonnegative integers"),
    (dict(weights=[0.5, 0.5], wins=[0.5, 0.2], set_counts={(0, 1): 1}, observations=1),
     "wins must be nonnegative integers"),
    (dict(weights=[0.5, 0.5], wins=[1, 0], set_counts={(0, 5): 1}, observations=1),
     "set_counts keys must be sorted tuples of distinct arms below n"),
    (dict(weights=[0.5, 0.5, 0.5], wins=[1, 0, 0], set_counts={(2, 0): 1}, observations=1),
     "set_counts keys must be sorted tuples of distinct arms below n"),
    (dict(weights=[0.5, 0.5], wins=[1, 0], set_counts={(0, 0): 1}, observations=1),
     "set_counts keys must be sorted tuples of distinct arms below n"),
    (dict(weights=[0.5, 0.5], wins=[1, 0], set_counts={(0, 1): -3}, observations=1),
     "set_counts values must be positive integers"),
    (dict(weights=[0.5, 0.5], wins=[1, 0], set_counts={(0, 1): 1.0}, observations=1),
     "set_counts values must be positive integers"),
    (dict(weights=[0.5, 0.5], wins=[3, 0]), "total wins must equal the number of stages"),
    (dict(weights=[0.5, 0.5, 0.5], wins=[0, 0, 1], set_counts={(0, 1): 1}, observations=1),
     "an arm cannot win more stages than hold it"),
    (dict(weights=[0.5, 0.5], observations=-1), "observations must be a nonnegative integer"),
    (dict(weights=[0.5, 0.5], observations=1.0), "observations must be a nonnegative integer"),
    (dict(weights=[0.5, 0.5], wins=[1, 0], set_counts={(0, 1): 1}),
     "observations must be at least 1 once a stage is recorded"),
], ids=["empty", "matrix", "zero", "inf", "wins-shape", "wins-negative", "wins-fraction",
        "key-range", "key-unsorted", "key-repeated", "count-negative", "count-float",
        "wins-without-stages", "wins-outside-their-stages", "observations-negative",
        "observations-float", "stages-without-observations"])
def test_mm_state_inputs_are_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MMState(**fields)
