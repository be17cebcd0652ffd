"""Each round's work is computed once: held stage passes, unchecked world rounds
and values built from checked values without rerunning the checks.

The fast paths must give the bits of the paths they replace: a held stage
pass the bits of a fresh one, a world's unchecked round the values of the
checked constructors, and the cheaper regret and symmetrization the bits
of their plain formulas.
"""

import dataclasses

import numpy as np
import pytest

from preselect import (
    AggregatedResult,
    AlgoSelectEnvironment,
    ContextMatrix,
    CPPLPolicy,
    EpsilonGreedyPolicy,
    ExperimentConfig,
    Observation,
    Ranking,
    RankingFeedback,
    RuntimeTable,
    SyntheticEnvironment,
    SyntheticScenario,
    UtilityVector,
    WinnerFeedback,
    contextual_utilities,
    grad_loglik,
    hessian_loglik,
    instant_regret,
    loglik,
    prob_partial_ranking,
    run_experiment,
    run_repetition,
    sample_partial_ranking,
)
from preselect import estimator, likelihood, plackett_luce
from preselect.likelihood import _stage_pass, _symmetrize
from preselect.plackett_luce import _suffix_log_normalizers
from preselect.selfcheck import random_observation
from test_harness import write_algoselect_tables


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fresh(obs):
    """The same observation with no held pass."""
    return Observation(obs.feedback, obs.subset, obs.context)


def uncached(theta, obs):
    """(loglik, grad, hess) by the formulas of an uncached pass, without ``_symmetrize``."""
    feats, logits, lognorm, probs, _ = _stage_pass(theta, fresh(obs))
    m = lognorm.size
    col_sums = probs.sum(axis=0)
    core = probs.T @ probs
    core.flat[:: core.shape[0] + 1] -= col_sums
    hess = feats @ core @ feats.T
    return (
        float(logits[:m].sum() - _suffix_log_normalizers(logits)[:m].sum()),
        feats[:, :m].sum(axis=1) - feats @ col_sums,
        (hess + hess.T) / 2.0,
    )


FUNCTIONS = {"loglik": (loglik, 0), "grad": (grad_loglik, 1), "hess": (hessian_loglik, 2)}


class TestHeldStagePass:
    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    @pytest.mark.parametrize("d", [2, 5, 80])
    def test_every_call_order_gives_the_uncached_bits(self, mode, d):
        rng = np.random.default_rng(70 + d)
        # Hits, misses and returns to an earlier point, on one observation.
        order = ["grad", "hess", "loglik", "grad@1", "hess", "loglik@1", "hess@1", "grad"]
        for _ in range(10):
            size = int(rng.integers(1, 7))
            obs = random_observation(rng, d, size + 3, size, mode)
            thetas = rng.normal(size=(2, d)) / np.sqrt(d)
            for call in order:
                name, _, point = call.partition("@")
                theta = thetas[int(point or 0)]
                fn, index = FUNCTIONS[name]
                got = fn(theta, obs)
                assert same_bits(got, fn(theta, fresh(obs)))
                assert same_bits(got, uncached(theta, obs)[index])

    def test_a_theta_changed_in_place_gets_a_new_pass(self, rng):
        obs = random_observation(rng, 4, 7, 3, "ranking")
        theta = rng.normal(size=4)
        before = grad_loglik(theta, obs), hessian_loglik(theta, obs)
        theta += 0.25
        after = grad_loglik(theta, obs), hessian_loglik(theta, obs)
        assert same_bits(after[0], grad_loglik(theta.copy(), fresh(obs)))
        assert same_bits(after[1], hessian_loglik(theta.copy(), fresh(obs)))
        assert not np.array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_held_arrays_are_read_only_and_results_are_not(self, rng):
        obs = random_observation(rng, 3, 6, 3, "ranking")
        grad = grad_loglik(np.ones(3), obs)
        held = obs._pass[1]
        assert len(held) == 5  # X, logits, lognorm, P and the column sums of P
        for array in held:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        grad[0] = 1.0  # what the public functions return belongs to the caller
        hessian_loglik(np.ones(3), obs)[0, 0] = 1.0

    def test_a_new_point_reuses_the_stage_ordered_columns(self, rng):
        obs = random_observation(rng, 5, 9, 4, "winner")
        grad_loglik(rng.normal(size=5), obs)
        columns = obs._pass[1][0]
        hessian_loglik(rng.normal(size=5), obs)
        assert obs._pass[1][0] is columns

    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    def test_loglik_after_grad_at_the_same_point_computes_no_pass(self, monkeypatch, rng, mode):
        # Count the normalizers wherever a caller looks them up.
        computed = []
        for module in (likelihood, plackett_luce):
            monkeypatch.setattr(module, "_suffix_log_normalizers",
                                lambda logits, _fn=_suffix_log_normalizers:
                                computed.append(1) or _fn(logits))
        obs = random_observation(rng, 5, 8, 4, mode)
        theta = rng.normal(size=5)
        grad_loglik(theta, obs)
        assert len(computed) == 1
        value = loglik(theta, obs)
        assert len(computed) == 1
        assert same_bits(value, loglik(theta, fresh(obs)))

    def test_the_pass_is_no_field_of_the_observation(self, rng):
        obs = random_observation(rng, 3, 5, 2, "winner")
        loglik(np.zeros(3), obs)
        assert obs._pass is not None
        assert "_pass" not in repr(obs)
        assert dataclasses.replace(obs)._pass is None
        with pytest.raises(TypeError):
            Observation(obs.feedback, obs.subset, obs.context, _pass=obs._pass)


def count_work(monkeypatch):
    """Record each computed stage pass and each public likelihood call that
    ``sgd_update`` makes.

    A computed pass calls ``likelihood._suffix_log_normalizers`` once and
    a held one not at all.  A call that leaves a new pass on its
    observation records the point of that pass, and whether the pass
    gathered its columns: it did unless it holds the X held before it.
    """
    computed, passes, calls = [], [], []

    def counted_normalizers(logits, _fn=likelihood._suffix_log_normalizers):
        computed.append(logits)
        return _fn(logits)

    def counted(name, fn):
        def call(theta, obs):
            before = obs._pass
            result = fn(theta, obs)
            calls.append(name)
            if obs._pass is not before:
                gathered = before is None or obs._pass[1][0] is not before[1][0]
                passes.append((np.array(theta), gathered))
            return result
        return call

    monkeypatch.setattr(likelihood, "_suffix_log_normalizers", counted_normalizers)
    monkeypatch.setattr(estimator, "grad_loglik", counted("grad", estimator.grad_loglik))
    monkeypatch.setattr(estimator, "hessian_loglik", counted("hess", estimator.hessian_loglik))
    return computed, passes, calls


POLICIES = {
    "egreedy": lambda d, rng: EpsilonGreedyPolicy(d, rng, epsilon=0.5),
    "maxtheta": lambda d, rng: CPPLPolicy(d, rng, omega=0.0),
    "cppl": lambda d, rng: CPPLPolicy(d, rng, omega=1.0),
}


class TestWorkPerUpdate:
    """Clock-free counts: stage passes computed and public likelihood calls made."""

    @pytest.mark.parametrize("mode", ["winner", "ranking"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_fresh_update_computes_two_stage_passes_over_three_calls(
        self, monkeypatch, policy, mode
    ):
        rng = np.random.default_rng(8)
        d, n, k = 8, 10, 3  # 3 updates add rank <= 6 < d: CPPL stays fresh
        policy = POLICIES[policy](d, rng)
        computed, passes, calls = count_work(monkeypatch)
        for _ in range(3):
            assert policy.state.S_accum_inv is None
            computed.clear()
            passes.clear()
            calls.clear()
            theta_hat = policy.state.theta_hat
            context = ContextMatrix(rng.uniform(size=(d, n)))
            subset = policy.choose(context, k).subset
            feedback = (WinnerFeedback(subset[1]) if mode == "winner"
                        else RankingFeedback(Ranking(subset[::-1])))
            policy.update(feedback, subset, context)
            assert calls == ["grad", "grad", "hess"]
            assert len(computed) == len(passes) == 2
            assert np.array_equal(passes[0][0], theta_hat)
            assert np.array_equal(passes[1][0], policy.state.theta_bar)
            assert [gathered for _, gathered in passes] == [True, False]

    def test_carried_update_gathers_the_columns_once(self, monkeypatch, rng):
        d = 4
        A = rng.normal(size=(d, d))
        carried = estimator.EstimatorState(
            theta_hat=rng.uniform(size=d), theta_bar=rng.uniform(size=d), t=5, S_accum=None,
            S_accum_inv=-np.linalg.inv(A @ A.T + np.eye(d)), V_accum=np.eye(d),
            gamma1=2.0, alpha=0.6,
        )
        obs = random_observation(rng, d, 7, 3, "winner")
        computed, passes, calls = count_work(monkeypatch)
        new = estimator.sgd_update(carried, obs)
        assert new.S_accum_inv is not None
        assert calls == ["grad", "grad"]
        assert len(computed) == 2
        assert np.array_equal(passes[0][0], carried.theta_hat)
        assert np.array_equal(passes[1][0], new.theta_bar)
        assert [gathered for _, gathered in passes] == [True, False]


class TestWorldRounds:
    """Both worlds skip the checks; their values are the checked constructors'."""

    @pytest.mark.parametrize("seed", [0, 13])
    def test_synthetic_round_equals_the_checked_build(self, seed):
        scenario = SyntheticScenario.draw(n=7, d=3, k=2, T=0, seed=seed,
                                          rng=np.random.default_rng(seed))
        env = SyntheticEnvironment(scenario)
        for t in (1, 2, 17, 2000):
            context, utils = env.round(t)
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(3, t))
            want = ContextMatrix(np.random.default_rng(stream).uniform(size=(3, 7)))
            want_utils = contextual_utilities(scenario.theta_star, want)
            assert type(context) is ContextMatrix and type(utils) is UtilityVector
            assert same_bits(context.features, want.features)
            assert same_bits(utils.log_values, want_utils.log_values)
            assert len(utils) == 7 and (context.d, context.n) == (3, 7)

    @pytest.mark.parametrize("lam", [10.0, 3, 0.0])
    def test_algoselect_round_equals_the_checked_build(self, lam):
        rng = np.random.default_rng(21)
        table = RuntimeTable(
            runtimes=rng.uniform(0.0, 2.0, size=(12, 4)),
            instance_features=rng.normal(size=(12, 6)) * 1e3,
            solver_features=rng.normal(size=(4, 4)),
        )
        env = AlgoSelectEnvironment(table, lam=lam, rng=rng)
        for t in (1, 5, 12):
            context, utils = env.round(t)
            row = env.order[t - 1]
            inst = env.table.instance_features[row]
            want = ContextMatrix(np.column_stack(
                [np.kron(inst, solver) for solver in env.table.solver_features]))
            want_utils = UtilityVector(-lam * table.runtimes[row])
            assert type(context) is ContextMatrix and type(utils) is UtilityVector
            assert same_bits(context.features, want.features)
            assert same_bits(utils.log_values, want_utils.log_values)


def count_checks(monkeypatch, cls):
    """Count the runs of ``cls.__post_init__``, which keeps its checks."""
    runs = []
    original = cls.__post_init__

    def counted(self):
        runs.append(1)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return runs


class TestConstructorChecks:
    """Clock-free counts: a value built from checked values skips its constructor's checks,
    which every outside caller still runs."""

    @pytest.mark.parametrize("policy", ["cppl", "mm"])
    def test_a_ranking_round_checks_no_ranking(self, monkeypatch, policy):
        runs = count_checks(monkeypatch, Ranking)
        config = ExperimentConfig(policy=policy, feedback="ranking", n=8, d=3, k=4, T=25, reps=1)
        run_repetition(config, 0)
        assert not runs
        Ranking((2, 0, 1))
        assert len(runs) == 1

    def test_a_sampled_ranking_equals_the_checked_build(self, rng):
        utils = UtilityVector(rng.normal(size=9))
        for subset in [(4,), (0, 8, 3), np.array([7, 1, 5, 2]), tuple(range(9))]:
            ranking = sample_partial_ranking(utils, subset, rng)
            assert type(ranking) is Ranking and ranking == Ranking(ranking.ordering)
            assert type(ranking.ordering) is tuple
            assert all(type(arm) is int for arm in ranking.ordering)
            assert ranking.items == tuple(sorted(int(arm) for arm in subset))

    def test_an_algoselect_experiment_checks_its_table_once_and_no_result(
        self, monkeypatch, tmp_path
    ):
        tables = count_checks(monkeypatch, RuntimeTable)
        results = count_checks(monkeypatch, AggregatedResult)
        runtimes, features = write_algoselect_tables(tmp_path)
        config = ExperimentConfig(environment="algoselect", runtimes=runtimes,
                                  instance_features=features, k=5, T=10, reps=2)
        result = run_experiment(config)
        assert len(tables) == 1 and not results
        assert type(result) is AggregatedResult and result.T == 10
        AggregatedResult(mean_cum_regret=result.mean_cum_regret, stderr=result.stderr,
                         final_regrets=result.final_regrets)
        assert len(results) == 1


class TestSameBitsCheaperForms:
    def test_symmetrize_is_the_plain_mean_with_its_transpose(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 5, 80):
            for scale in (1.0, 1e-310, 1e300):
                A = rng.normal(size=(d, d)) * scale
                before = A.copy()
                assert same_bits(_symmetrize(A), (A + A.T) / 2.0)
                assert same_bits(A, before)

    def test_regret_is_the_plain_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            n = int(rng.integers(2, 25))
            logs = rng.normal(size=n) * rng.choice([1e-3, 1.0, 300.0])
            subset = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False)))
            utils = UtilityVector(logs)
            want = 1.0 - float(np.exp(float(np.max(logs[list(subset)])) - float(np.max(logs))))
            got = instant_regret(utils, subset)
            assert type(got) is float and same_bits(got, want)


class TestRankingDomainRule:
    """One rule, one set of messages, for the probability and the observation."""

    def test_domain_mismatch(self):
        utils = UtilityVector.from_values([1.0, 2.0, 3.0])
        context = ContextMatrix(np.ones((2, 3)))
        message = "^ranking domain must equal the subset$"
        with pytest.raises(ValueError, match=message):
            prob_partial_ranking(utils, (0, 1), Ranking((0, 2)))
        with pytest.raises(ValueError, match=message):
            Observation(RankingFeedback(Ranking((0, 2))), (0, 1), context)

    def test_not_a_ranking(self):
        utils = UtilityVector.from_values([1.0, 2.0, 3.0])
        context = ContextMatrix(np.ones((2, 3)))
        message = r"^ranking must be a Ranking, got \(1, 0\)$"
        with pytest.raises(ValueError, match=message):
            prob_partial_ranking(utils, (0, 1), (1, 0))
        with pytest.raises(ValueError, match=message):
            Observation(RankingFeedback((1, 0)), (0, 1), context)
