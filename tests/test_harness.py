"""Harness tests: the online loop, aggregation, emission, and the CLI."""

import ast
import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import preselect
from preselect import (
    AggregatedResult,
    AlgoSelectEnvironment,
    CPPLPolicy,
    EpsilonGreedyPolicy,
    EstimatorState,
    ExperimentConfig,
    RuntimeTable,
    Policy,
    RankingFeedback,
    SyntheticEnvironment,
    SyntheticScenario,
    PolicyDecision,
    WinnerFeedback,
    contextual_utilities,
    emit_results,
    load_runtime_table,
    run_experiment,
    run_repetition,
)
from preselect.cli import main as cli_main


class OraclePolicy(Policy):
    """Test-only policy that knows the hidden parameter and always includes the best arm."""

    def __init__(self, theta_star):
        self.theta_star = theta_star

    def _choose(self, context, k):
        utils = contextual_utilities(self.theta_star, context).values
        best = int(np.argmax(utils))
        rest = [i for i in range(context.n) if i != best][: k - 1]
        return PolicyDecision(tuple(sorted([best] + rest)))

    def _update(self, feedback, subset, context):
        pass


class FailingPolicy(Policy):
    """Test-only policy that raises ``ValueError("boom")`` in round ``at_round``."""

    def __init__(self, at_round):
        self.at_round = at_round
        self.rounds = 0

    def _choose(self, context, k):
        self.rounds += 1
        if self.rounds == self.at_round:
            raise ValueError("boom")
        return PolicyDecision(tuple(range(k)))

    def _update(self, feedback, subset, context):
        pass


class FixedSubsetPolicy(Policy):
    """Test-only policy that plays the same, possibly invalid, subset every round."""

    def __init__(self, subset):
        self.subset = subset

    def _choose(self, context, k):
        return PolicyDecision(self.subset)

    def _update(self, feedback, subset, context):
        pass


SETTINGS = ("gamma1", "alpha", "omega", "epsilon", "lam")
HUGE = 10**400  # an integer too large for a float
HALF = np.float32(0.5)


def setting_id(value):
    """A short test id for the values whose default id is long or positional."""
    return "10**400" if value is HUGE else "float32-0.5" if value is HALF else None


CONFIG_KEYS = sorted({f.name for f in dataclasses.fields(ExperimentConfig)} | {"lambda"})
JSON_VALUES = st.one_of(  # every JSON type; huge integers and non-finite floats included
    st.none(), st.booleans(), st.integers(), st.integers(-(10**400), 10**400), st.floats(),
    st.text(st.characters(blacklist_categories=(), blacklist_characters="/"), max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def small_config(**overrides):
    base = dict(n=6, d=3, k=2, T=40, reps=3, seed=11, policy="cppl")
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validates_ranges(self):
        with pytest.raises(ValueError, match="^k must satisfy"):
            ExperimentConfig(k=6, n=6)
        with pytest.raises(ValueError, match="^alpha must be"):
            ExperimentConfig(alpha=0.4)
        with pytest.raises(ValueError, match="^gamma1 must be"):
            ExperimentConfig(gamma1=0.0)
        with pytest.raises(ValueError, match="^epsilon must be"):
            ExperimentConfig(epsilon=1.2)
        with pytest.raises(ValueError, match="^reps must be >= 1$"):
            ExperimentConfig(reps=0)
        with pytest.raises(ValueError, match="^unknown policy"):
            ExperimentConfig(policy="linucb")

    @pytest.mark.parametrize("name, value", [
        ("gamma1", 0.0), ("gamma1", -1.0), ("gamma1", float("inf")),
        ("alpha", 0.5), ("alpha", 1.0), ("alpha", float("nan")),
        ("omega", -1.0), ("omega", float("inf")),
        ("epsilon", -0.1), ("epsilon", 1.5),
        ("lam", -1.0), ("lam", float("inf")),
        *[(name, value) for name in SETTINGS for value in (True, None, "1", HUGE, HALF)],
    ], ids=setting_id)
    def test_config_and_owning_constructor_apply_the_same_rule(self, name, value):
        rng = np.random.default_rng(0)
        table = RuntimeTable(runtimes=rng.uniform(size=(6, 3)),
                             instance_features=rng.uniform(size=(6, 2)),
                             solver_features=rng.uniform(size=(3, 4)))
        owners = {  # each builds the owner and reads back the value it stored
            "gamma1": lambda v: EstimatorState.init(3, rng, gamma1=v).gamma1,
            "alpha": lambda v: EstimatorState.init(3, rng, alpha=v).alpha,
            "omega": lambda v: CPPLPolicy(3, rng, omega=v).omega,
            "epsilon": lambda v: EpsilonGreedyPolicy(3, rng, epsilon=v).epsilon,
            "lam": lambda v: AlgoSelectEnvironment(table, lam=v, rng=rng).lam,
        }
        label = "lambda" if name == "lam" else name
        if value is HALF and name != "alpha":  # in range: both store a Python float
            stored = owners[name](value)
            configured = getattr(ExperimentConfig(**{name: value}), name)
            assert type(stored) is type(configured) is float and stored == configured == 0.5
            return
        with pytest.raises(ValueError, match=f"^{name} must be ") as built:
            owners[name](value)
        with pytest.raises(ValueError, match=f"^{label} must be ") as configured:
            ExperimentConfig(**{name: value})
        assert str(configured.value) == label + str(built.value)[len(name):]

    def test_algoselect_requires_paths(self):
        with pytest.raises(ValueError, match="^algoselect requires"):
            ExperimentConfig(environment="algoselect")

    @pytest.mark.parametrize("d, T, seed", [(0, 5, 0), (3, -1, 0), (3, 5.5, 0), (3, 5, -1)],
                             ids=["0-5", "3--1", "3-5.5", "seed--1"])
    def test_config_and_scenario_apply_the_same_world_size_rule(self, d, T, seed):
        with pytest.raises(ValueError) as built:
            SyntheticScenario(n=6, d=d, k=2, T=T, theta_star=np.full(d, 0.5), seed=seed)
        with pytest.raises(ValueError) as configured:
            ExperimentConfig(n=6, d=d, k=2, T=T, seed=seed)
        assert str(configured.value) == str(built.value)

    def test_algoselect_checks_T_but_not_the_unused_d(self):
        paths = dict(environment="algoselect", runtimes="rt.csv", instance_features="fi.csv")
        ExperimentConfig(d=0, **paths)
        with pytest.raises(ValueError, match="^T must be nonnegative$"):
            ExperimentConfig(T=-1, **paths)

    @pytest.mark.parametrize("field, value", [
        ("out", 5), ("out", None), ("runtimes", 0), ("instance_features", ["fi.csv"]),
        ("solver_features", 1.5), ("out", "x\0.csv"), ("runtimes", "\ud800.csv"),
    ])
    def test_path_fields_must_be_strings(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a path string"):
            ExperimentConfig(**{field: value})


class TestRunRepetition:
    def test_zero_rounds_gives_empty_trace(self):
        assert run_repetition(small_config(T=0), 0).shape == (0,)

    def test_oracle_policy_has_zero_regret(self):
        config = small_config(T=30)
        # The oracle needs this repetition's hidden parameter: recover it
        # from the environment built with the same seed derivation.
        from preselect.harness import _build_environment, _streams

        rep_seed, _, _, setup_rng = _streams(config.seed, 0)
        env = _build_environment(config, rep_seed, setup_rng, None)
        regrets = run_repetition(config, 0, policy=OraclePolicy(env.scenario.theta_star))
        np.testing.assert_array_equal(regrets, 0.0)

    @pytest.mark.parametrize("feedback", ["winner", "ranking"])
    @pytest.mark.parametrize("subset", [(0, 0), (0, 6), (-1, 0)])
    def test_invalid_policy_subset_fails_at_the_sampler(self, feedback, subset):
        # PolicyDecision does not check its subset; the feedback sampler does.
        config = small_config(feedback=feedback, T=3)  # n = 6
        with pytest.raises(RuntimeError, match=r"^round 1: subset members must"):
            run_repetition(config, 0, policy=FixedSubsetPolicy(subset))

    @pytest.mark.parametrize("policy", ["cppl", "maxtheta", "egreedy", "mm"])
    @pytest.mark.parametrize("feedback", ["winner", "ranking"])
    def test_replay_determinism(self, policy, feedback):
        config = small_config(policy=policy, feedback=feedback, T=25)
        np.testing.assert_array_equal(run_repetition(config, 0), run_repetition(config, 0))

    def test_environment_draws_independent_of_policy(self):
        # Identical seeds must yield identical contexts regardless of policy.
        from preselect.harness import _build_environment, _streams

        config_a = small_config(policy="cppl")
        config_b = small_config(policy="mm")
        contexts = {}
        for name, config in (("a", config_a), ("b", config_b)):
            rep_seed, _, _, setup_rng = _streams(config.seed, 1)
            env = _build_environment(config, rep_seed, setup_rng, None)
            contexts[name] = np.stack([env.round(t)[0].features for t in range(1, 11)])
            np.testing.assert_array_equal(env.scenario.theta_star, env.scenario.theta_star)
        np.testing.assert_array_equal(contexts["a"], contexts["b"])

    @pytest.mark.parametrize("feedback", ["winner", "ranking"])
    def test_update_gets_the_feedback_then_the_subset_then_the_context(self, monkeypatch, feedback):
        rounds, decisions, updates = [], [], []

        def recorder(fn, log):
            return lambda owner, *args: log.append(fn(owner, *args)) or log[-1]

        update = Policy.update
        monkeypatch.setattr(SyntheticEnvironment, "round",
                            recorder(SyntheticEnvironment.round, rounds))
        monkeypatch.setattr(Policy, "choose", recorder(Policy.choose, decisions))
        monkeypatch.setattr(Policy, "update",
                            lambda policy, *args: updates.append(args) or update(policy, *args))
        run_repetition(small_config(feedback=feedback, T=4), 0)
        kind = WinnerFeedback if feedback == "winner" else RankingFeedback
        assert len(rounds) == len(decisions) == len(updates) == 4
        for (context, _), decision, args in zip(rounds, decisions, updates):
            assert len(args) == 3 and isinstance(args[0], kind)
            assert args[1] == decision.subset and args[2] is context

    def test_failure_names_the_round(self):
        with pytest.raises(RuntimeError, match=r"^round 3: boom$"):
            run_repetition(small_config(T=10), 0, policy=FailingPolicy(at_round=3))

    def test_algoselect_exhaustion_is_config_error(self, tmp_path):
        rt = tmp_path / "rt.csv"
        fi = tmp_path / "fi.csv"
        rows = [f"i{j},0.{j + 1},0.{j + 2}" for j in range(5)]
        rt.write_text("instance_id,solver_0,solver_1\n" + "\n".join(rows) + "\n")
        feats = [f"i{j}," + ",".join(str((j + a) % 7 / 7) for a in range(4)) for j in range(5)]
        fi.write_text("instance_id,f0,f1,f2,f3\n" + "\n".join(feats) + "\n")
        sf = tmp_path / "sf.csv"
        sf.write_text("alpha,rho,ps,wp\n1,0.5,0.2,0.1\n2,0.6,0.3,0.2\n")
        config = ExperimentConfig(
            environment="algoselect", T=10, k=1, reps=1,
            runtimes=str(rt), instance_features=str(fi), solver_features=str(sf),
        )
        with pytest.raises(ValueError, match="^T=10 exceeds the 5 available instances$"):
            run_repetition(config, 0)


class TestRunExperiment:
    def test_single_repetition_mean_is_trace(self):
        config = small_config(reps=1)
        result = run_experiment(config)
        np.testing.assert_allclose(result.mean_cum_regret, np.cumsum(run_repetition(config, 0)))
        np.testing.assert_array_equal(result.stderr, 0.0)

    def test_aggregate_matches_recomputation(self):
        config = small_config(reps=4, T=30)
        result = run_experiment(config)
        traces = np.stack([np.cumsum(run_repetition(config, r)) for r in range(4)])
        np.testing.assert_allclose(result.mean_cum_regret, traces.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            result.stderr, traces.std(axis=0, ddof=1) / 2.0, atol=1e-12
        )
        np.testing.assert_allclose(result.final_regrets, traces[:, -1], atol=1e-12)
        assert result.mean_cum_regret[-1] == pytest.approx(
            np.mean(traces[:, -1]), abs=1e-12
        )


    def test_algoselect_cppl_reruns_are_byte_identical(self, tmp_path):
        # d = 10 instance features x 4 solver features = 40, so the
        # curvature is singular and the ridge shift fires in early rounds.
        runtimes, features = write_algoselect_tables(tmp_path)
        rng = np.random.default_rng(4)
        env = AlgoSelectEnvironment(load_runtime_table(runtimes, features), lam=10.0, rng=rng)
        assert env.d == 40
        config = ExperimentConfig(
            environment="algoselect", policy="cppl", k=5, T=60, reps=2, seed=3,
            runtimes=runtimes, instance_features=features,
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_experiment(config), first, "csv")
        emit_results(run_experiment(config), second, "csv")
        assert first.read_bytes() == second.read_bytes()

    def test_algoselect_experiment_preprocesses_once(self, tmp_path, monkeypatch):
        # The repetitions share the loaded table and each draws its own order.
        runtimes, features = write_algoselect_tables(tmp_path)
        calls, orders = [], []
        real_preprocess = preselect.environments.preprocess_features
        monkeypatch.setattr(preselect.environments, "preprocess_features",
                            lambda raw: calls.append(1) or real_preprocess(raw))
        real_round = AlgoSelectEnvironment.round
        monkeypatch.setattr(AlgoSelectEnvironment, "round",
                            lambda env, t: (t == 1 and orders.append(env.order)) or real_round(env, t))
        config = ExperimentConfig(
            environment="algoselect", policy="mm", k=5, T=20, reps=3, seed=3,
            runtimes=runtimes, instance_features=features,
        )
        run_experiment(config)
        assert len(calls) == 1
        assert len(orders) == 3 and not np.array_equal(orders[0], orders[1])


def write_algoselect_tables(tmp_path):
    """80 instances, 20 solvers and 10 instance features, as CSV; returns the two paths."""
    rng = np.random.default_rng(4)
    ids = [f"i{j}" for j in range(80)]

    def write(name, header, values):
        rows = [f"{i}," + ",".join(f"{v:.4f}" for v in row) for i, row in zip(ids, values)]
        (tmp_path / name).write_text(",".join(["instance_id", *header]) + "\n"
                                     + "\n".join(rows) + "\n")
        return str(tmp_path / name)

    runtimes = write("rt.csv", [f"solver_{s}" for s in range(20)], rng.uniform(0, 0.5, (80, 20)))
    features = write("fi.csv", [f"f{a}" for a in range(10)], rng.uniform(size=(80, 10)))
    return runtimes, features


class TestEmitResults:
    def _result(self, T=5, reps=3):
        rng = np.random.default_rng(1)
        mean = np.sort(rng.uniform(size=T))
        return AggregatedResult(
            mean_cum_regret=mean,
            stderr=rng.uniform(size=T) * 0.1,
            final_regrets=rng.uniform(size=reps),
            config={"policy": "cppl", "seed": 0},
            wall_time_s=1.23,
        )

    def test_csv_round_trip(self, tmp_path):
        result = self._result()
        out = tmp_path / "res.csv"
        emit_results(result, out, "csv")
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "mean_cum_regret", "stderr"]
        parsed_mean = np.array([float(r[1]) for r in rows[1:]])
        parsed_se = np.array([float(r[2]) for r in rows[1:]])
        np.testing.assert_array_equal(parsed_mean, result.mean_cum_regret)
        np.testing.assert_array_equal(parsed_se, result.stderr)
        sidecar = json.loads((tmp_path / "res.csv.meta.json").read_text())
        np.testing.assert_array_equal(sidecar["final_regrets"], result.final_regrets)
        assert sidecar["config"]["policy"] == "cppl"

    def test_numpy_integer_sizes_run_and_echo_as_json_ints(self, tmp_path):
        sizes = dict(T=5, reps=1, seed=3)
        config = ExperimentConfig(n=np.int64(20), k=np.int64(5), **sizes)
        result = run_experiment(config)
        emit_results(result, tmp_path / "res.csv", "csv")
        sidecar = json.loads((tmp_path / "res.csv.meta.json").read_text())
        assert (sidecar["config"]["n"], sidecar["config"]["k"]) == (20, 5)
        plain = run_experiment(ExperimentConfig(n=20, k=5, **sizes))
        np.testing.assert_array_equal(result.mean_cum_regret, plain.mean_cum_regret)

    def test_empty_result_header_only(self, tmp_path):
        result = AggregatedResult(
            mean_cum_regret=np.zeros(0), stderr=np.zeros(0), final_regrets=np.zeros(2)
        )
        out = tmp_path / "empty.csv"
        emit_results(result, out, "csv")
        assert out.read_text() == "round,mean_cum_regret,stderr\n"

    def test_json_schema_and_round_trip(self, tmp_path):
        result = self._result()
        out = tmp_path / "res.json"
        emit_results(result, out, "json")
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "config", "rounds", "mean_cum_regret", "stderr",
            "final_regrets", "wall_time_s",
        }
        assert doc["rounds"] == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(doc["mean_cum_regret"], result.mean_cum_regret)
        np.testing.assert_array_equal(doc["stderr"], result.stderr)
        assert isinstance(doc["wall_time_s"], float)

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            emit_results(self._result(), tmp_path / "missing" / "res.csv", "csv")


class TestCli:
    def test_synthetic_run_writes_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main([
            "synthetic", "--n", "5", "--d", "2", "--k", "2", "--T", "15",
            "--reps", "2", "--seed", "3", "--policy", "egreedy",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists() and (tmp_path / "r.csv.meta.json").exists()
        assert "egreedy" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "d": 2, "k": 2, "T": 10, "reps": 1,
                                   "policy": "mm", "out": str(tmp_path / "a.csv")}))
        out = tmp_path / "b.json"
        code = cli_main(["synthetic", "--config", str(cfg),
                         "--out", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["policy"] == "mm"
        assert doc["config"]["T"] == 10

    def test_bad_k_exits_one(self, tmp_path):
        code = cli_main(["synthetic", "--n", "4", "--k", "4", "--T", "5",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("field, value", [
        ("T", 5.5), ("reps", 2.0), ("n", 20.0), ("seed", True),
    ])
    def test_non_integer_config_field_exits_one(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5, "reps": 1, field: value}))
        code = cli_main(["synthetic", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("omega", float("nan")), ("omega", float("inf")), ("lambda", float("nan")),
        ("gamma1", float("inf")), ("alpha", float("nan")), ("epsilon", -float("inf")),
        ("omega", "1.0"),
        ("gamma1", 0.0), ("alpha", 0.5), ("alpha", 1.0), ("omega", -1.0), ("epsilon", 1.5),
        ("lambda", -1.0),
    ])
    def test_bad_float_config_field_exits_one(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5, "reps": 1, field: value}))
        code = cli_main(["synthetic", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"configuration error: {field} must be" in capsys.readouterr().err

    def test_ridge_is_no_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5, "reps": 1, "ridge": 1e-6}))
        code = cli_main(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ridge" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--omega", "--lambda"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_flag_exits_one(self, tmp_path, capsys, flag, value):
        code = cli_main(["synthetic", "--T", "5", "--reps", "1", flag, value,
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"{flag[2:]} must be a finite number" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"T": 5, "reps": 1, "gamma1": 1' + "0" * 400 + "}")
        assert cli_main(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: gamma1 must be a finite number, got 1000" in err
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_names_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"T": 5, "reps": 1, "seed": 1' + "0" * 5000 + "}")
        assert cli_main(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert f"configuration error: {cfg}: invalid JSON: " in capsys.readouterr().err

    def test_integer_setting_echoes_as_given(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5, "reps": 1, "gamma1": 2}))
        assert cli_main(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
        assert '"gamma1": 2,' in (tmp_path / "x.csv.meta.json").read_text()

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=JSON_VALUES)
    @example(value="\x00")
    @example(value="\ud800")
    @example(value=10**400)
    def test_any_json_value_for_any_key_exits_cleanly(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        # No round runs: the patched experiment counts its calls and returns
        # an empty result, which is written inside tmp_path (strings hold no "/").
        calls = []
        empty = AggregatedResult(np.zeros(0), np.zeros(0), np.zeros(1))
        monkeypatch.setattr(preselect.cli, "run_experiment",
                            lambda config: calls.append(config) or empty)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        code = cli_main(["synthetic", "--config", "cfg.json"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err
        assert len(calls) == (code == 0)
        if code == 1:
            label = "lambda" if key == "lam" else key
            assert re.search(rf"\b{label}\b", err), err

    def test_loop_failure_names_repetition_and_round(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            preselect.harness, "_build_policy", lambda *args: FailingPolicy(at_round=3)
        )
        code = cli_main(["synthetic", "--T", "10", "--reps", "1",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure: repetition 0 failed: round 3: boom" in err

    @pytest.mark.parametrize("feedback", ["winner", "ranking"])
    @pytest.mark.parametrize("policy", ["egreedy", "maxtheta"])
    def test_overflowing_sgd_estimate_exits_three(self, tmp_path, capsys, policy, feedback):
        args = ["synthetic", "--policy", policy, "--feedback", feedback, "--T", "50",
                "--reps", "1", "--out", str(tmp_path / "x.csv")]
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(args + ["--gamma1", "1e308"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure: repetition 0 failed: round " in err
        assert "SGD estimate overflowed; lower gamma1" in err
        assert not (tmp_path / "x.csv").exists()
        # A large step that keeps the estimate finite still runs.
        assert cli_main(args + ["--gamma1", "1e300"]) == 0

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        code = cli_main(["synthetic", "--T", "5", "--reps", "1", "--seed", "-1",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command, values, field", [
        ("synthetic", {"out": 5}, "out"),
        ("algoselect", {"runtimes": 0, "instance_features": "fi.csv"}, "runtimes"),
        ("algoselect", {"runtimes": "rt.csv", "instance_features": 7}, "instance_features"),
    ])
    def test_non_string_path_in_config_exits_one(
        self, tmp_path, capsys, monkeypatch, command, values, field
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5, "reps": 1, "k": 1, **values}))
        assert cli_main([command, "--config", str(cfg)]) == 1
        assert f"configuration error: {field} must be a path string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("case", ["missing-dir", "out-is-dir", "sidecar-is-dir"])
    def test_unwritable_out_exits_two_before_round_one(self, tmp_path, capsys, monkeypatch, case):
        calls = []
        real = preselect.harness.run_repetition
        monkeypatch.setattr(preselect.harness, "run_repetition",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        out = {"missing-dir": tmp_path / "no" / "such" / "x.csv",
               "out-is-dir": tmp_path, "sidecar-is-dir": tmp_path / "x.csv"}[case]
        bad = tmp_path / "x.csv.meta.json" if case == "sidecar-is-dir" else out
        if case == "sidecar-is-dir":
            bad.mkdir()
        before = sorted(tmp_path.rglob("*"))
        code = cli_main(["synthetic", "--T", "5", "--reps", "2", "--out", str(out)])
        assert code == 2
        assert calls == []
        assert f"i/o error: cannot write {bad}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_file_not_an_object_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = cli_main(["synthetic", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "expected a JSON object" in err

    @pytest.mark.parametrize("flag", [
        "--config", "--runtimes", "--instance-features", "--solver-features",
    ])
    def test_non_utf8_input_file_is_named_before_round_one(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        calls = []
        real = preselect.harness.run_repetition
        monkeypatch.setattr(preselect.harness, "run_repetition",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        (tmp_path / "rt.csv").write_text("instance_id,solver_0,solver_1\ni0,0.1,0.2\n")
        (tmp_path / "fi.csv").write_text("instance_id,f0\ni0,0.5\n")
        (tmp_path / "sf.csv").write_text("alpha,rho,ps,wp\n1,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n")
        (tmp_path / "cfg.json").write_text('{"T": 1, "reps": 1}')
        paths = {"--config": "cfg.json", "--runtimes": "rt.csv",
                 "--instance-features": "fi.csv", "--solver-features": "sf.csv"}
        bad = tmp_path / paths[flag]
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        argv = ["algoselect", "--k", "1", "--out", str(tmp_path / "x.csv")]
        for name, file in paths.items():
            argv += [name, str(tmp_path / file)]
        assert cli_main(argv) == 1
        assert f"configuration error: {bad}: not UTF-8 text" in capsys.readouterr().err
        assert calls == []

    def test_repeated_instance_id_exits_one_before_round_one(self, tmp_path, capsys, monkeypatch):
        # 30 rows over 10 ids, with the two feature rows keyed i0 swapped:
        # the id lists still compare equal, so only a distinct-id rule
        # stops the wrong features from reaching instance i0.
        calls = []
        real = preselect.harness.run_repetition
        monkeypatch.setattr(preselect.harness, "run_repetition",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        ids = [f"i{j % 10}" for j in range(30)]
        rt, fi = tmp_path / "rt.csv", tmp_path / "fi.csv"
        rt.write_text("instance_id,solver_0,solver_1,solver_2\n"
                      + "".join(f"{i},0.{j % 9 + 1},0.2,0.3\n" for j, i in enumerate(ids)))
        feats = [f"{i},{j / 30},{j % 7}" for j, i in enumerate(ids)]
        feats[0], feats[10] = feats[10], feats[0]
        fi.write_text("instance_id,f0,f1\n" + "\n".join(feats) + "\n")
        (tmp_path / "sf.csv").write_text(
            "alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n0.8,0.4,0.6,0.3\n")
        out = tmp_path / "x.csv"
        code = cli_main(["algoselect", "--k", "2", "--T", "5", "--reps", "1",
                         "--runtimes", str(rt), "--instance-features", str(fi),
                         "--solver-features", str(tmp_path / "sf.csv"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"configuration error: {rt}: instance_id 'i0' repeated on lines 2 and 12" in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("T", ["1", "80"])
    @pytest.mark.parametrize("runtime, lam", [("1e308", []), ("1e300", ["--lambda", "1e10"])])
    def test_overflowing_lambda_times_runtime_exits_one_before_round_one(
        self, tmp_path, capsys, monkeypatch, runtime, lam, T
    ):
        rounds = []
        real = AlgoSelectEnvironment.round
        monkeypatch.setattr(AlgoSelectEnvironment, "round",
                            lambda env, t: rounds.append(t) or real(env, t))
        rt, fi = write_algoselect_tables(tmp_path)
        lines = Path(rt).read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + runtime  # the last row's last solver
        Path(rt).write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        code = cli_main(["algoselect", "--T", T, "--reps", "2", "--runtimes", rt,
                         "--instance-features", fi, "--out", str(out), *lam])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: {rt}: lambda=")
        assert f"times the largest runtime, {float(runtime)!r}, overflows" in err
        assert rounds == [] and not out.exists()

    @pytest.mark.parametrize("which", [0, 1])
    def test_repeated_column_name_exits_one(self, tmp_path, capsys, which):
        paths = write_algoselect_tables(tmp_path)
        lines = Path(paths[which]).read_text().splitlines()
        names = lines[0].split(",")
        names[-1] = names[1]  # the last column takes the first data column's name
        Path(paths[which]).write_text("\n".join([",".join(names), *lines[1:]]) + "\n")
        code = cli_main(["algoselect", "--T", "5", "--reps", "1", "--runtimes", paths[0],
                         "--instance-features", paths[1], "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"configuration error: {paths[which]}: column {names[1]!r} repeated "
            f"in columns 2 and {len(names)}\n")

    def test_regret_table_too_big_for_numpy_exits_one(self, tmp_path, capsys):
        # 2 x 10**18 floats is past 2**63 bytes: numpy refuses before asking the OS.
        code = cli_main(["synthetic", "--T", str(10**18), "--reps", "2",
                         "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: T={10**18} rounds x reps=2 repetitions "
                              "do not fit in memory: array is too big")

    def test_regret_table_memory_error_exits_one_before_round_one(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_memory(shape, *args, **kw):
            raise MemoryError("Unable to allocate")

        calls = []
        monkeypatch.setattr(preselect.harness, "run_repetition", lambda *a, **kw: calls.append(1))
        monkeypatch.setattr(preselect.harness.np, "empty", no_memory)
        code = cli_main(["synthetic", "--T", "7", "--reps", "3", "--out", str(tmp_path / "x.csv")])
        assert code == 1 and calls == []
        assert capsys.readouterr().err == ("configuration error: T=7 rounds x reps=3 repetitions "
                                           "do not fit in memory: Unable to allocate\n")

    def test_failure_in_a_real_round_exits_three(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = preselect.harness.instant_regret

        def failing_regret(utils, subset):  # round 3 of repetition 1, after 5 rounds of rep 0
            calls.append(1)
            if len(calls) == 5 + 3:
                raise TypeError("injected")
            return real(utils, subset)

        monkeypatch.setattr(preselect.harness, "instant_regret", failing_regret)
        out = tmp_path / "x.csv"
        code = cli_main(["synthetic", "--T", "5", "--reps", "2", "--out", str(out)])
        assert code == 3 and len(calls) == 8 and not out.exists()
        assert capsys.readouterr().err.startswith(
            "numeric failure: repetition 1 failed: round 3: injected")

    @pytest.mark.parametrize("flag", [
        "--config", "--runtimes", "--instance-features", "--solver-features",
    ])
    def test_utf8_byte_order_mark_is_ignored(self, tmp_path, flag):
        rng = np.random.default_rng(3)
        (tmp_path / "rt.csv").write_text("instance_id,solver_0,solver_1,solver_2\n" + "".join(
            f"i{j}," + ",".join(f"{v:.3f}" for v in rng.uniform(0, 0.5, 3)) + "\n"
            for j in range(8)))
        (tmp_path / "fi.csv").write_text("instance_id,f0,f1\n" + "".join(
            f"i{j},{rng.uniform():.3f},{rng.uniform():.3f}\n" for j in range(8)))
        (tmp_path / "sf.csv").write_text(
            "alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n0.8,0.4,0.6,0.3\n")
        (tmp_path / "cfg.json").write_text('{"T": 6, "reps": 2, "k": 2, "policy": "cppl"}')
        paths = {"--config": "cfg.json", "--runtimes": "rt.csv",
                 "--instance-features": "fi.csv", "--solver-features": "sf.csv"}
        argv = ["algoselect", "--seed", "4"]
        for name, file in paths.items():
            argv += [name, str(tmp_path / file)]
        assert cli_main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
        bom = tmp_path / paths[flag]
        bom.write_bytes(b"\xef\xbb\xbf" + bom.read_bytes())
        assert cli_main(argv + ["--out", str(tmp_path / "bom.csv")]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_config_with_lam_and_lambda_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "x.csv"
        cfg.write_text(json.dumps({"T": 5, "reps": 1, "lam": 1.0, "lambda": 2.0}))
        assert cli_main(["synthetic", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"configuration error: {cfg}: give lam or lambda, not both"
                in capsys.readouterr().err)
        assert not out.exists()
        cfg.write_text(json.dumps({"T": 5, "reps": 1, "lam": 1.0}))
        assert cli_main(["synthetic", "--config", str(cfg), "--out", str(out)]) == 0

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["synthetic", "--bogus", "1"])
        assert exc.value.code == 1

    def test_missing_runtime_files_exit_one(self, tmp_path):
        code = cli_main(["algoselect", "--k", "2", "--T", "5",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unreadable_runtime_file_exits_two(self, tmp_path):
        code = cli_main(["algoselect", "--k", "2", "--T", "5",
                         "--runtimes", str(tmp_path / "none.csv"),
                         "--instance-features", str(tmp_path / "none2.csv"),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_verify_passes(self, capsys):
        assert cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_fails_each_bad_check_and_runs_the_rest(self, monkeypatch, capsys):
        def broken(rng, max_n):
            raise RuntimeError("broken check")

        monkeypatch.setattr(preselect.selfcheck, "winner_deviation", lambda *args: 1.0)
        monkeypatch.setattr(preselect.selfcheck, "top_k_errors", broken)
        assert cli_main(["verify"]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 2
        assert "criterion 3" in failed[0] and "winner 1," in failed[0]
        assert "criterion 6" in failed[1] and "raised RuntimeError: broken check" in failed[1]
        assert sum(line.startswith("PASS") for line in lines) == 4
        assert lines[-1] == "4/6 checks passed"

    def test_import_and_verify_load_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter that
        # imports the package and runs every self-check must not load scipy.
        src = str(Path(preselect.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = (
            "import sys, preselect, preselect.cli\n"
            "assert preselect.cli.main(['verify']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_algoselect_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        m = 40
        rows = [f"i{j}," + ",".join(f"{v:.4f}" for v in rng.uniform(0, 0.5, 3))
                for j in range(m)]
        (tmp_path / "rt.csv").write_text(
            "instance_id,solver_0,solver_1,solver_2\n" + "\n".join(rows) + "\n"
        )
        feats = [f"i{j}," + ",".join(f"{v:.4f}" for v in rng.uniform(size=5))
                 for j in range(m)]
        (tmp_path / "fi.csv").write_text(
            "instance_id,f0,f1,f2,f3,f4\n" + "\n".join(feats) + "\n"
        )
        (tmp_path / "sf.csv").write_text(
            "alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n0.8,0.4,0.6,0.3\n"
        )
        out = tmp_path / "algo.csv"
        code = cli_main([
            "algoselect", "--k", "2", "--T", "30", "--reps", "2", "--seed", "1",
            "--policy", "cppl", "--feedback", "ranking",
            "--runtimes", str(tmp_path / "rt.csv"),
            "--instance-features", str(tmp_path / "fi.csv"),
            "--solver-features", str(tmp_path / "sf.csv"),
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 31


class TestExports:
    PACKAGE = Path(preselect.__file__).resolve().parent

    def test_every_exported_name_resolves(self):
        for path in sorted(self.PACKAGE.glob("[!_]*.py")):
            module = importlib.import_module(f"preselect.{path.stem}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, (path.stem, missing)

    def test_package_imports_only_exported_names(self):
        tree = ast.parse((self.PACKAGE / "__init__.py").read_text())
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        assert imports
        for node in imports:
            exported = importlib.import_module(f"preselect.{node.module}").__all__
            stale = [alias.name for alias in node.names if alias.name not in exported]
            assert not stale, (node.module, stale)


@pytest.mark.parametrize("build, message", [
    (lambda _: ExperimentConfig(environment="grid"), "unknown environment 'grid'"),
    (lambda _: AggregatedResult(np.zeros(3), np.zeros(2), np.zeros(1)),
     "mean and stderr must be equal-length vectors"),
    (lambda _: AggregatedResult(np.zeros(2), [0.0, -0.1], np.zeros(1)),
     "standard errors must be nonnegative"),
    (lambda path: emit_results(AggregatedResult(np.zeros(1), np.zeros(1), np.zeros(1)),
                               path / "x.xml", "xml"), "unknown output format: 'xml'"),
], ids=["environment", "stderr-shape", "negative-stderr", "format"])
def test_harness_inputs_are_rejected(tmp_path, build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(tmp_path)
    assert not (tmp_path / "x.xml").exists()
