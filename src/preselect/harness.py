"""Experiment orchestration: configuration, the online loop, aggregation, output.

A repetition plays the standard online protocol for T rounds: reveal the
context, let the policy preselect k arms, sample feedback for the chosen
subset from the ground-truth model, update the policy, and record the
instantaneous regret.  Repetitions are embarrassingly parallel in
principle (each owns its environment, policy, and rng streams); they are
executed sequentially here and aggregated into per-round mean cumulative
regret with standard errors.

Random streams: repetition ``r`` is seeded with ``base_seed + r`` and
splits into independent policy, feedback, and environment-setup streams,
while per-round context draws derive from ``(seed, t)`` directly.  The
environment realization therefore does not depend on which policy runs
on it, so baselines can be compared on identical draws.

Bad settings: ``ExperimentConfig`` checks every field before anything
runs, through the shared input rules (the number rule ``_check_setting``,
the integer, preselection-size, world-size and seed rules), and each bad
value raises ``ValueError`` naming the setting by its flag (``lambda``
for ``lam``).  ``run_experiment`` re-raises only a round-loop failure,
the ``RuntimeError`` of ``run_repetition``, naming its repetition; a
table that does not fit the config stays a ``ValueError``, as does a
``(reps, T)`` regret table that numpy cannot allocate.

Output formats (see ``emit_results``):

* ``csv``: columns ``round,mean_cum_regret,stderr`` plus a JSON sidecar
  ``<out>.meta.json`` with the config echo, per-repetition final
  regrets, and wall time.
* ``json``: one document with keys ``config``, ``rounds``,
  ``mean_cum_regret``, ``stderr``, ``final_regrets``, ``wall_time_s``.

An algoselect run's config echo gives the table's ``n`` (solvers) and
``d`` (features per arm), whatever the config held.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .environments import (
    AlgoSelectEnvironment,
    SyntheticEnvironment,
    SyntheticScenario,
    _check_seed,
    _check_world_size,
    instant_regret,
    load_runtime_table,
    sample_feedback,
)
from .plackett_luce import _SETTING_RULES, _check_int, _check_k, _check_setting, _unchecked
from .policies import CPPLPolicy, EpsilonGreedyPolicy, MMPolicy, Policy

__all__ = [
    "ExperimentConfig",
    "AggregatedResult",
    "run_repetition",
    "run_experiment",
    "emit_results",
]

POLICIES = ("cppl", "maxtheta", "egreedy", "mm")
FEEDBACK_MODES = ("winner", "ranking")
ENVIRONMENTS = ("synthetic", "algoselect")
FORMATS = ("csv", "json")


def _is_path(value) -> bool:
    """Whether ``value`` is a string the file system can take: encodable, with no NUL."""
    try:
        return isinstance(value, str) and b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        return False


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    environment: str = "synthetic"
    policy: str = "cppl"
    feedback: str = "winner"
    n: int = 20
    d: int = 5
    k: int = 5
    T: int = 2000
    reps: int = 20
    seed: int = 0
    gamma1: float = 2.0
    alpha: float = 0.6
    omega: float = 1.0
    epsilon: float = 0.1
    lam: float = 10.0
    runtimes: str | None = None
    instance_features: str | None = None
    solver_features: str | None = None
    out: str = "results.csv"
    format: str = "csv"

    def __post_init__(self):
        for name in ("n", "d", "k", "T", "reps", "seed"):
            setattr(self, name, _check_int(getattr(self, name), name))
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {self.environment!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(f"unknown feedback mode {self.feedback!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown output format {self.format!r}")
        synthetic = self.environment == "synthetic"
        _check_world_size(self.T, self.d if synthetic else None)
        _check_seed(self.seed)
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for name in _SETTING_RULES:
            label = "lambda" if name == "lam" else name
            setattr(self, name, _check_setting(name, getattr(self, name), label))
        if not _is_path(self.out):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        for name in ("runtimes", "instance_features", "solver_features"):
            value = getattr(self, name)
            if value is not None and not _is_path(value):
                raise ValueError(f"{name} must be a path string or null, got {value!r}")
        if synthetic:
            _check_k(self.k, self.n)
        elif self.runtimes is None or self.instance_features is None:
            raise ValueError("algoselect requires --runtimes and --instance-features")


@dataclass
class AggregatedResult:
    """Per-round aggregates over repetitions plus reproduction metadata."""

    mean_cum_regret: np.ndarray
    stderr: np.ndarray
    final_regrets: np.ndarray
    config: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def __post_init__(self):
        mean = np.asarray(self.mean_cum_regret, dtype=float)
        se = np.asarray(self.stderr, dtype=float)
        if mean.shape != se.shape or mean.ndim != 1:
            raise ValueError("mean and stderr must be equal-length vectors")
        if se.size and np.min(se) < 0:
            raise ValueError("standard errors must be nonnegative")
        object.__setattr__(self, "mean_cum_regret", mean)
        object.__setattr__(self, "stderr", se)
        object.__setattr__(self, "final_regrets", np.asarray(self.final_regrets, dtype=float))

    @property
    def T(self) -> int:
        return self.mean_cum_regret.size


def _streams(base_seed: int, rep_index: int):
    """Independent policy / feedback / setup generators for one repetition.

    They are children 0, 1 and 2 of ``SeedSequence(base_seed + rep_index)``;
    round t's context takes key ``(3, t)`` of the same seed (see
    ``SyntheticEnvironment.round``).
    """
    rep_seed = base_seed + rep_index
    policy_rng, feedback_rng, setup_rng = map(
        np.random.default_rng, np.random.SeedSequence(rep_seed).spawn(3))
    return rep_seed, policy_rng, feedback_rng, setup_rng


def _build_environment(config: ExperimentConfig, rep_seed, setup_rng, table):
    if config.environment == "synthetic":
        scenario = SyntheticScenario.draw(
            config.n, config.d, config.k, config.T, seed=rep_seed, rng=setup_rng
        )
        return SyntheticEnvironment(scenario)
    try:
        env = AlgoSelectEnvironment(table, lam=config.lam, rng=setup_rng)
    except OverflowError as exc:  # lambda times a runtime
        raise ValueError(f"{config.runtimes}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{config.instance_features}: {exc}") from exc
    if config.T > env.max_rounds:
        raise ValueError(f"T={config.T} exceeds the {env.max_rounds} available instances")
    _check_k(config.k, env.n)
    return env


def _build_policy(config: ExperimentConfig, env, policy_rng) -> Policy:
    common = dict(gamma1=config.gamma1, alpha=config.alpha)
    if config.policy == "cppl":
        return CPPLPolicy(env.d, policy_rng, omega=config.omega, **common)
    if config.policy == "maxtheta":
        return CPPLPolicy(env.d, policy_rng, omega=0.0, **common)
    if config.policy == "egreedy":
        return EpsilonGreedyPolicy(env.d, policy_rng, epsilon=config.epsilon, **common)
    return MMPolicy(env.n)


def run_repetition(
    config: ExperimentConfig,
    rep_index: int,
    table=None,
    policy: Policy | None = None,
) -> np.ndarray:
    """Play one full repetition and return its ``(T,)`` instantaneous regrets.

    ``table`` may carry a preloaded runtime table to avoid re-reading
    files; ``policy`` overrides the configured policy (used for oracle
    policies in tests).  A failure inside the round loop is re-raised as
    ``RuntimeError("round t: ...")``.
    """
    if config.environment == "algoselect" and table is None:
        table = load_runtime_table(
            config.runtimes, config.instance_features, config.solver_features
        )
    rep_seed, policy_rng, feedback_rng, setup_rng = _streams(config.seed, rep_index)
    env = _build_environment(config, rep_seed, setup_rng, table)
    if policy is None:
        policy = _build_policy(config, env, policy_rng)

    regrets = np.empty(config.T)
    t = 0
    try:
        for t in range(1, config.T + 1):
            context, utils = env.round(t)
            decision = policy.choose(context, config.k)
            feedback = sample_feedback(utils, decision.subset, config.feedback, feedback_rng)
            policy.update(feedback, decision.subset, context)
            regrets[t - 1] = instant_regret(utils, decision.subset)
    except Exception as exc:
        raise RuntimeError(f"round {t}: {exc}") from exc
    return regrets


def run_experiment(config: ExperimentConfig) -> AggregatedResult:
    """Run all repetitions and aggregate mean cumulative regret per round."""
    start = time.perf_counter()
    table = None
    if config.environment == "algoselect":
        table = load_runtime_table(
            config.runtimes, config.instance_features, config.solver_features
        )
    try:
        cumulative = np.empty((config.reps, config.T))
    except (MemoryError, ValueError) as exc:  # ValueError: numpy's "array is too big"
        raise ValueError(f"T={config.T} rounds x reps={config.reps} repetitions "
                         f"do not fit in memory: {exc}") from exc
    for rep in range(config.reps):
        try:
            cumulative[rep] = np.cumsum(run_repetition(config, rep, table=table))
        except RuntimeError as exc:  # a round-loop failure, already naming its round
            raise RuntimeError(f"repetition {rep} failed: {exc}") from exc
    mean = cumulative.mean(axis=0)
    if config.reps > 1:
        stderr = cumulative.std(axis=0, ddof=1) / np.sqrt(config.reps)
    else:
        stderr = np.zeros(config.T)
    final = cumulative[:, -1] if config.T > 0 else np.zeros(config.reps)
    echo = asdict(config)
    if table is not None:  # the table, not the config, sets the arms and the dimension
        env = AlgoSelectEnvironment(table, lam=config.lam, rng=np.random.default_rng(0))
        echo.update(n=env.n, d=env.d)
    # Float vectors, the standard errors >= 0: nothing for the constructor to check.
    return _unchecked(
        AggregatedResult,
        mean_cum_regret=mean,
        stderr=stderr,
        final_regrets=final,
        config=echo,
        wall_time_s=time.perf_counter() - start,
    )


def _sidecar_path(path: Path) -> Path:
    """Where ``emit_results`` writes the csv format's JSON sidecar."""
    return path.with_name(path.name + ".meta.json")


def emit_results(result: AggregatedResult, path: str | Path, format: str = "csv") -> None:
    """Write aggregated results to ``path`` in the given format.

    Floats are written with ``repr`` so a round-trip through the file
    reproduces them exactly; everything except ``wall_time_s`` is
    byte-identical across runs with the same config and seed.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown output format: {format!r}")
    path = Path(path)
    doc = {
        "config": result.config,
        "rounds": list(range(1, result.T + 1)),
        "mean_cum_regret": [float(v) for v in result.mean_cum_regret],
        "stderr": [float(v) for v in result.stderr],
        "final_regrets": [float(v) for v in result.final_regrets],
        "wall_time_s": result.wall_time_s,
    }
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["round", "mean_cum_regret", "stderr"])
            for t, mean, se in zip(doc["rounds"], doc["mean_cum_regret"], doc["stderr"]):
                writer.writerow([t, repr(mean), repr(se)])
        doc = {key: doc[key] for key in ("config", "final_regrets", "wall_time_s")}
        path = _sidecar_path(path)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
