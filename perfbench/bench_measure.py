"""Workloads, inputs, timed and traced runs of the preselect regret loop.

A workload fixes the world, the feedback mode and the length T of a
repetition.  One pass runs ``preselect.harness.run_experiment`` once for
each policy in ``POLICIES`` on a pass seed derived from the workload
seed; a run repeats passes until its time is up, and reports medians
over passes.  See ``README.md`` beside this file for every metric.
"""

from __future__ import annotations

import csv
import math
import resource
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from preselect import (
    AlgoSelectEnvironment,
    CPPLPolicy,
    EpsilonGreedyPolicy,
    ExperimentConfig,
    MMPolicy,
    SyntheticEnvironment,
    SyntheticScenario,
    bundled_solver_features,
    emit_results,
    load_runtime_table,
    run_experiment,
)

import bench_trace

POLICIES = ("cppl", "egreedy", "mm")
MIN_PASSES = 3  # final regret is the mean over the first MIN_PASSES passes
SETUP_REPEATS = 3  # set-ups sampled per pass, at least ...
SETUP_BATCH_SECONDS = 0.02  # ... and for at least this long
SETUP_LAYERS = ("environments.setup", "environments.load_table", "environments.preprocess", "policies.setup")
N, D, K = 20, 5, 5  # synthetic arms and dimension; subset size everywhere
LAM = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    environment: str
    feedback: str
    T: int
    reps: int  # per run_experiment call


# Why each workload exists is stated in BENCHMARK.json and README.md.
# synth-winner keeps a repetition axis (reps > 1), as the criterion-8
# experiment has, so that batching repetitions can show in its numbers;
# the other two run one repetition per call to fit several passes in a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-winner", "synthetic", "winner", T=500, reps=4),
        Workload("synth-ranking", "synthetic", "ranking", T=150, reps=1),
        Workload("algoselect-d80", "algoselect", "winner", T=500, reps=1),
    )
}

# Seeded algoselect-d80 table: the informative, independent uniform columns
# survive preprocessing; the rest are there to be pruned by it.
TABLE = dict(
    num_instances=1200,
    informative=20,
    near_duplicates=4,   # informative column + small noise: |r| > 0.95
    near_constant=2,     # one spike per 150 rows: variance < 0.01
    constant=2,
    duplicate_noise=0.01,
    runtime_noise=0.1,
    lam=LAM,
    expected_d=80,
)


class BenchmarkFailure(RuntimeError):
    """An output check failed; the run reports ``correct: false``."""


def pass_seed(seed: int, p: int) -> int:
    """Experiment seed of pass ``p``: distinct, reproducible streams per pass."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


def write_runtime_table(seed: int, directory: Path, solver_features: np.ndarray) -> tuple[Path, Path]:
    """Generate the algoselect-d80 table from ``seed`` and write it as CSV.

    Which solver is fastest depends on the instance through a bilinear
    instance-solver interaction, as in ``demos/05_algorithm_selection.py``.
    """
    p = TABLE
    rng = np.random.default_rng([seed, 80])
    m = p["num_instances"]
    base = rng.uniform(size=(m, p["informative"]))
    dup = base[:, : p["near_duplicates"]] + p["duplicate_noise"] * rng.normal(
        size=(m, p["near_duplicates"])
    )
    spikes = np.zeros((m, p["near_constant"]))
    for j in range(p["near_constant"]):
        spikes[j::150, j] = 1.0
    const = np.full((m, p["constant"]), 0.5)
    raw = np.column_stack([base, dup, spikes, const])
    raw = raw[:, rng.permutation(raw.shape[1])]

    interaction = base @ rng.normal(size=(p["informative"], solver_features.shape[1])) @ solver_features.T
    interaction += p["runtime_noise"] * rng.normal(size=interaction.shape)
    runtimes = 0.05 + (interaction - interaction.min()) / np.ptp(interaction)

    ids = [f"inst_{i:05d}" for i in range(m)]
    rt_path, feat_path = directory / "runtimes.csv", directory / "features.csv"
    with open(rt_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["instance_id"] + [f"solver_{j}" for j in range(runtimes.shape[1])])
        w.writerows([iid] + [f"{v:.6f}" for v in row] for iid, row in zip(ids, runtimes))
    with open(feat_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["instance_id"] + [f"f{j}" for j in range(raw.shape[1])])
        w.writerows([iid] + [f"{v:.6f}" for v in row] for iid, row in zip(ids, raw))
    return rt_path, feat_path


def make_config(workload: Workload, policy: str, seed: int, inputs: dict, T: int, reps: int) -> ExperimentConfig:
    return ExperimentConfig(
        environment=workload.environment,
        policy=policy,
        feedback=workload.feedback,
        k=K,
        T=T,
        reps=reps,
        seed=seed,
        lam=LAM,
        runtimes=inputs.get("runtimes"),
        instance_features=inputs.get("instance_features"),
        n=N,
        d=D,
    )


def set_up_once(workload: Workload, inputs: dict, seed: int, tracer: bench_trace.Tracer | None):
    """Everything before round 1, through the package's public functions."""
    span = tracer.span if tracer is not None else lambda bucket: nullcontext()
    rng = np.random.default_rng(seed)
    with span("environments.setup"):
        if workload.environment == "synthetic":
            scenario = SyntheticScenario.draw(N, D, K, workload.T, seed=seed, rng=rng)
            env = SyntheticEnvironment(scenario)
        else:
            with span("environments.load_table"):
                table = load_runtime_table(inputs["runtimes"], inputs["instance_features"])
            env = AlgoSelectEnvironment(table, lam=LAM, rng=rng)
            if env.d != TABLE["expected_d"]:
                raise BenchmarkFailure(f"algoselect-d80 has d={env.d} after preprocessing")
    with span("policies.setup"):
        CPPLPolicy(env.d, rng)
        EpsilonGreedyPolicy(env.d, rng, epsilon=0.1)
        MMPolicy(env.n)


def sample_setup(workload: Workload, inputs: dict, seed: int, samples: dict, traced: bool) -> None:
    """Append one pass's set-up samples: totals untraced, per-layer self times traced.

    Sampling a few set-ups in every pass spreads them over the whole run,
    so their median sees the same machine as the rounds do.
    """
    start = time.perf_counter()
    n = 0
    while n < SETUP_REPEATS or time.perf_counter() - start < SETUP_BATCH_SECONDS:
        n += 1
        if traced:
            tracer = bench_trace.Tracer()
            with bench_trace.install(tracer):
                set_up_once(workload, inputs, seed, tracer)
            for name in SETUP_LAYERS:
                if tracer.calls.get(name):
                    samples[name].append(tracer.self_s[name])
        else:
            t0 = time.perf_counter()
            set_up_once(workload, inputs, seed, None)
            samples["setup"].append(time.perf_counter() - t0)


def check_result(result, T: int, reps: int) -> None:
    """Regret must be finite, each round's regret in [0, 1], shapes as configured."""
    mean = result.mean_cum_regret
    if mean.shape != (T,) or result.final_regrets.shape != (reps,):
        raise BenchmarkFailure(f"result shape {mean.shape}, {result.final_regrets.shape}")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(result.stderr))
            and np.all(np.isfinite(result.final_regrets))):
        raise BenchmarkFailure("non-finite regret")
    inst = np.diff(mean, prepend=0.0)
    if np.any(inst < -1e-12) or np.any(inst > 1 + 1e-12):
        raise BenchmarkFailure("per-round regret outside [0, 1]")
    if np.any(result.final_regrets < 0) or np.any(result.final_regrets > T + 1e-9):
        raise BenchmarkFailure("final regret outside [0, T]")


def csv_bytes(result, directory: Path) -> bytes:
    path = directory / "result.csv"
    emit_results(result, path, "csv")
    return path.read_bytes()


@dataclass
class RunState:
    attempted: int = 0
    failed: int = 0
    finals: dict = field(default_factory=lambda: {p: [] for p in POLICIES})


def run_policy(state: RunState, workload, policy, seed, inputs, T, reps, p, tracer=None):
    """One ``run_experiment`` call, timed; returns (wall seconds, result) or None on failure."""
    config = make_config(workload, policy, seed, inputs, T, reps)
    state.attempted += reps
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = run_experiment(config)
            wall = time.perf_counter() - t0
        else:
            with bench_trace.install(tracer):
                t0 = time.perf_counter()
                result = run_experiment(config)
                wall = time.perf_counter() - t0
    except RuntimeError as exc:  # run_experiment names the failing repetition
        state.failed += reps
        print(f"FAILED {workload.name} {policy} pass {p}: {exc}")
        return None
    check_result(result, T, reps)
    if p < MIN_PASSES and tracer is None:
        state.finals[policy].extend(float(v) for v in result.final_regrets)
    return wall, result


def timed_run(workload, seed, seconds, inputs, T, reps) -> tuple[RunState, dict, dict]:
    """Untraced passes until ``seconds`` are used; end-to-end metrics."""
    state = RunState()
    setup = defaultdict(list)
    rates = {p: [] for p in POLICIES}
    totals = []
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - start < seconds:
        seed_p = pass_seed(seed, p)
        sample_setup(workload, inputs, seed_p, setup, traced=False)
        total = 0.0
        for policy in POLICIES:
            out = run_policy(state, workload, policy, seed_p, inputs, T, reps, p)
            if out is None:
                total = math.nan
                continue
            rates[policy].append(reps * T / out[0])
            total += out[0]
        if not math.isnan(total):
            totals.append(total)
        p += 1
    metrics = {f"{policy}.rounds_per_s": _median(rates[policy]) for policy in POLICIES}
    metrics["experiment_s"] = _median(totals)
    metrics["setup_s"] = _median(setup["setup"])
    metrics["peak_rss_mb"] = peak_rss_mb()
    extras = {f"{policy}.final_regret": _mean(state.finals[policy]) for policy in POLICIES}
    extras["passes"] = p
    return state, metrics, extras


def traced_run(workload, seed, seconds, inputs, T, reps, scratch: Path) -> tuple[RunState, dict, dict]:
    """Pairs of untraced and traced passes; per-layer metrics and the byte check."""
    state = RunState()
    setup = defaultdict(list)
    tracers = {p: bench_trace.Tracer() for p in POLICIES}
    walls = {p: [] for p in POLICIES}  # traced experiment walls, per call
    overheads = []
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - start < seconds:
        seed_p = pass_seed(seed, p)
        sample_setup(workload, inputs, seed_p, setup, traced=True)
        plain_total = traced_total = 0.0
        for policy in POLICIES:
            plain = run_policy(state, workload, policy, seed_p, inputs, T, reps, p)
            traced = run_policy(state, workload, policy, seed_p, inputs, T, reps, p, tracers[policy])
            if plain is None or traced is None:
                continue
            if csv_bytes(plain[1], scratch) != csv_bytes(traced[1], scratch):
                raise BenchmarkFailure(f"traced and untraced CSVs differ: {policy}, pass {p}")
            plain_total += plain[0]
            traced_total += traced[0]
            walls[policy].append(traced[0])
        if plain_total > 0:
            overheads.append(traced_total / plain_total - 1.0)
        p += 1
    metrics = {}
    for policy, tr in tracers.items():
        metrics.update(layer_metrics(policy, tr, walls[policy]))
    metrics["harness.trace_overhead_frac"] = _median(overheads)
    setup = {name: _median(v) for name, v in setup.items()}
    metrics["environments.setup_s"] = sum(setup.get(name, 0.0) for name in SETUP_LAYERS[:3])
    metrics["policies.setup_s"] = setup["policies.setup"]
    extras = {"passes": p}
    if workload.environment == "algoselect":
        extras["environments.load_table_s"] = setup.get("environments.load_table", math.nan)
        extras["environments.preprocess_s"] = setup.get("environments.preprocess", math.nan)
    return state, metrics, extras


def layer_metrics(policy: str, tr: bench_trace.Tracer, walls: list[float]) -> dict:
    """Per-round metrics of one policy.

    A bucket that recorded no call (its target is gone from the package,
    or a subclass overrides it so the wrapper is never reached) reads NaN,
    never 0, so that the run fails its finite check instead of showing a
    gain that was not measured.
    """
    rounds = len(tr.round_s)
    us = 1e6 / rounds if rounds else math.nan

    def self_us(bucket):
        return tr.self_s[bucket] * us if tr.calls.get(bucket) else math.nan

    def calls(bucket):
        return tr.calls.get(bucket) or math.nan

    round_us = [s * 1e6 for s in tr.round_s] or [math.nan]
    q = statistics.quantiles(round_us, n=100) if len(round_us) > 1 else round_us * 99
    m = {
        "harness.round_us.p50": statistics.median(round_us),
        "harness.round_us.p99": q[98],
        "harness.round_samples": len(tr.round_s),
        "harness.glue_us": tr.glue_s * us,
        "harness.outside_rounds_ms": (sum(walls) - sum(tr.round_s)) * 1e3 / max(len(walls), 1),
        "environments.round_us": self_us("environments.round"),
        "environments.feedback_us": self_us("environments.feedback"),
        "plackett_luce.sample_us": self_us("plackett_luce.sample"),
        "environments.regret_us": self_us("environments.regret"),
        "policies.choose_us": self_us("policies.choose"),
        "policies.update_us": self_us("policies.update"),
    }
    if policy == "cppl":
        m["estimator.widths_us"] = self_us("estimator.widths")
        m["estimator.covariance_us"] = self_us("estimator.covariance")
    if policy in ("cppl", "egreedy"):
        m["estimator.sgd_update_us"] = self_us("estimator.sgd_update")
        m["likelihood.grad_us"] = self_us("likelihood.grad")
        m["likelihood.hess_us"] = self_us("likelihood.hess")
        m["likelihood.calls_per_round"] = (calls("likelihood.grad") + calls("likelihood.hess")) / (rounds or math.nan)
    if policy == "mm":
        m["policies.mm_stages"], m["policies.mm_distinct_sets"] = tr.mm_counts()
    return {f"{policy}.{k}": v for k, v in m.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
                 T: int | None = None) -> dict:
    """Set up and run one workload; ``T`` overrides its length (tests use a tiny T)."""
    workload = WORKLOADS[name]
    T = workload.T if T is None else T
    reps = workload.reps
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        scratch = Path(tmp)
        inputs: dict = {}
        generator = None
        if workload.environment == "algoselect":
            rt, feats = write_runtime_table(seed, scratch, bundled_solver_features())
            inputs = {"runtimes": str(rt), "instance_features": str(feats)}
            generator = dict(TABLE)
        if trace:
            state, metrics, extras = traced_run(workload, seed, seconds, inputs, T, reps, scratch)
        else:
            state, metrics, extras = timed_run(workload, seed, seconds, inputs, T, reps)
        extras["fail_rate"] = state.failed / max(state.attempted, 1)
    return {
        "workload": {"name": name, "T": T, "reps_per_pass": reps, "feedback": workload.feedback,
                     "environment": workload.environment, "n": N, "d": D, "k": K,
                     "policies": list(POLICIES), "generator": generator},
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": metrics,
        "extras": extras,
    }
