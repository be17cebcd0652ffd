"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria 1-4 and 6 call the checks of
``preselect.selfcheck`` with their own seeds, sizes and time limits;
``preselect verify`` runs the same checks at small sizes.  Criteria 8
and 9 share one full-scale regret experiment (three policies, 20
repetitions of 2000 rounds each) and dominate the suite's runtime.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

from preselect import (
    ExperimentConfig,
    MMState,
    UtilityVector,
    WinnerFeedback,
    chi2_tail_bounds,
    chi2_upper_tail_bound,
    emit_results,
    f_tail_bound,
    f_tail_threshold,
    mm_fit,
    preprocess_features,
    run_experiment,
    sample_winner,
)
from preselect.selfcheck import (
    derivative_errors,
    failures,
    pl_exactness_errors,
    ranking_deviation,
    top_k_errors,
    width_errors,
    winner_deviation,
)

from test_environments import preprocessing_fixture


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


REGRET_CONFIGS = {
    policy: ExperimentConfig(
        n=20, d=5, k=5, T=2000, reps=20, seed=424242,
        policy=policy, feedback="winner",
        gamma1=2.0, alpha=0.6, omega=1.0, epsilon=0.1,
    )
    for policy in ("cppl", "egreedy", "mm")
}


@pytest.fixture(scope="module")
def regret_results():
    return {name: run_experiment(cfg) for name, cfg in REGRET_CONFIGS.items()}


def test_criterion_01_gradient_and_hessian_correctness():
    start = time.perf_counter()
    err = derivative_errors(np.random.default_rng(1001), cases=100)
    elapsed = time.perf_counter() - start
    ok = not failures(err) and elapsed < 10.0
    report(1, "analytic gradients/Hessians match finite differences, NSD", ok,
           f"grad {err['grad']:.2e}, hess {err['hess']:.2e}, "
           f"max eig {err['max_eig']:.2e}, {elapsed:.1f}s")


def test_criterion_02_pl_model_exactness():
    start = time.perf_counter()
    err = pl_exactness_errors(np.random.default_rng(1002), max_n=5)
    elapsed = time.perf_counter() - start
    ok = not failures(err) and elapsed < 5.0
    report(2, "PL probabilities exact for n <= 5", ok,
           f"max deviation {max(err.values()):.2e}, {elapsed:.1f}s")


def test_criterion_03_sampler_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    winner_dev = winner_deviation(rng, 100000, np.ones(4))
    ranking_dev = ranking_deviation(rng, 60000, np.ones(3))
    elapsed = time.perf_counter() - start
    ok = winner_dev <= 0.006 and ranking_dev <= 0.01 and elapsed < 10.0
    report(3, "sampler frequencies match the model", ok,
           f"winner dev {winner_dev:.4f}, ranking dev {ranking_dev:.4f}, {elapsed:.1f}s")


def test_criterion_04_confidence_width_identity():
    err = width_errors(np.random.default_rng(1004), width_cases=100, greedy_cases=1000)
    report(4, "rank-one width identity; omega=0 reduces to greedy", not failures(err),
           f"max rel err {err['width']:.2e}, "
           f"agreement {1000 - err['disagreements']}/1000")


def test_criterion_05_tail_bounds_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    draws = 10**6
    xs = (0.5, 1.0, 2.0)
    ok = True
    details = []

    for d1, d2 in itertools.product((2, 5, 10), (20, 50, 100)):
        samples = (rng.chisquare(d1, draws) / d1) / (rng.chisquare(d2, draws) / d2)
        for x in xs:
            tail = float(np.mean(samples >= f_tail_threshold(d1, x)))
            se = math.sqrt(max(tail * (1 - tail), 1e-12) / draws)
            bound = f_tail_bound(d2, x)
            if tail > bound + 3 * se:
                ok = False
                details.append(f"F({d1},{d2}) x={x}: {tail:.4f} > {bound:.4f}")

    for d in (2, 5, 10, 20, 50, 100):
        samples = rng.chisquare(d, draws)
        for x in xs:
            tail = float(np.mean(samples - d >= 2 * math.sqrt(d * x) + 2 * x))
            se = math.sqrt(max(tail * (1 - tail), 1e-12) / draws)
            if tail > chi2_upper_tail_bound(d, x) + 3 * se:
                ok = False
                details.append(f"chi2({d}) upper x={x}")
        # The concentration form only exists for x < 1/2.
        for x in (0.1, 0.3, 0.45):
            tail = float(np.mean(np.abs(samples - d) >= d * x))
            se = math.sqrt(max(tail * (1 - tail), 1e-12) / draws)
            if tail > chi2_tail_bounds(d, x)[1] + 3 * se:
                ok = False
                details.append(f"chi2({d}) concentration x={x}")

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(5, "F and chi-square tail bounds hold under Monte Carlo", ok,
           f"{'; '.join(details) if details else 'all grid points'}, {elapsed:.1f}s")


def test_criterion_06_subset_argmax_equivalence():
    err = top_k_errors(np.random.default_rng(1006), max_n=10)
    report(6, "top-k equals exhaustive subset-sum argmax",
           not failures(err) and err["instances"] >= 200,
           f"{err['instances']} instances, n <= 10")


def test_criterion_07_mm_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    true = np.array([0.32, 0.26, 0.19, 0.14, 0.09])
    utils = UtilityVector.from_values(true)
    state = MMState(weights=np.full(5, 0.2))
    for _ in range(50000):
        subset = tuple(sorted(rng.choice(5, size=3, replace=False)))
        state = state.record(subset, WinnerFeedback(sample_winner(utils, subset, rng)))
    fitted = mm_fit(state, max_iters=1000, tol=1e-10)
    err = float(np.max(np.abs(fitted.weights - true)))
    elapsed = time.perf_counter() - start
    ok = err < 0.05 and elapsed < 30.0
    report(7, "MM recovers generating PL weights", ok,
           f"Linf error {err:.4f}, {elapsed:.1f}s")


def test_criterion_08_regret_ordering(regret_results):
    start = time.perf_counter()
    cppl = regret_results["cppl"].mean_cum_regret
    egreedy = regret_results["egreedy"].mean_cum_regret
    mm = regret_results["mm"].mean_cum_regret
    T = cppl.size
    half = T // 2 - 1

    beats_egreedy = cppl[-1] < egreedy[-1]
    beats_mm = cppl[-1] < mm[-1]
    mm_linear = (mm[-1] / T) >= 0.5 * (mm[half] / (T // 2))
    cppl_sublinear = (cppl[-1] - cppl[half]) < cppl[half]
    ok = beats_egreedy and beats_mm and mm_linear and cppl_sublinear
    report(
        8,
        "regret ordering: CPPL best, MM near-linear, CPPL sublinear",
        ok,
        f"R_T cppl={cppl[-1]:.1f} egreedy={egreedy[-1]:.1f} mm={mm[-1]:.1f}, "
        f"{time.perf_counter() - start:.1f}s after shared runs",
    )


def test_criterion_09_byte_identical_reruns(regret_results, tmp_path):
    identical = True
    for name, config in REGRET_CONFIGS.items():
        rerun = run_experiment(config)
        first, second = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        emit_results(regret_results[name], first, "csv")
        emit_results(rerun, second, "csv")
        if first.read_bytes() != second.read_bytes():
            identical = False
        # Sidecars match except for wall time.
        meta_a = json.loads((tmp_path / f"{name}_a.csv.meta.json").read_text())
        meta_b = json.loads((tmp_path / f"{name}_b.csv.meta.json").read_text())
        meta_a.pop("wall_time_s"), meta_b.pop("wall_time_s")
        if meta_a != meta_b:
            identical = False
    report(9, "same seed reproduces output files byte-for-byte", identical)


def test_criterion_10_preprocessing_fixture():
    reduced, kept = preprocess_features(preprocessing_fixture())
    variances = np.var(reduced, axis=0)
    corr = np.corrcoef(reduced, rowvar=False)
    np.fill_diagonal(corr, 0.0)
    ok = (
        kept == [3, 4]
        and bool(np.all(variances >= 0.01))
        and float(np.max(np.abs(corr))) <= 0.95
    )
    report(10, "preprocessing matches the hand-traced fixture", ok,
           f"survivors {kept}, min var {variances.min():.3f}, "
           f"max |corr| {np.max(np.abs(corr)):.3f}")
