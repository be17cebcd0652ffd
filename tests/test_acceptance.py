"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria 8 and 9 share one full-scale regret
experiment (three policies, 20 repetitions of 2000 rounds each) and
dominate the suite's runtime.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

from preselect import (
    ContextMatrix,
    EstimatorState,
    ExperimentConfig,
    MMState,
    Observation,
    Ranking,
    RankingFeedback,
    UtilityVector,
    WinnerFeedback,
    chi2_tail_bounds,
    chi2_upper_tail_bound,
    confidence_widths,
    contextual_utilities,
    covariance,
    cppl_choose,
    emit_results,
    f_tail_bound,
    f_tail_threshold,
    grad_loglik,
    hessian_loglik,
    loglik,
    max_theta_choose,
    mm_fit,
    preprocess_features,
    prob_full_ranking,
    prob_partial_ranking,
    prob_top_rank,
    run_experiment,
    sample_partial_ranking,
    sample_winner,
)
from preselect.policies import top_k_subset

from test_environments import preprocessing_fixture
from test_likelihood import fd_gradient, fd_hessian, random_observation
from test_policies import brute_force_best_subset_exact


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
    rng = np.random.default_rng(1001)
    worst_grad, worst_hess, worst_eig, worst_asym = 0.0, 0.0, -np.inf, 0.0
    for mode in ("winner", "ranking"):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            size = int(rng.integers(2, 6))
            n = size + int(rng.integers(0, 3))
            obs = random_observation(rng, d, n, size, mode)
            theta = rng.uniform(size=d)

            grad = grad_loglik(theta, obs)
            fd_g = fd_gradient(theta, obs, h=1e-5)
            worst_grad = max(
                worst_grad,
                np.linalg.norm(grad - fd_g) / max(np.linalg.norm(fd_g), 1e-8),
            )

            hess = hessian_loglik(theta, obs)
            fd_h = fd_hessian(theta, obs, h=1e-5)
            worst_hess = max(
                worst_hess,
                np.linalg.norm(hess - fd_h) / max(np.linalg.norm(fd_h), 1e-8),
            )
            worst_asym = max(worst_asym, np.max(np.abs(hess - hess.T)))
            worst_eig = max(worst_eig, np.linalg.eigvalsh(hess).max())
    elapsed = time.perf_counter() - start
    ok = (
        worst_grad < 1e-5
        and worst_hess < 1e-4
        and worst_asym < 1e-12
        and worst_eig <= 1e-10
        and elapsed < 10.0
    )
    report(
        1,
        "analytic gradients/Hessians match finite differences, NSD",
        ok,
        f"grad {worst_grad:.2e}, hess {worst_hess:.2e}, "
        f"max eig {worst_eig:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_pl_model_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for n in range(2, 6):
        utils = UtilityVector.from_values(rng.uniform(0.1, 3.0, size=n))
        total = sum(
            prob_full_ranking(utils, Ranking.from_ordering(p))
            for p in itertools.permutations(range(n))
        )
        worst = max(worst, abs(total - 1.0))

        # Partial rankings equal their linear-extension sums, |S| <= 3.
        for size in range(1, min(3, n) + 1):
            for subset in itertools.combinations(range(n), size):
                for sub_perm in itertools.permutations(subset):
                    direct = prob_partial_ranking(
                        utils, subset, Ranking.from_ordering(sub_perm)
                    )
                    brute = sum(
                        prob_full_ranking(utils, Ranking.from_ordering(p))
                        for p in itertools.permutations(range(n))
                        if tuple(a for a in p if a in set(subset)) == sub_perm
                    )
                    worst = max(worst, abs(direct - brute))

        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                top_sum = sum(prob_top_rank(utils, subset, i) for i in subset)
                worst = max(worst, abs(top_sum - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(2, "PL probabilities exact for n <= 5", ok,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_sampler_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)

    utils4 = UtilityVector.from_values(np.ones(4))
    subset4 = (0, 1, 2, 3)
    draws = 100000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_winner(utils4, subset4, rng)] += 1
    winner_dev = np.max(np.abs(counts / draws
                               - [prob_top_rank(utils4, subset4, i) for i in subset4]))

    utils3 = UtilityVector.from_values(np.ones(3))
    subset3 = (0, 1, 2)
    draws_r = 60000
    freq = {}
    for _ in range(draws_r):
        r = sample_partial_ranking(utils3, subset3, rng)
        freq[r.ordering] = freq.get(r.ordering, 0) + 1
    ranking_dev = max(
        abs(freq.get(p, 0) / draws_r
            - prob_partial_ranking(utils3, subset3, Ranking.from_ordering(p)))
        for p in itertools.permutations(subset3)
    )
    elapsed = time.perf_counter() - start
    ok = winner_dev <= 0.006 and ranking_dev <= 0.01 and elapsed < 10.0
    report(3, "sampler frequencies match the model", ok,
           f"winner dev {winner_dev:.4f}, ranking dev {ranking_dev:.4f}, {elapsed:.1f}s")


def test_criterion_04_confidence_width_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        state = EstimatorState(
            theta_hat=rng.uniform(size=d),
            theta_bar=rng.uniform(size=d),
            t=int(rng.integers(1, 100)),
            S_accum=-(A @ A.T + np.eye(d)),
            V_accum=B @ B.T,
            gamma1=2.0,
            alpha=0.6,
        )
        context = ContextMatrix(rng.uniform(size=(d, 5)))
        cw = confidence_widths(state, context, omega=1.0)
        sigma = covariance(state)
        evals, evecs = np.linalg.eigh(sigma)
        root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0))) @ evecs.T
        log_t = math.log(state.t)
        bracket = 2 * log_t + d + 2 * math.sqrt(d * log_t)
        for i in range(context.n):
            x = context.column(i)
            M = math.exp(2 * x @ state.theta_bar) * np.outer(x, x)
            op_norm = max(np.linalg.eigvalsh(root @ M @ root).max(), 0.0)
            expected = math.sqrt(bracket * op_norm)
            if expected > 0:
                worst = max(worst, abs(cw.widths[i] - expected) / expected)

    agree = 0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 9))
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        state = EstimatorState(
            theta_hat=rng.uniform(size=d),
            theta_bar=rng.uniform(size=d),
            t=int(rng.integers(0, 50)),
            S_accum=-(A @ A.T + np.eye(d)),
            V_accum=B @ B.T,
            gamma1=2.0,
            alpha=0.6,
        )
        context = ContextMatrix(rng.uniform(size=(d, n)))
        k = int(rng.integers(1, n))
        same = (cppl_choose(state, context, k, 0.0).subset
                == max_theta_choose(state, context, k).subset)
        agree += same
    ok = worst < 1e-8 and agree == 1000
    report(4, "rank-one width identity; omega=0 reduces to greedy", ok,
           f"max rel err {worst:.2e}, agreement {agree}/1000")


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
    rng = np.random.default_rng(1006)
    checked = 0
    ok = True
    for n in range(3, 11):
        for k in range(1, n):
            for _ in range(5):
                hundredths = rng.integers(-300, 301, size=n)
                scores = hundredths / 100.0
                if top_k_subset(scores, k) != brute_force_best_subset_exact(hundredths, k):
                    ok = False
                checked += 1
    report(6, "top-k equals exhaustive subset-sum argmax", ok and checked >= 200,
           f"{checked} instances, n <= 10")


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
