"""Metamorphic tests: relabelling the arms or reordering the history changes nothing.

A stream of (context, subset, feedback) rounds is recorded once and
replayed, with no sampler, into fresh learners: the estimator through
``sgd_update`` and the MM baseline through ``MMState.record``.  Relabelling
every arm i as ``perm[i]`` must leave the estimate unchanged and relabel
every choice and weight; the MM statistics must not depend on the order
in which the rounds were recorded.  CPPL (omega = 1) learns from the
recorded rounds through ``CPPLPolicy.update``, so its carried inverse and
its widths are relabelled too.

A ranking observation's stage-ordered columns are the same columns in the
same order under any labels, so its estimate keeps its bits.  A winner
observation orders its losers by label, so its sums may round differently
(1e-12 relative).  MM weights are compared at a tight fit (1e-10).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preselect import (
    ContextMatrix,
    CPPLPolicy,
    EstimatorState,
    MMState,
    Observation,
    Ranking,
    RankingFeedback,
    WinnerFeedback,
    confidence_widths,
    cppl_choose,
    mm_fit,
    sgd_update,
)

MODES = st.sampled_from(["winner", "ranking"])


@st.composite
def worlds(draw):
    """Arms n, dimension d, subset size k, rounds T, a relabelling and a stream seed."""
    n = draw(st.integers(2, 8))
    return (n, draw(st.integers(1, 6)), draw(st.integers(1, n)), draw(st.integers(1, 40)),
            np.array(draw(st.permutations(range(n)))), draw(st.integers(0, 2**32 - 1)))


def record_stream(rng, n, d, k, T, mode):
    """T rounds of uniform contexts, uniform subsets and uniform feedback on them."""
    stream = []
    for _ in range(T):
        features = rng.uniform(size=(d, n))
        order = [int(i) for i in rng.choice(n, size=k, replace=False)]
        feedback = (WinnerFeedback(order[0]) if mode == "winner"
                    else RankingFeedback(Ranking(order)))
        stream.append((features, tuple(order), feedback))
    return stream


def relabel(stream, perm):
    """The same rounds with arm i called ``perm[i]``: its column, its membership, its place."""
    inverse = np.argsort(perm)
    out = []
    for features, subset, feedback in stream:
        if isinstance(feedback, WinnerFeedback):
            feedback = WinnerFeedback(int(perm[feedback.arm]))
        else:
            feedback = RankingFeedback(Ranking([int(perm[i]) for i in feedback.ranking.ordering]))
        out.append((features[:, inverse], tuple(int(perm[i]) for i in subset), feedback))
    return out


def replay_estimator(stream, theta0):
    state = EstimatorState(theta_hat=theta0, theta_bar=theta0.copy(), t=0,
                           S_accum=np.zeros((theta0.size,) * 2),
                           V_accum=np.zeros((theta0.size,) * 2), gamma1=2.0, alpha=0.6)
    for features, subset, feedback in stream:
        state = sgd_update(state, Observation(feedback, subset, ContextMatrix(features)))
    return state


def replay_mm(stream, n):
    state = MMState.uniform(n)
    for _, subset, feedback in stream:
        state = state.record(subset, feedback)
    return state


def tight_fit(state):
    return mm_fit(state, max_iters=5000, tol=1e-14).weights


@settings(max_examples=100, deadline=None)
@given(world=worlds(), mode=MODES)
def test_relabelled_arms_give_the_same_estimate_and_relabelled_choices(world, mode):
    n, d, k, T, perm, seed = world
    rng = np.random.default_rng(seed)
    stream = record_stream(rng, n, d, k, T, mode)
    theta0 = rng.uniform(size=d)
    state = replay_estimator(stream, theta0)
    moved = replay_estimator(relabel(stream, perm), theta0)
    if mode == "ranking":
        assert moved.theta_bar.tobytes() == state.theta_bar.tobytes()
    else:
        scale = max(np.abs(state.theta_bar).max(), 1.0)
        assert np.abs(moved.theta_bar - state.theta_bar).max() <= 1e-12 * scale
    # Max-Theta (omega = 0) on a fresh context of the relabelled world.
    features = rng.uniform(size=(d, n))
    context, moved_context = ContextMatrix(features), ContextMatrix(features[:, np.argsort(perm)])
    for size in range(1, n):
        choice = cppl_choose(state, context, size, 0.0).subset
        moved_choice = cppl_choose(moved, moved_context, size, 0.0).subset
        assert moved_choice == tuple(sorted(int(perm[i]) for i in choice))


@st.composite
def cppl_worlds(draw):
    """As ``worlds`` without d, with enough rounds of two or more arms for
    CPPL to carry its inverse."""
    n = draw(st.integers(3, 8))
    return (n, draw(st.integers(2, n)), draw(st.integers(12, 30)),
            np.array(draw(st.permutations(range(n)))), draw(st.integers(0, 2**32 - 1)))


def ucb_scores(state, context):
    """The scores ``cppl_choose`` ranks at omega = 1: logits before the first update."""
    if state.t == 0:
        return state.theta_bar @ context.features
    cw = confidence_widths(state, context, 1.0)
    return cw.utilities + cw.widths


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("mode", ["winner", "ranking"])
@settings(max_examples=20, deadline=None)
@given(world=cppl_worlds())
def test_relabelled_arms_relabel_the_cppl_choices(world, mode, d):
    # The recorded rounds teach both learners; at every round, each subset
    # size whose k-th and (k+1)-th scores are apart is chosen relabelled.
    n, k, T, perm, seed = world
    rng = np.random.default_rng(seed)
    stream = record_stream(rng, n, d, k, T, mode)
    policy, moved = (CPPLPolicy(d, np.random.default_rng(seed), omega=1.0) for _ in range(2))
    compared = 0
    for (features, subset, feedback), (moved_features, moved_subset, moved_feedback) in zip(
        stream, relabel(stream, perm)
    ):
        context, moved_context = ContextMatrix(features), ContextMatrix(moved_features)
        ranked = np.sort(ucb_scores(policy.state, context))[::-1]
        for size in range(1, n):
            kth, next_ = ranked[size - 1], ranked[size]
            if kth - next_ > 1e-9 * max(abs(kth), abs(next_)):
                choice = policy.choose(context, size).subset
                moved_choice = moved.choose(moved_context, size).subset
                assert moved_choice == tuple(sorted(int(perm[i]) for i in choice))
                compared += 1
        policy.update(feedback, subset, context)
        moved.update(moved_feedback, moved_subset, moved_context)
    assert policy.state.S_accum_inv is not None  # the carried path ran
    assert compared >= T


@settings(max_examples=100, deadline=None)
@given(world=worlds(), mode=MODES)
def test_relabelled_arms_permute_the_mm_weights(world, mode):
    n, d, k, T, perm, seed = world
    stream = record_stream(np.random.default_rng(seed), n, d, k, T, mode)
    weights = tight_fit(replay_mm(stream, n))
    moved = tight_fit(replay_mm(relabel(stream, perm), n))
    assert np.abs(moved[perm] - weights).max() <= 1e-10


@settings(max_examples=100, deadline=None)
@given(world=worlds(), mode=MODES)
def test_recording_order_changes_no_mm_statistic(world, mode):
    n, d, k, T, perm, seed = world
    rng = np.random.default_rng(seed)
    stream = record_stream(rng, n, d, k, T, mode)
    state = replay_mm(stream, n)
    shuffled = replay_mm([stream[i] for i in rng.permutation(T)], n)
    assert np.array_equal(shuffled.wins, state.wins)
    assert shuffled.set_counts == state.set_counts
    assert shuffled.observations == state.observations == T
    assert np.abs(tight_fit(shuffled) - tight_fit(state)).max() <= 1e-10
