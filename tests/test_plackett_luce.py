"""Core model tests: probabilities against enumeration oracles, exact sampling."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preselect import (
    ContextMatrix,
    MMState,
    Observation,
    Ranking,
    UtilityVector,
    WinnerFeedback,
    contextual_utilities,
    instant_regret,
    prob_full_ranking,
    prob_partial_ranking,
    prob_top_rank,
    sample_partial_ranking,
    sample_winner,
)
from preselect.selfcheck import (
    linear_extension_sum, pl_exactness_errors, ranking_deviation, winner_deviation,
)


def all_rankings(items):
    return [Ranking(perm) for perm in itertools.permutations(items)]


class TestRanking:
    def test_round_trip(self):
        r = Ranking((4, 1, 7))
        assert r.items == (1, 4, 7)
        assert r.ordering == (4, 1, 7)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Ranking(())
        with pytest.raises(ValueError):
            Ranking((0, 1, 0))
        with pytest.raises(ValueError):
            Ranking((2, 2, 1))
        with pytest.raises(ValueError, match=r"ranking member must be an integer, got 1\.5"):
            Ranking((0, 1.5))

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
    def test_ordering_round_trips(self, ordering):
        r = Ranking(ordering)
        assert list(r.ordering) == ordering
        assert r.items == tuple(sorted(ordering))


class TestContextMatrix:
    def test_shape_and_columns(self, rng):
        X = ContextMatrix(rng.uniform(size=(3, 5)))
        assert (X.d, X.n) == (3, 5)

    def test_rejects_nonfinite(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            ContextMatrix(bad)


class TestContextualUtilities:
    def test_zero_theta_gives_unit_utilities(self, rng):
        X = ContextMatrix(rng.uniform(size=(4, 6)))
        v = contextual_utilities(np.zeros(4), X)
        np.testing.assert_allclose(v.values, np.ones(6))

    def test_orthogonal_column(self):
        X = ContextMatrix(np.array([[0.0, 2.0], [5.0, 1.0]]))
        v = contextual_utilities(np.array([1.0, 0.0]), X)
        assert v.values[0] == pytest.approx(1.0)

    def test_matches_scalar_recomputation(self, rng):
        # Oracle: independent per-entry exp(dot) recomputation.
        theta = rng.normal(size=3)
        X = ContextMatrix(rng.normal(size=(3, 4)))
        v = contextual_utilities(theta, X)
        for i in range(4):
            expected = math.exp(sum(theta[j] * X.features[j, i] for j in range(3)))
            assert v.values[i] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        X = ContextMatrix(rng.uniform(size=(3, 4)))
        with pytest.raises(ValueError):
            contextual_utilities(np.zeros(2), X)

    def test_no_overflow_for_large_logits(self):
        X = ContextMatrix(np.full((1, 3), 1000.0))
        v = contextual_utilities(np.ones(1), X)
        r = Ranking((0, 1, 2))
        assert prob_full_ranking(v, r) == pytest.approx(1.0 / 6.0, rel=1e-9)
        # Spread logits: after the +700 arm leaves, both remaining stages sit
        # ~1400 below the global maximum and must still normalize on their own.
        v = UtilityVector([700.0, -700.0, 0.0, -690.0])
        r = Ranking((0, 3, 1))
        with np.errstate(all="raise", under="ignore"):
            p = prob_partial_ranking(v, (0, 1, 3), r)
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), rel=1e-12)


class TestFullRanking:
    def test_uniform_utilities(self):
        v = UtilityVector.from_values(np.full(3, 2.5))
        for r in all_rankings(range(3)):
            assert prob_full_ranking(v, r) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_single_alternative(self):
        v = UtilityVector.from_values([3.0])
        assert prob_full_ranking(v, Ranking([0])) == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self, rng):
        assert pl_exactness_errors(rng, max_n=5)["full"] <= 1e-12

    def test_mode_sorts_utilities_descending(self, rng):
        for n in range(2, 6):
            vals = rng.uniform(0.1, 3.0, size=n)
            v = UtilityVector.from_values(vals)
            best = max(all_rankings(range(n)), key=lambda r: prob_full_ranking(v, r))
            assert best.ordering == tuple(np.argsort(-vals))

    def test_requires_full_domain(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.5, 1.5, size=4))
        with pytest.raises(ValueError):
            prob_full_ranking(v, Ranking((0, 1, 2)))


class TestPartialRanking:
    def test_singleton_subset(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.5, 1.5, size=4))
        assert prob_partial_ranking(v, (2,), Ranking((2,))) == 1.0

    def test_equal_utilities(self):
        v = UtilityVector.from_values(np.ones(5))
        for r in all_rankings((0, 2, 4)):
            assert prob_partial_ranking(v, (0, 2, 4), r) == pytest.approx(1 / 6, rel=1e-12)

    def test_equals_linear_extension_sum(self, rng):
        # Oracle: enumeration of linear extensions, n=4, |S|=3.
        v = UtilityVector.from_values(rng.uniform(0.1, 3.0, size=4))
        for subset in itertools.combinations(range(4), 3):
            for r in all_rankings(subset):
                direct = prob_partial_ranking(v, subset, r)
                assert direct == pytest.approx(linear_extension_sum(v, subset, r), abs=1e-12)

    def test_domain_mismatch(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.5, 1.5, size=4))
        with pytest.raises(ValueError):
            prob_partial_ranking(v, (0, 1), Ranking((0, 2)))
        with pytest.raises(ValueError):
            prob_partial_ranking(v, (), Ranking((0,)))


class TestTopRank:
    def test_equal_utilities(self):
        v = UtilityVector.from_values(np.ones(6))
        assert prob_top_rank(v, (0, 2, 3, 5), 2) == pytest.approx(0.25)

    def test_singleton(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.5, 1.5, size=4))
        assert prob_top_rank(v, (3,), 3) == pytest.approx(1.0)

    def test_sums_to_one(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.1, 3.0, size=8))
        subset = (0, 2, 4, 5, 7)
        total = sum(prob_top_rank(v, subset, i) for i in subset)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_equals_sum_of_partial_rankings_with_k_first(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.1, 3.0, size=5))
        subset = (1, 2, 4)
        for k in subset:
            brute = sum(
                prob_partial_ranking(v, subset, r)
                for r in all_rankings(subset)
                if r.ordering[0] == k
            )
            assert prob_top_rank(v, subset, k) == pytest.approx(brute, abs=1e-12)

    def test_arm_outside_subset(self, rng):
        v = UtilityVector.from_values(rng.uniform(0.5, 1.5, size=4))
        with pytest.raises(ValueError):
            prob_top_rank(v, (0, 1), 3)

    @pytest.mark.parametrize("arm", [1.5, 1.0, True])
    def test_rejects_non_integer_arm(self, arm):
        v = UtilityVector.from_values([1.0, 2.0])
        with pytest.raises(ValueError, match=f"^arm must be an integer, got {arm!r}$"):
            prob_top_rank(v, (0, 1), arm)


@given(
    st.lists(st.floats(0.05, 20.0), min_size=2, max_size=5),
    st.floats(0.01, 100.0),
)
@settings(max_examples=60)
def test_scale_invariance(values, c):
    """Multiplying all utilities by c > 0 changes no probability."""
    v1 = UtilityVector.from_values(values)
    v2 = UtilityVector.from_values([c * x for x in values])
    n = len(values)
    r = Ranking(tuple(range(n))[::-1])
    assert prob_full_ranking(v1, r) == pytest.approx(prob_full_ranking(v2, r), rel=1e-12)
    subset = tuple(range(min(2, n)))
    pr = Ranking(subset)
    assert prob_partial_ranking(v1, subset, pr) == pytest.approx(
        prob_partial_ranking(v2, subset, pr), rel=1e-12
    )
    assert prob_top_rank(v1, subset, 0) == pytest.approx(
        prob_top_rank(v2, subset, 0), rel=1e-12
    )


class TestSampling:
    def test_singleton_ranking(self, rng):
        v = UtilityVector.from_values(np.ones(3))
        r = sample_partial_ranking(v, (1,), rng)
        assert r.ordering == (1,)

    def test_ranking_frequencies_match_probabilities(self):
        rng = np.random.default_rng(7)
        v = UtilityVector.from_values(np.ones(4))
        subset = (0, 1, 3)
        counts = {}
        draws = 60000
        for _ in range(draws):
            r = sample_partial_ranking(v, subset, rng)
            counts[r.ordering] = counts.get(r.ordering, 0) + 1
        assert len(counts) == 6
        for ordering, count in counts.items():
            assert count / draws == pytest.approx(1 / 6, abs=0.01)

    def test_nonuniform_ranking_frequencies(self):
        assert ranking_deviation(np.random.default_rng(11), 60000, [3.0, 1.0, 0.5]) <= 0.01

    def test_ranking_determinism(self):
        v = UtilityVector.from_values([1.0, 2.0, 0.5, 1.5])
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append([sample_partial_ranking(v, (0, 1, 2, 3), rng).ordering
                         for _ in range(20)])
        assert runs[0] == runs[1]

    def test_winner_singleton(self, rng):
        v = UtilityVector.from_values(np.ones(4))
        assert sample_winner(v, (2,), rng) == 2

    def test_winner_frequencies(self):
        rng = np.random.default_rng(3)
        v = UtilityVector.from_values(np.ones(5))
        subset = (0, 1, 2, 4)
        draws = 100000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[sample_winner(v, subset, rng)] += 1
        for i in subset:
            assert counts[i] / draws == pytest.approx(0.25, abs=0.006)

    def test_nonuniform_winner_frequencies(self):
        # About 5 standard errors at 100,000 draws; a sampler that ignores
        # or inverts the utilities misses by more than 0.4.
        assert winner_deviation(np.random.default_rng(3), 100000, (0.5, 1.0, 2.0, 4.0)) <= 0.008

    def test_zero_weight_arm_is_never_drawn(self):
        # exp(-800) underflows to 0; even u = 0 must pass over it (bisect right).
        class ZeroUniforms:
            def random(self, size):
                return np.zeros(size)

        v = UtilityVector(np.array([-800.0, 0.0]))
        assert sample_winner(v, (0, 1), ZeroUniforms()) == 1
        assert sample_partial_ranking(v, (0, 1), ZeroUniforms()).ordering == (1, 0)

    def test_winner_determinism(self):
        v = UtilityVector.from_values([1.0, 2.0, 3.0])
        seq1 = [sample_winner(v, (0, 1, 2), np.random.default_rng(5)) for _ in range(1)]
        rng_a, rng_b = np.random.default_rng(41), np.random.default_rng(41)
        seq_a = [sample_winner(v, (0, 1, 2), rng_a) for _ in range(50)]
        seq_b = [sample_winner(v, (0, 1, 2), rng_b) for _ in range(50)]
        assert seq_a == seq_b


def oracle_categorical(logits, rng):
    """Reference stage draw in numpy, one ``rng.random()`` per call.

    Softmax shifted by the stage's maximum, then an inverse-CDF draw on
    the normalized cumulative sum.
    """
    shifted = np.exp(logits - np.max(logits))
    probs = shifted / shifted.sum()
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, probs.size - 1)


def oracle_ranking(utilities, subset, rng):
    remaining = sorted(subset)
    ordering = []
    for _ in range(len(remaining)):
        ordering.append(remaining.pop(oracle_categorical(utilities.log_values[remaining], rng)))
    return tuple(ordering)


def oracle_winner(utilities, subset, rng):
    members = sorted(subset)
    return members[oracle_categorical(utilities.log_values[members], rng)]


ORACLE_LOG_UTILITIES = {
    "uniform": lambda rng, n: np.zeros(n),
    "normal": lambda rng, n: rng.normal(size=n),
    # Ties at the extremes: every -700 arm weighs exactly 0 beside a +700 one.
    "plus-minus-700": lambda rng, n: rng.choice([-700.0, 700.0], size=n),
    # Gaps past 745 underflow a shifted weight to 0 until its stage comes.
    "spread-700": lambda rng, n: rng.uniform(-700.0, 700.0, size=n),
}


class TestSamplerOracle:
    """Both samplers against the per-stage numpy oracle on twin generators.

    Each case makes 10,000 draws on random subsets of 12 arms, of sizes 1
    to 8 in turn.  The samplers must return what the oracle returns and
    leave the stream where it does: one uniform per stage, so the next
    ``rng.random()`` agrees after each draw.
    """

    @pytest.mark.parametrize("kind", sorted(ORACLE_LOG_UTILITIES))
    @pytest.mark.parametrize("sampler, oracle", [
        (lambda *a: sample_partial_ranking(*a).ordering, oracle_ranking),
        (sample_winner, oracle_winner),
    ], ids=["ranking", "winner"])
    def test_matches_oracle_draw_for_draw(self, kind, sampler, oracle):
        setup = np.random.default_rng(17)
        orders = setup.random((10_000, 12)).argsort(axis=1).tolist()
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for draw, order in enumerate(orders):
            if draw % 50 == 0:
                utils = UtilityVector(ORACLE_LOG_UTILITIES[kind](setup, 12))
            subset = order[: draw % 8 + 1]
            assert sampler(utils, subset, rng) == oracle(utils, subset, twin)
            assert rng.random() == twin.random()


def subset_entries():
    """Every public entry that takes a subset, as a call on the subset over n=4 arms."""
    utils = UtilityVector.from_values([1.0, 2.0, 3.0, 4.0])
    context = ContextMatrix(np.ones((2, 4)))
    rng = np.random.default_rng(0)
    return {
        "sample_winner": lambda s: sample_winner(utils, s, rng),
        "sample_partial_ranking": lambda s: sample_partial_ranking(utils, s, rng),
        "prob_top_rank": lambda s: prob_top_rank(utils, s, 0),
        "prob_partial_ranking": lambda s: prob_partial_ranking(
            utils, s, Ranking((1, 0))
        ),
        "Observation": lambda s: Observation(WinnerFeedback(0), s, context).subset,
        "MMState.record": lambda s: MMState.uniform(4).record(s, WinnerFeedback(0)),
        "instant_regret": lambda s: instant_regret(utils, s),
    }


class TestSubsetRule:
    """One rule for a subset of n arms: nonempty, distinct, inside [0, n)."""

    @pytest.mark.parametrize("entry", sorted(subset_entries()))
    @pytest.mark.parametrize(
        "subset, message",
        [
            ((), "subset must be nonempty"),
            ((0, 2, 0), "subset members must be distinct"),
            ((-1, 0), r"subset members must lie in \[0, 4\)"),
            ((0, 4), r"subset members must lie in \[0, 4\)"),
            ((0, 2.7), r"subset member must be an integer, got 2\.7"),
            ((True, 2), "subset member must be an integer, got True"),
        ],
        ids=["empty", "repeated", "negative", "too-large", "float", "bool"],
    )
    def test_every_entry_rejects_a_bad_subset(self, entry, subset, message):
        with pytest.raises(ValueError, match=message):
            subset_entries()[entry](subset)

    @pytest.mark.parametrize("entry", sorted(subset_entries()))
    def test_every_entry_accepts_unsorted_numpy_members(self, entry):
        subset_entries()[entry](np.array([1, 0]))

    def test_observation_stores_sorted_python_ints(self):
        subset = subset_entries()["Observation"](np.array([3, 0, 1]))
        assert subset == (0, 1, 3) and all(type(i) is int for i in subset)
