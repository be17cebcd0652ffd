"""Rankings, choice probabilities, and exact sampling.

Walks through the probability model at the heart of the library: latent
utilities over alternatives, the closed-form probability of full and
partial rankings, top-rank marginals, and the sequential sampler that
realizes them exactly.
"""

import itertools

import numpy as np

from preselect import (
    ContextMatrix,
    Ranking,
    UtilityVector,
    contextual_utilities,
    prob_full_ranking,
    prob_partial_ranking,
    prob_top_rank,
    sample_partial_ranking,
    sample_winner,
)

rng = np.random.default_rng(0)

# Four alternatives with hand-picked utilities: alternative 0 is twice as
# strong as 1, and so on down the line.
utils = UtilityVector.from_values([4.0, 2.0, 1.0, 0.5])
print("utilities:", utils.values)

# A ranking maps alternatives to positions; build one from a best-first
# ordering.  Probability mass concentrates on orderings that sort
# utilities descending.
print("\nfull-ranking probabilities (all 24):")
total = 0.0
for perm in itertools.permutations(range(4)):
    p = prob_full_ranking(utils, Ranking(perm))
    total += p
    if perm in [(0, 1, 2, 3), (3, 2, 1, 0)]:
        print(f"  {perm}: {p:.4f}   <-- {'mode' if perm[0] == 0 else 'least likely'}")
print(f"  sum over all rankings: {total:.12f} (should be 1)")

# Marginals: the probability of a partial ranking over a subset has the
# same product form and needs no enumeration of full rankings.
subset = (0, 2, 3)
partial = Ranking((2, 0, 3))
print(f"\nP(ranking 2>0>3 within {subset}) = "
      f"{prob_partial_ranking(utils, subset, partial):.4f}")
print(f"P(arm 2 wins within {subset})    = {prob_top_rank(utils, subset, 2):.4f}")

# Sampling: sequential choice without replacement, proportional to
# utility.  Frequencies converge to the closed-form probabilities.
draws = 20000
wins = np.zeros(4)
for _ in range(draws):
    wins[sample_winner(utils, subset, rng)] += 1
print(f"\nempirical win frequencies over {draws} draws:")
for arm in subset:
    print(f"  arm {arm}: {wins[arm] / draws:.4f} "
          f"(model: {prob_top_rank(utils, subset, arm):.4f})")

one = sample_partial_ranking(utils, subset, rng)
print("one sampled ranking, best first:", one.ordering)

# Contextual utilities: in the online problem the utilities are not
# fixed -- each round supplies a feature column per arm and the utility
# is exp(theta . x).
theta = np.array([1.0, -0.5])
X = ContextMatrix(rng.uniform(size=(2, 4)))
v = contextual_utilities(theta, X)
print("\nper-round contextual utilities:", np.round(v.values, 3))
print("best arm this round:", int(np.argmax(v.values)))
