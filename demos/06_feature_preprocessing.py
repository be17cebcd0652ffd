"""The instance-feature preprocessing pipeline, step by step.

Three fitted stages: min-max scaling to [0, 1], a variance filter
(threshold 0.01), and greedy pruning of column pairs whose absolute
Pearson correlation exceeds 0.95.  Of the most correlated pair, the
column that is on average more correlated with everything else is the
one removed; on a tie, the later column.  Columns identical after
scaling, like c1 and c2 below, tie exactly, so they fold to the first
(c1) before the pruning; mirror-image columns (r = -1) are not folded,
and round-off decides between them.
"""

import numpy as np

from preselect import preprocess_features

rng = np.random.default_rng(4)
m = 300

ramp = np.linspace(0, 1, m)
noise = rng.uniform(size=m)
columns = {
    "c0 constant": np.full(m, 42.0),
    "c1 ramp": ramp,
    "c2 copy of ramp": ramp.copy(),
    "c3 ramp + wiggle": ramp + 0.02 * rng.normal(size=m),
    "c4 independent": noise,
    "c5 rare spikes": (rng.uniform(size=m) > 0.995).astype(float),
}
raw = np.column_stack(list(columns.values()))
names = list(columns)

print("raw columns:")
for j, name in enumerate(names):
    print(f"  [{j}] {name:18s} range [{raw[:, j].min():6.2f}, {raw[:, j].max():6.2f}]")

# Stage 1+2: scale, then drop low-variance columns.  Scaling first makes
# the variance threshold scale-free.
lo, hi = raw.min(axis=0), raw.max(axis=0)
span = np.where(hi - lo == 0, 1.0, hi - lo)
scaled = (raw - lo) / span
scaled[:, hi - lo == 0] = 0.0
print("\nvariance after scaling (filter: >= 0.01):")
for j, name in enumerate(names):
    var = np.var(scaled[:, j])
    print(f"  [{j}] {name:18s} {var:.4f} {'drop' if var < 0.01 else 'keep'}")

# Stage 3: correlations among what survives.
survivors = [j for j in range(raw.shape[1]) if np.var(scaled[:, j]) >= 0.01]
corr = np.corrcoef(scaled[:, survivors], rowvar=False)
print("\n|correlation| among variance survivors:")
print(np.round(np.abs(corr), 3))
print("the (c1, c2) pair is exactly 1: c2 is identical to c1, so it folds to c1")
print("(c1, c3) is above 0.95 as well, and the pruning removes c3")

reduced, kept = preprocess_features(raw)
print("\nfinal surviving columns:", [f"[{j}] {names[j]}" for j in kept])
print("reduced shape:", reduced.shape)

pair_corr = np.corrcoef(reduced, rowvar=False)
np.fill_diagonal(pair_corr, 0.0)
print(f"max remaining |correlation|: {np.max(np.abs(pair_corr)):.3f} (<= 0.95)")
print(f"min remaining variance:      {np.var(reduced, axis=0).min():.4f} (>= 0.01)")
