"""Ground-truth simulators and regret accounting.

Two worlds drive the benchmark:

* A synthetic world where the hidden parameter and every per-round
  feature entry are drawn i.i.d. uniform from [0, 1].
* An algorithm-selection world built from a precomputed runtime table:
  problem instances arrive in shuffled order without replacement, the
  per-arm context is the Kronecker product of (preprocessed) instance
  features and solver features, and the true utility of solver i on the
  current instance is ``exp(-lam * runtime)`` so faster solvers are
  preferred.

Instance features pass through a fixed preprocessing pipeline before the
run: min-max scaling to [0, 1], a variance filter, and greedy pruning of
highly correlated columns.

Regret for a chosen subset is the relative utility gap between the
overall best arm and the best arm inside the subset; it vanishes
whenever the best arm was preselected.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .likelihood import Feedback, RankingFeedback, WinnerFeedback
from .plackett_luce import (
    ContextMatrix,
    UtilityVector,
    _check_int,
    _check_k,
    _check_setting,
    _check_subset,
    _unchecked,
    sample_partial_ranking,
    sample_winner,
)

__all__ = [
    "SyntheticScenario",
    "RuntimeTable",
    "instant_regret",
    "preprocess_features",
    "sample_feedback",
    "SyntheticEnvironment",
    "AlgoSelectEnvironment",
    "load_runtime_table",
    "load_solver_features",
    "bundled_solver_features",
    "VARIANCE_THRESHOLD",
    "CORRELATION_THRESHOLD",
]

VARIANCE_THRESHOLD = 0.01
CORRELATION_THRESHOLD = 0.95


def _check_world_size(T: int, d: int | None = None) -> None:
    """The one world-size rule: integers ``T >= 0`` and ``d >= 1`` (d None: the data set it)."""
    if d is not None and _check_int(d, "d") < 1:
        raise ValueError("d must be >= 1")
    if _check_int(T, "T") < 0:
        raise ValueError("T must be nonnegative")


def _check_seed(seed: int) -> None:
    """The one seed rule: an integer ``>= 0``, as numpy's ``SeedSequence`` requires."""
    if _check_int(seed, "seed") < 0:
        raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SyntheticScenario:
    """Parameters of a synthetic contextual world."""

    n: int
    d: int
    k: int
    T: int
    theta_star: np.ndarray
    seed: int

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        _check_seed(self.seed)
        _check_k(self.k, self.n)
        _check_world_size(self.T, self.d)
        if theta.shape != (self.d,):
            raise ValueError("theta_star must have dimension d")
        if not (np.all(theta >= 0) and np.all(theta <= 1)):
            raise ValueError("theta_star entries must lie in [0, 1]")
        object.__setattr__(self, "theta_star", theta)

    @classmethod
    def draw(
        cls, n: int, d: int, k: int, T: int, seed: int, rng: np.random.Generator
    ) -> "SyntheticScenario":
        """Scenario with a fresh hidden parameter drawn uniformly from [0, 1]^d."""
        return cls(n=n, d=d, k=k, T=T, theta_star=rng.uniform(size=d), seed=seed)


def instant_regret(true_utils: UtilityVector, subset) -> float:
    """Relative utility gap between the best arm and the best arm in ``subset``.

    Zero whenever the best arm (lowest index under exact ties) is
    preselected; always in [0, 1].
    """
    members = _check_subset(subset, len(true_utils))
    logs = true_utils.log_values
    return 1.0 - float(np.exp(logs[list(members)].max() - logs.max()))


# ---------------------------------------------------------------------------
# Algorithm-selection world
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeTable:
    """Measured solver runtimes plus instance and solver feature vectors.

    ``runtimes[s, i]`` is the nonnegative runtime (seconds) of solver i
    on instance s.  ``instance_features`` has one row per instance,
    ``solver_features`` one row per solver.
    """

    runtimes: np.ndarray
    instance_features: np.ndarray
    solver_features: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.runtimes, dtype=float)
        F = np.asarray(self.instance_features, dtype=float)
        A = np.asarray(self.solver_features, dtype=float)
        if R.ndim != 2 or F.ndim != 2 or A.ndim != 2:
            raise ValueError("runtimes and feature tables must be matrices")
        if F.shape[0] != R.shape[0]:
            raise ValueError("one instance-feature row per runtime row required")
        if A.shape[0] != R.shape[1]:
            raise ValueError("one solver-feature row per runtime column required")
        if not (np.all(np.isfinite(R)) and np.all(R >= 0)):
            raise ValueError("runtimes must be finite and nonnegative")
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(A))):
            raise ValueError("feature tables must be finite")
        object.__setattr__(self, "runtimes", R)
        object.__setattr__(self, "instance_features", F)
        object.__setattr__(self, "solver_features", A)

    @property
    def num_instances(self) -> int:
        return self.runtimes.shape[0]

    @property
    def num_solvers(self) -> int:
        return self.runtimes.shape[1]

    @cached_property
    def _preprocessed(self) -> tuple["RuntimeTable", list[int]]:
        """This table with preprocessed instance features, and the kept columns.

        Computed on first use and kept with the table, so the repetitions
        of an experiment, which share one loaded table, fit it once.  The
        scaled features are finite, so the copy skips the table's checks.
        """
        reduced, kept = preprocess_features(self.instance_features)
        return _unchecked(RuntimeTable, runtimes=self.runtimes, instance_features=reduced,
                          solver_features=self.solver_features), kept


def preprocess_features(raw: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Scale, variance-filter, and decorrelate a feature matrix.

    Steps, fitted on the full matrix:

    1. Min-max scale each column to [0, 1]; constant columns map to 0.
    2. Drop columns with variance below 0.01.
    3. While the most correlated remaining pair exceeds |r| = 0.95,
       remove the member with the larger mean absolute correlation to
       the other remaining columns (ties: the larger column index).

    Returns the reduced matrix and the surviving original column
    indices, in order.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 2 or not np.isfinite(raw).all():
        raise ValueError("need a matrix with at least 2 rows, all entries finite")
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    span = hi - lo
    constant = span == 0
    span = np.where(constant, 1.0, span)
    scaled = (raw - lo) / span
    scaled[:, constant] = 0.0

    keep = [j for j in range(scaled.shape[1]) if np.var(scaled[:, j]) >= VARIANCE_THRESHOLD]

    while len(keep) >= 2:
        corr = np.abs(np.corrcoef(scaled[:, keep], rowvar=False))
        np.fill_diagonal(corr, 0.0)
        a, b = np.unravel_index(np.argmax(corr), corr.shape)
        if corr[a, b] <= CORRELATION_THRESHOLD:
            break
        # Victim: larger mean |correlation| to the other remaining columns;
        # on a tie, the larger original column index.
        m = len(keep)
        mean_a = corr[a].sum() / (m - 1)
        mean_b = corr[b].sum() / (m - 1)
        if mean_a > mean_b:
            victim = a
        elif mean_b > mean_a:
            victim = b
        else:
            victim = a if keep[a] > keep[b] else b
        keep.pop(victim)

    return scaled[:, keep], list(keep)


def sample_feedback(
    true_utils: UtilityVector, subset, mode: str, rng: np.random.Generator
) -> Feedback:
    """Draw winner or partial-ranking feedback for the chosen subset."""
    if mode == "winner":
        return WinnerFeedback(sample_winner(true_utils, subset, rng))
    if mode == "ranking":
        return RankingFeedback(sample_partial_ranking(true_utils, subset, rng))
    raise ValueError(f"unknown feedback mode: {mode!r}")


# ---------------------------------------------------------------------------
# Environment wrappers used by the harness
# ---------------------------------------------------------------------------


class SyntheticEnvironment:
    """Synthetic world with a hidden parameter and a fresh context per round."""

    def __init__(self, scenario: SyntheticScenario):
        self.scenario = scenario

    @property
    def n(self) -> int:
        return self.scenario.n

    @property
    def d(self) -> int:
        return self.scenario.d

    def round(self, t: int) -> tuple[ContextMatrix, UtilityVector]:
        """Fresh d x n context with i.i.d. uniform [0, 1] entries, and its true utilities.

        The draw comes from a child stream of ``(scenario.seed, t)`` alone,
        so the same round always yields the same matrix, however many
        draws other rounds or the policy consumed.  Uniform draws and a
        ``theta_star`` in [0, 1]^d are finite, so neither value is rechecked.
        """
        sc = self.scenario
        t = _check_int(t, "round index")
        if t < 1 or (sc.T > 0 and t > sc.T):
            raise ValueError(f"round index {t} outside 1..{sc.T}")
        stream = np.random.SeedSequence(entropy=sc.seed, spawn_key=(3, t))
        # ``random`` draws the bits of ``uniform(size=...)`` (0 + 1 * x), without its scaling.
        features = np.random.default_rng(stream).random((sc.d, sc.n))
        return (_unchecked(ContextMatrix, features=features),
                _unchecked(UtilityVector, log_values=sc.theta_star @ features))


class AlgoSelectEnvironment:
    """Algorithm-selection world over a runtime table.

    Instance features are preprocessed once per table, however many
    environments share it; the instance order is a fresh shuffle (without
    replacement) from ``rng``.  A table that preprocessing cannot use
    (one row, or no column left) is a ``ValueError``; a ``lam`` whose
    ``-lam * runtime`` overflows is an ``OverflowError``.
    """

    def __init__(self, table: RuntimeTable, lam: float, rng: np.random.Generator):
        lam = _check_setting("lam", lam)
        # Rounding is monotone, so the largest runtime bounds every cell's product.
        largest = float(table.runtimes.max(initial=0.0))
        if not np.isfinite(lam * largest):
            raise OverflowError(f"lambda={lam!r} times the largest runtime, {largest!r}, "
                                "overflows; lower lambda or rescale the runtimes")
        self.table, self.kept_columns = table._preprocessed
        if not self.kept_columns:
            raise ValueError(
                f"no instance-feature column has variance >= {VARIANCE_THRESHOLD} after scaling"
            )
        self.lam = lam
        self.order = rng.permutation(table.num_instances)

    @property
    def n(self) -> int:
        return self.table.num_solvers

    @property
    def d(self) -> int:
        return self.table.instance_features.shape[1] * self.table.solver_features.shape[1]

    @property
    def max_rounds(self) -> int:
        return self.table.num_instances

    def round(self, t: int) -> tuple[ContextMatrix, UtilityVector]:
        """Context and true utilities for round ``t``, on instance ``order[t-1]``.

        Arm i's feature vector is the Kronecker product of the instance
        features and solver i's features (instance entries vary slowest),
        and its true utility is ``exp(-lam * runtime)``.  Neither value is
        rechecked: the preprocessed instance features lie in [0, 1], the
        solver features are checked finite, and the constructor bounds
        ``lam`` times the largest runtime.
        """
        t = _check_int(t, "round index")
        if t < 1 or t > self.order.size:
            raise RuntimeError(
                f"environment exhausted: round {t} of {self.order.size} available instances"
            )
        table = self.table
        row = int(self.order[t - 1])
        features = table.instance_features[row][:, None, None] * table.solver_features.T
        return (_unchecked(ContextMatrix, features=features.reshape(-1, table.num_solvers)),
                _unchecked(UtilityVector, log_values=-self.lam * table.runtimes[row]))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _read_csv(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header (names distinct) and nonblank rows (at least one) of a CSV, each row with its line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [(reader.line_num, row) for row in reader if row]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    columns: dict[str, int] = {}
    for column, name in enumerate(header, 1):
        if columns.setdefault(name, column) != column:
            raise ValueError(f"{path}: column {name!r} repeated "
                             f"in columns {columns[name]} and {column}")
    return header, rows


def _read_keyed(path: str | Path, nonnegative: bool = False) -> tuple[list[str], np.ndarray]:
    """The ids and the float cells of a CSV whose first column is ``instance_id``.

    Files are aligned by id, so an id on two lines is an error naming both.
    """
    header, rows = _read_csv(path)
    if header[:1] != ["instance_id"]:
        raise ValueError(f"{path}: first column must be instance_id")
    lines: dict[str, int] = {}
    for line, row in rows:
        if lines.setdefault(row[0], line) != line:
            raise ValueError(f"{path}: instance_id {row[0]!r} repeated "
                             f"on lines {lines[row[0]]} and {line}")
    return list(lines), _float_matrix(path, header, rows, skip=1, nonnegative=nonnegative)


def _float_matrix(
    path: str | Path, header: list[str], rows: list[tuple[int, list[str]]], skip: int = 0,
    nonnegative: bool = False,
) -> np.ndarray:
    """Each row's cells after the first ``skip`` as finite (and, if asked, nonnegative)
    floats; errors name file and line."""
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line}: expected {len(header)} fields, found {len(row)}"
            )
    try:
        matrix = np.array([row[skip:] for _, row in rows], dtype=float)
    except ValueError:
        for line, row in rows:  # find the first row that does not parse
            try:
                np.array(row[skip:], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
        raise
    ok = np.isfinite(matrix) & (matrix >= 0) if nonnegative else np.isfinite(matrix)
    if not ok.all():
        r, c = np.argwhere(~ok)[0]  # the first bad cell, in file order
        line, row = rows[r]
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise ValueError(
            f"{path}: line {line}: {header[skip + c]} value {row[skip + c]!r} must be {rule}"
        )
    return matrix


def load_runtime_table(
    runtimes_path: str | Path,
    instance_features_path: str | Path,
    solver_features_path: str | Path | None = None,
) -> RuntimeTable:
    """Load a runtime table from CSV files.

    ``runtimes_path``: header ``instance_id,solver_0,...,solver_{m-1}``,
    one row per instance, each id on one row only.
    ``instance_features_path``: header ``instance_id,f0,...,f{p-1}``,
    with the same ids in the same order.  ``solver_features_path``:
    columns ``alpha,rho,ps,wp``; defaults to the bundled solver
    parametrization fixture.
    """
    ids, runtimes = _read_keyed(runtimes_path, nonnegative=True)
    feat_ids, feats = _read_keyed(instance_features_path)
    if feat_ids != ids:
        raise ValueError("instance_id mismatch between runtime and instance-feature files")
    if solver_features_path is None:
        solver = bundled_solver_features()
    else:
        solver = load_solver_features(solver_features_path)
    if solver.shape[0] != runtimes.shape[1]:
        source = solver_features_path or "the bundled solver features"
        raise ValueError(f"{runtimes_path} has {runtimes.shape[1]} solver columns, "
                         f"but {source} has {solver.shape[0]} solver rows")
    return RuntimeTable(runtimes=runtimes, instance_features=feats, solver_features=solver)


def load_solver_features(path: str | Path) -> np.ndarray:
    """Load solver feature rows from a CSV with columns alpha,rho,ps,wp."""
    header, rows = _read_csv(path)
    if header != ["alpha", "rho", "ps", "wp"]:
        raise ValueError(f"{path}: expected header alpha,rho,ps,wp")
    return _float_matrix(path, header, rows)


def bundled_solver_features() -> np.ndarray:
    """The 20 bundled solver parametrizations (alpha, rho, ps, wp rows)."""
    ref = resources.files("preselect").joinpath("data/saps_parametrizations.csv")
    with resources.as_file(ref) as path:
        return load_solver_features(path)
