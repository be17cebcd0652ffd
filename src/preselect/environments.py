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

The table's CSV files are each parsed in one numpy pass, ids and numbers
alike; a file that breaks a rule is then scanned line by line, only to
name the file, line and column (or a non-UTF-8 byte's offset) at fault.

Regret for a chosen subset is the relative utility gap between the
overall best arm and the best arm inside the subset; it vanishes
whenever the best arm was preselected.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import NoReturn

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

    Columns that are identical after scaling, bit for bit, are folded to
    the first of them before step 3.  That is step 3's own outcome: an
    identical pair has |r| = 1, the largest value, and equal mean
    correlations, so the rule removes every later copy first.  Computed,
    the two means can differ in the last bits, and round-off would pick
    the copy.  Mirror-image columns (r = -1, but not identical after
    scaling) are not folded, so round-off still decides between them.
    The correlation matrix is computed once; each removal deletes its
    column's row and column.

    Returns the reduced matrix and the surviving original column
    indices, in order.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 2 or not np.isfinite(raw).all():
        raise ValueError("need a matrix with at least 2 rows, all entries finite")
    lo = raw.min(axis=0)
    span = raw.max(axis=0) - lo
    scaled = np.divide(raw - lo, span, out=np.zeros_like(raw), where=span > 0)
    # One contiguous row per column: each variance sums in ``np.var``'s order
    # for that column, and each column's bytes are one value for ``np.unique``.
    columns = scaled.T.copy()
    _, first = np.unique(columns.view(np.dtype((np.void, columns.itemsize * columns.shape[1]))),
                         return_index=True)
    first.sort()
    keep = first[columns[first].var(axis=1) >= VARIANCE_THRESHOLD].tolist()
    if len(keep) > 1:
        corr = np.abs(np.corrcoef(scaled[:, keep], rowvar=False))
        np.fill_diagonal(corr, 0.0)
        while True:  # a single column's matrix is [[0]], which ends the loop
            a, b = np.unravel_index(np.argmax(corr), corr.shape)
            if corr[a, b] <= CORRELATION_THRESHOLD:
                break
            mean_a, mean_b = corr[[a, b]].sum(axis=1) / (len(keep) - 1)
            victim = max((mean_a, a), (mean_b, b))[1]  # on a tie, the larger index
            keep.pop(victim)
            corr = np.delete(np.delete(corr, victim, axis=0), victim, axis=1)
    return scaled[:, keep], keep


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


# numpy's ``SeedSequence`` hash constants, and the rounds that share one seed-word block.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy mixer's hash chain
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # ``generate_state``'s hash chain
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # the mixer's two multipliers
_BLOCK = 256


def _words(value: int) -> list[int]:
    """``value``'s 32-bit words, least significant first (0 is one word), as numpy splits it."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(values: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """numpy's ``SeedSequence`` hash of the columns of ``values``, in turn, along the
    32-bit chain ``h -> h * mult``, and the chain's last link.

    Column j is xor-ed with the chain's j-th link, multiplied by the next
    one and xor-ed with itself shifted right by 16.
    """
    links = [h]
    for _ in range(values.shape[-1]):
        links.append(links[-1] * mult & _MASK32)
    hashed = (values ^ np.array(links[:-1], np.uint32)) * np.array(links[1:], np.uint32)
    return hashed ^ (hashed >> 16), links[-1]


def _key_prefix(seed: int) -> tuple[np.ndarray, int]:
    """The pool and hash constant that every ``SeedSequence(seed, spawn_key=(3, t))``
    reaches after mixing in the seed and the key word 3, before t.

    The pool is ``SeedSequence(seed, spawn_key=(3,))``'s.  The mixer has
    hashed 16 words for the seed's first 4 (padded) words and their
    cross-mix, then 4 for each later seed word and for the 3.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(3,)).pool
    hashes = 16 + 4 * (max(4, len(_words(seed))) - 3)
    return pool, _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32


def _block_seed_words(prefix: tuple[np.ndarray, int], block: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(3, t)).generate_state(4, np.uint64)`` for the
    256 rounds ``t = 256 * block + i``, row i, computed as numpy computes it.

    From the seed's ``_key_prefix``, each of t's 32-bit words is hashed
    into the four pool words, and the pool is hashed out into eight state
    words.  Within the block only t's low word varies, so each step runs
    over the block as one wrapping ``uint32`` array operation; the hash
    chain stays in Python ints, which cannot overflow.
    """
    pool, h = prefix
    t_words = np.array(_words(_BLOCK * block), np.uint32)[:, None].repeat(_BLOCK, axis=1)
    t_words[0] += np.arange(_BLOCK, dtype=np.uint32)
    for word in t_words:
        hashed, h = _hash(word[:, None].repeat(4, axis=1), h, _MULT_A)
        mixed = pool * _MIX_L - hashed * _MIX_R
        pool = mixed ^ (mixed >> 16)
    state, _ = _hash(np.tile(pool, 2), _INIT_B, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 one round's precomputed
    ``generate_state(4, np.uint64)``, the only call PCG64 makes.

    Defined at the first round, not at import: importing ``numpy.random``
    ahead of the rest of the package raised peak RSS for every run.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


class SyntheticEnvironment:
    """Synthetic world with a hidden parameter and a fresh context per round."""

    def __init__(self, scenario: SyntheticScenario):
        self.scenario = scenario
        self._prefix = None  # the seed's ``_key_prefix``, built at the first round
        self._block = (-1, None)  # (block index, its rounds' seed words)

    @property
    def n(self) -> int:
        return self.scenario.n

    @property
    def d(self) -> int:
        return self.scenario.d

    def round(self, t: int) -> tuple[ContextMatrix, UtilityVector]:
        """Fresh d x n context with i.i.d. uniform [0, 1] entries, and its true utilities.

        The draw is numpy's, bit for bit:
        ``default_rng(SeedSequence(entropy=seed, spawn_key=(3, t))).random((d, n))``.
        It depends on ``(scenario.seed, t)`` alone, so the same round always
        yields the same matrix, in any call order, however many draws other
        rounds or the policy consumed.  The sequence itself is not built:
        its PCG64 seed words are derived 256 rounds at a time and kept for
        the current block.  Uniform draws and a ``theta_star`` in [0, 1]^d
        are finite, so neither value is rechecked.
        """
        sc = self.scenario
        t = _check_int(t, "round index")
        if t < 1 or (sc.T > 0 and t > sc.T):
            raise ValueError(f"round index {t} outside 1..{sc.T}")
        block, row = divmod(t, _BLOCK)
        index, words = self._block
        if index != block:
            if self._prefix is None:
                self._prefix = _key_prefix(sc.seed)
            words = _block_seed_words(self._prefix, block)
            self._block = (block, words)
        rng = np.random.Generator(np.random.PCG64(_seed_words_type()(words[row])))
        # ``random`` draws the bits of ``uniform(size=...)`` (0 + 1 * x), without its scaling.
        features = rng.random((sc.d, sc.n))
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


_FIELD_LIMIT = 131_072  # the longest cell, in characters (the csv module's default limit)
_CSV = dict(delimiter=",", quotechar='"', comments=None)  # the one CSV dialect, for numpy's parser


def _read_table(
    path: str | Path, columns: list[str] | None = None, nonnegative: bool = False
) -> tuple[list[str], np.ndarray]:
    """The ids and the number cells of a CSV table, parsed in one numpy C pass.

    A keyed table (``columns`` None) has ``instance_id`` as its first
    column, and its ids are returned; otherwise the header must be
    ``columns`` and the id list is empty.  Every cell after the ids must be
    a decimal number that numpy reads (the same double as Python's
    ``float``), finite, and nonnegative if asked; no cell may hold more
    than ``_FIELD_LIMIT`` characters.  A table that breaks a rule is
    handed to ``_explain``, whose line-by-line scan raises the error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse(data, columns, nonnegative)
    except (ValueError, csv.Error) as exc:  # decoding, the header, numpy's parser, or a rule
        _explain(path, columns, nonnegative, exc)


def _parse(
    data: bytes, columns: list[str] | None, nonnegative: bool
) -> tuple[list[str], np.ndarray]:
    """``_read_table``'s fast path: a ``ValueError`` or ``csv.Error`` if any rule fails.

    The header is csv's first record.  The data rows go to ``np.loadtxt``
    as one structured row type, the id as a string and the cells as
    floats, so its parser checks each row's field count and every number.
    A line of line breaks alone is blank, for csv and numpy alike; one
    data line is looked for first, since ``loadtxt`` warns on no data.
    """
    lines = io.StringIO(data.decode("utf-8-sig"), newline="")
    header = next(csv.reader(lines), None)
    start = lines.tell()
    first = next((line for line in lines if line.strip("\r\n")), None)
    keyed = columns is None
    if (header is None or first is None or len(set(header)) < len(header)
            or (header[:1] != ["instance_id"] if keyed else header != columns)):
        raise ValueError("no header, a header that breaks a rule, or no data rows")
    row = [("id", object)] * keyed + [("cells", float, (len(header) - keyed,))]
    table = np.loadtxt(itertools.chain([first], lines), dtype=row, ndmin=1, **_CSV)
    ids = table["id"].tolist() if keyed else []
    cells = np.ascontiguousarray(table["cells"])
    ok = np.isfinite(cells) & (cells >= 0) if nonnegative else np.isfinite(cells)
    if not ok.all() or len(set(ids)) < len(ids) or not _cells_fit(data, ids, lines, start):
        raise ValueError("a cell or an id breaks a rule")
    return ids, cells


def _cells_fit(data: bytes, ids: list[str], lines: io.StringIO, start: int) -> bool:
    """Whether no data cell is over ``_FIELD_LIMIT`` characters.

    ``data`` is the file, ``ids`` its ids, and ``lines`` holds its data
    rows from ``start`` on.  The ids are measured.  A number holds no
    comma, so a number cell over the limit spans at least
    ``_FIELD_LIMIT + 1`` comma-free bytes, and with them a whole
    comma-free block of half the limit, aligned to the block size; only
    a file with such a block has every cell measured, through a second
    parse.
    """
    if max(map(len, ids), default=0) > _FIELD_LIMIT:
        return False
    half = _FIELD_LIMIT // 2
    if all(data.find(b",", at, at + half) >= 0 for at in range(0, len(data) - half + 1, half)):
        return True
    lines.seek(start)
    cells = np.loadtxt(lines, dtype=object, ndmin=2, **_CSV)
    return max(map(len, cells.flat)) <= _FIELD_LIMIT


def _csv_rows(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header (names distinct) and nonblank rows (at least one) of a CSV, each row with its line.

    The line-by-line scan behind every load error.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")  # the whole file at once, so a bad byte's offset is the file's
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(exc.object)  # exc.object starts after a byte-order mark
        raise ValueError(f"{path}: not UTF-8 text: byte 0x{data[at]:02x} at offset {at} "
                         f"(line {len(data[:at + 1].splitlines())}): {exc.reason}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        rows = [(reader.line_num, row) for row in reader if row]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
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


def _numbers(rows: list[list[str]]) -> np.ndarray:
    """Cell texts read by ``_parse``'s number parser; a ``ValueError`` if one is not a number."""
    if not rows[0]:
        return np.zeros((len(rows), 0))
    text = "\n".join(",".join('"' + cell.replace('"', '""') + '"' for cell in row) for row in rows)
    return np.loadtxt(io.StringIO(text, newline=""), dtype=float, ndmin=2, **_CSV)


def _reads(cells: list[str]) -> bool:
    """Whether ``_parse``'s number parser reads every one of ``cells``."""
    try:
        _numbers([cells])
    except ValueError:
        return False
    return True


def _explain(
    path: str | Path, columns: list[str] | None, nonnegative: bool, cause: Exception
) -> NoReturn:
    """Raise the first broken rule of a table ``_parse`` rejected, naming file and line.

    Each rule is checked over the whole file before the next: UTF-8 text,
    the cell limit, data rows, distinct column names, the header, distinct
    ids, field counts, numbers, then finite (and nonnegative) values.
    """
    header, rows = _csv_rows(path)
    keyed = columns is None
    if keyed and header[:1] != ["instance_id"]:
        raise ValueError(f"{path}: first column must be instance_id")
    if not keyed and header != columns:
        raise ValueError(f"{path}: expected header {','.join(columns)}")
    if keyed:
        lines: dict[str, int] = {}
        for line, row in rows:
            if lines.setdefault(row[0], line) != line:
                raise ValueError(f"{path}: instance_id {row[0]!r} repeated "
                                 f"on lines {lines[row[0]]} and {line}")
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line}: expected {len(header)} fields, found {len(row)}"
            )
    skip = int(keyed)
    try:
        matrix = _numbers([row[skip:] for _, row in rows])
    except ValueError:  # the first cell that is not a number, by row and then by cell
        line, row = next((line, row) for line, row in rows if not _reads(row[skip:]))
        name, cell = next((name, cell) for name, cell in zip(header[skip:], row[skip:])
                          if not _reads([cell]))
        raise ValueError(
            f"{path}: line {line}: {name} value {cell!r} is not a decimal number"
        ) from None
    ok = np.isfinite(matrix) & (matrix >= 0) if nonnegative else np.isfinite(matrix)
    if not ok.all():
        r, c = np.argwhere(~ok)[0]  # the first bad cell, in file order
        line, row = rows[r]
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise ValueError(
            f"{path}: line {line}: {header[skip + c]} value {row[skip + c]!r} must be {rule}"
        )
    raise ValueError(f"{path}: {cause}") from cause


def load_runtime_table(
    runtimes_path: str | Path,
    instance_features_path: str | Path,
    solver_features_path: str | Path | None = None,
) -> RuntimeTable:
    """Load a runtime table from CSV files.

    ``runtimes_path``: header ``instance_id,solver_0,...,solver_{m-1}``, one
    row per instance, each id on one row only, runtimes finite and
    nonnegative.  ``instance_features_path``: header
    ``instance_id,f0,...,f{p-1}``, finite cells, with the same ids in the
    same order; a mismatch names both files and the first data lines whose
    ids differ, or both row counts.  ``solver_features_path``: columns
    ``alpha,rho,ps,wp``; defaults to the bundled solver parametrization
    fixture.  Each file is parsed in one numpy pass (see ``_read_table``
    for the cell rules).  The reader checks every cell and this function
    the ids and the solver count, so the table skips its checks.
    """
    ids, runtimes = _read_table(runtimes_path, nonnegative=True)
    feat_ids, feats = _read_table(instance_features_path)
    if feat_ids != ids:
        raise ValueError(_id_mismatch(runtimes_path, ids, instance_features_path, feat_ids))
    if solver_features_path is None:
        solver = bundled_solver_features()
    else:
        solver = load_solver_features(solver_features_path)
    if solver.shape[0] != runtimes.shape[1]:
        source = solver_features_path or "the bundled solver features"
        raise ValueError(f"{runtimes_path} has {runtimes.shape[1]} solver columns, "
                         f"but {source} has {solver.shape[0]} solver rows")
    return _unchecked(RuntimeTable, runtimes=runtimes, instance_features=feats,
                      solver_features=solver)


def _id_mismatch(path: str | Path, ids: list[str], other: str | Path, other_ids: list[str]) -> str:
    """Where two keyed files' ids first differ: both data lines, else both row counts."""
    r = next((r for r, pair in enumerate(zip(ids, other_ids)) if pair[0] != pair[1]), None)
    if r is None:
        return (f"instance_id mismatch: {path} has {len(ids)} data rows, "
                f"but {other} has {len(other_ids)}")
    line, other_line = (_csv_rows(p)[1][r][0] for p in (path, other))
    return (f"instance_id mismatch: {path} line {line} has {ids[r]!r}, "
            f"but {other} line {other_line} has {other_ids[r]!r}")


def load_solver_features(path: str | Path) -> np.ndarray:
    """Load solver feature rows from a CSV with columns alpha,rho,ps,wp (finite cells)."""
    return _read_table(path, columns=["alpha", "rho", "ps", "wp"])[1]


@cache
def _bundled_solver_features() -> np.ndarray:
    ref = resources.files("preselect").joinpath("data/saps_parametrizations.csv")
    with resources.as_file(ref) as path:
        return load_solver_features(path)


def bundled_solver_features() -> np.ndarray:
    """The 20 bundled solver parametrizations (alpha, rho, ps, wp rows).

    The package file is parsed once per process; each call returns its own copy.
    """
    return _bundled_solver_features().copy()
