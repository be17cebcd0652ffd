"""Environment tests: simulators, regret, preprocessing, and CSV interfaces."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preselect import (
    AlgoSelectEnvironment,
    RuntimeTable,
    SyntheticEnvironment,
    SyntheticScenario,
    UtilityVector,
    instant_regret,
    load_runtime_table,
    load_solver_features,
    bundled_solver_features,
    contextual_utilities,
    preprocess_features,
    sample_feedback,
)
from preselect.cli import main as cli_main
from preselect.likelihood import RankingFeedback, WinnerFeedback
from test_table_reader import benchmark_table


def make_scenario(rng, n=6, d=3, k=2, T=50, seed=13):
    return SyntheticScenario.draw(n=n, d=d, k=k, T=T, seed=seed, rng=rng)


def preprocessing_fixture():
    """Six columns with known variance/correlation structure.

    After min-max scaling: column 0 is constant and column 5 has
    variance below 0.01, so both fall to the variance filter.  Columns 1
    and 2 are identical (they fold to the first, 1);
    column 3 is column 1 plus a small alternating wiggle (correlation
    0.9994, and column 1 is more correlated with the rest, so 1 is
    removed); columns 3 and 4 correlate at 0.37 and both survive.
    """
    m = 200
    i = np.arange(m)
    c0 = np.full(m, 0.7)
    c1 = np.linspace(0.0, 1.0, m)
    c2 = c1.copy()
    c3 = c1 + 0.01 * (-1.0) ** i
    c4 = 0.5 * c1 + 0.5 * np.sin(2.3 * i)
    c5 = np.zeros(m)
    c5[0] = 1.0
    return np.column_stack([c0, c1, c2, c3, c4, c5])


def oracle_scale(raw):
    """Min-max scaled columns, constant ones at 0, as the documented step 1 reads."""
    lo, hi = raw.min(0), raw.max(0)
    span = np.where(hi - lo == 0, 1.0, hi - lo)
    scaled = (raw - lo) / span
    scaled[:, hi - lo == 0] = 0.0
    return scaled


def greedy_oracle(raw):
    """The documented rule, re-run with the matrix re-derived after each removal."""
    scaled = oracle_scale(raw)
    expected = [j for j in range(raw.shape[1]) if np.var(scaled[:, j]) >= 0.01]
    while len(expected) >= 2:
        corr = np.abs(np.corrcoef(scaled[:, expected], rowvar=False))
        np.fill_diagonal(corr, 0.0)
        a, b = np.unravel_index(np.argmax(corr), corr.shape)
        if corr[a, b] <= 0.95:
            break
        mean_a = corr[a].sum() / (len(expected) - 1)
        mean_b = corr[b].sum() / (len(expected) - 1)
        if mean_a > mean_b:
            victim = a
        elif mean_b > mean_a:
            victim = b
        else:
            victim = a if expected[a] > expected[b] else b
        expected.pop(victim)
    return expected


def assert_follows_the_rule(raw):
    """Kept columns and values as the oracle gives them once later identical copies are gone."""
    scaled = oracle_scale(raw)
    firsts = {}
    for j in range(raw.shape[1]):
        firsts.setdefault(scaled[:, j].tobytes(), j)
    columns = sorted(firsts.values())
    expected = [columns[j] for j in greedy_oracle(raw[:, columns])]
    reduced, kept = preprocess_features(raw)
    assert kept == expected
    assert reduced.tobytes() == scaled[:, expected].tobytes()


@st.composite
def feature_tables(draw):
    """20-400 rows, 1-30 columns: fresh, noisy near-copies (some mirrored), exact copies, constants."""
    rows = draw(st.integers(20, 400))
    kinds = draw(st.lists(st.sampled_from(["fresh", "near", "copy", "constant"]), min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "constant":
            columns.append(np.full(rows, rng.normal()))
        elif kind == "fresh" or not columns:
            columns.append(rng.uniform(size=rows) * 10.0 ** rng.uniform(-3, 3))
        else:
            source = columns[rng.integers(len(columns))]
            if kind == "copy":
                columns.append(source.copy())
            else:
                noise = rng.choice([1e-3, 1e-2]) * (np.ptp(source) or 1.0)
                columns.append(rng.choice([-1.0, 1.0]) * source + noise * rng.normal(size=rows))
    return np.column_stack(columns)


def synthetic_context(scenario, t):
    return SyntheticEnvironment(scenario).round(t)[0]


class TestSyntheticRound:
    def test_deterministic_per_seed_and_round(self, rng):
        scenario = make_scenario(rng)
        a = synthetic_context(scenario, 7)
        b = synthetic_context(scenario, 7)
        np.testing.assert_array_equal(a.features, b.features)
        c = synthetic_context(scenario, 8)
        assert not np.array_equal(a.features, c.features)

    def test_shape_and_round_index(self, rng):
        scenario = make_scenario(rng, n=10, d=5, k=3, T=20)
        X = synthetic_context(scenario, 4)
        assert X.features.shape == (5, 10)
        # Round t's entries come from the stream of (seed, t) alone.
        stream = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(3, 4))
        np.testing.assert_array_equal(
            X.features, np.random.default_rng(stream).uniform(size=(5, 10))
        )

    def test_entries_uniform(self, rng):
        scenario = make_scenario(rng, n=100, d=10, T=100)
        values = np.concatenate(
            [synthetic_context(scenario, t).features.ravel() for t in range(1, 101)]
        )
        assert values.mean() == pytest.approx(0.5, abs=0.01)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_round_out_of_range(self, rng):
        scenario = make_scenario(rng, T=5)
        with pytest.raises(ValueError):
            synthetic_context(scenario, 6)

    @pytest.mark.parametrize("world", ["synthetic", "algoselect"])
    @pytest.mark.parametrize("t", [2.0, True, "1"])
    def test_round_rejects_a_non_integer_index(self, rng, world, t):
        env = (SyntheticEnvironment(make_scenario(rng)) if world == "synthetic"
               else AlgoSelectEnvironment(small_table(), lam=1.0, rng=rng))
        with pytest.raises(ValueError, match=f"^round index must be an integer, got {t!r}$"):
            env.round(t)

    def test_theta_star_in_unit_cube(self, rng):
        scenario = make_scenario(rng)
        assert np.all((scenario.theta_star >= 0) & (scenario.theta_star <= 1))

    @pytest.mark.parametrize("field, value", [
        ("n", 20.5), ("k", 2.0), ("d", True), ("seed", 1.5),
    ])
    def test_scenario_rejects_non_integer_size(self, field, value):
        sizes = {"n": 6, "d": 3, "k": 2, "T": 50, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SyntheticScenario(**sizes, theta_star=np.full(3, 0.5))


def numpy_round(seed, t, d=3, n=7):
    """Round t's context as numpy draws it from the ``(seed, t)`` sequence."""
    stream = np.random.SeedSequence(entropy=seed, spawn_key=(3, t))
    return np.random.default_rng(stream).random((d, n))


def unbounded_env(seed):
    return SyntheticEnvironment(
        SyntheticScenario(n=7, d=3, k=2, T=0, theta_star=np.full(3, 0.5), seed=seed))


class TestSyntheticStream:
    """Round t is numpy's ``(seed, t)`` stream, bit for bit, however the rounds are asked for."""

    @pytest.mark.parametrize("seed", [0, 13, 2**32, 2**130])
    @pytest.mark.parametrize("t", [1, 255, 256, 257, 2**32 - 1, 2**32 + 1, 2**40, 2**64 + 9])
    def test_round_is_the_numpy_stream(self, seed, t):
        assert np.array_equal(unbounded_env(seed).round(t)[0].features, numpy_round(seed, t))

    def test_rounds_asked_for_out_of_order(self):
        env = unbounded_env(5)
        for t in (257, 1, 256, 2**40, 255, 2**32 + 1, 257, 1, 2**40, 512, 511):
            assert np.array_equal(env.round(t)[0].features, numpy_round(5, t)), t

    def test_two_environments_interleaved(self):
        envs = {seed: unbounded_env(seed) for seed in (0, 2**32)}
        for t in range(250, 263):
            for seed, env in envs.items():
                assert np.array_equal(env.round(t)[0].features, numpy_round(seed, t)), (seed, t)

    def test_rounds_build_at_most_one_seed_sequence(self, monkeypatch):
        # A count, not a timer: the seed words come 256 rounds at a time
        # from one prefix, not from a sequence built per round.
        built = []
        original = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        env = unbounded_env(13)
        monkeypatch.setattr(np.random, "SeedSequence", counted)
        for t in range(1, 301):
            env.round(t)
        assert len(built) <= 1


class TestInstantRegret:
    def test_zero_when_best_arm_included(self):
        utils = UtilityVector.from_values([4.0, 2.0, 1.0])
        assert instant_regret(utils, (0, 2)) == 0.0

    def test_relative_gap(self):
        utils = UtilityVector.from_values([4.0, 2.0, 1.0])
        assert instant_regret(utils, (1,)) == pytest.approx(0.5)
        assert instant_regret(utils, (2,)) == pytest.approx(0.75)

    def test_matches_enumeration(self, rng):
        # Oracle: direct formula over every k-subset.
        vals = rng.uniform(0.5, 4.0, size=6)
        utils = UtilityVector.from_values(vals)
        best = vals.max()
        for k in (1, 2, 3):
            for subset in itertools.combinations(range(6), k):
                expected = (best - vals[list(subset)].max()) / best
                assert instant_regret(utils, subset) == pytest.approx(expected, abs=1e-12)

    def test_zero_iff_argmax_included(self, rng):
        vals = rng.uniform(0.5, 4.0, size=7)
        utils = UtilityVector.from_values(vals)
        best = int(np.argmax(vals))
        for subset in itertools.combinations(range(7), 3):
            r = instant_regret(utils, subset)
            assert (r == 0.0) == (best in subset)

    def test_range(self, rng):
        for _ in range(50):
            vals = rng.uniform(0.01, 10.0, size=5)
            r = instant_regret(UtilityVector.from_values(vals), (int(rng.integers(5)),))
            assert 0.0 <= r <= 1.0


class TestPreprocessing:
    def test_constant_column_dropped(self):
        raw = np.column_stack([np.full(50, 3.0), np.linspace(0, 1, 50)])
        reduced, kept = preprocess_features(raw)
        assert kept == [1]

    def test_duplicate_columns_keep_one(self):
        ramp = np.linspace(0, 1, 50)
        reduced, kept = preprocess_features(np.column_stack([ramp, ramp]))
        assert kept == [0]

    def test_hand_traced_fixture(self):
        # Oracle: the greedy trace in the fixture docstring.
        reduced, kept = preprocess_features(preprocessing_fixture())
        assert kept == [3, 4]
        assert np.all(np.var(reduced, axis=0) >= 0.01)
        corr = np.corrcoef(reduced, rowvar=False)
        np.fill_diagonal(corr, 0.0)
        assert np.max(np.abs(corr)) <= 0.95

    def test_output_in_unit_interval(self, rng):
        raw = rng.normal(size=(60, 5)) * 10 + 3
        reduced, kept = preprocess_features(raw)
        assert reduced.min() >= 0.0 and reduced.max() <= 1.0

    def test_independent_greedy_simulation(self, rng):
        # Oracle: re-run the documented greedy rule with numpy primitives.
        raw = rng.normal(size=(80, 6))
        raw[:, 3] = raw[:, 0] + 0.05 * rng.normal(size=80)
        raw[:, 4] = -raw[:, 1] + 0.02 * rng.normal(size=80)
        _, kept = preprocess_features(raw)
        assert kept == greedy_oracle(raw)

    def test_identical_columns_fold_to_the_first(self):
        # An identical pair has |r| = 1 and equal mean correlations, so the
        # rule removes the later copy; round-off in the two means once
        # removed column 0 here and kept its copy, column 3.
        base = np.random.default_rng(2).uniform(size=(50, 3))
        _, kept = preprocess_features(np.column_stack([base, base[:, 0]]))
        assert kept == [0, 1, 2]

    @settings(max_examples=150, deadline=None)
    @given(raw=feature_tables())
    def test_follows_the_rule_on_tables_with_copies(self, raw):
        assert_follows_the_rule(raw)

    @pytest.mark.parametrize("seed", range(10))
    def test_follows_the_rule_on_the_benchmark_table(self, seed, tmp_path):
        runtimes, features = benchmark_table(seed, tmp_path)
        raw = load_runtime_table(runtimes, features).instance_features
        assert_follows_the_rule(raw)

    def test_one_correlation_matrix_per_call(self, monkeypatch):
        # Each pruned column's row and column leave the one matrix; none is
        # derived again.  Six near-copies here cost six removals.
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(100, 4))
        raw = np.column_stack([base, base[:, [0, 1, 2, 0, 1, 2]] + 1e-3 * rng.normal(size=(100, 6))])
        calls = []
        corrcoef = np.corrcoef
        monkeypatch.setattr(np, "corrcoef", lambda *a, **kw: calls.append(1) or corrcoef(*a, **kw))
        _, kept = preprocess_features(raw)
        assert len(kept) == 4 and len(calls) == 1

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            preprocess_features(np.ones((1, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, value):
        # A NaN would otherwise steer the correlation pruning.
        with pytest.raises(ValueError, match="all entries finite"):
            preprocess_features([[0, 1, value], [1, 0, 2], [0.5, 0.5, 1]])


def small_table(num_instances=30, num_solvers=4, p=5, seed=5):
    rng = np.random.default_rng(seed)
    return RuntimeTable(
        runtimes=rng.uniform(0.0, 1.0, size=(num_instances, num_solvers)),
        instance_features=rng.uniform(size=(num_instances, p)),
        solver_features=rng.uniform(size=(num_solvers, 4)),
    )


class TestAlgoSelect:
    def test_lambda_zero_gives_unit_utilities(self, rng):
        env = AlgoSelectEnvironment(small_table(), lam=0.0, rng=rng)
        _, utils = env.round(1)
        np.testing.assert_allclose(utils.values, 1.0)

    def test_faster_solver_has_higher_utility(self, rng):
        table = RuntimeTable(
            runtimes=np.array([[0.1, 0.2]]* 2),
            instance_features=np.eye(2),
            solver_features=np.ones((2, 4)),
        )
        _, utils = AlgoSelectEnvironment(table, lam=10.0, rng=rng).round(1)
        assert utils.values[0] == pytest.approx(np.exp(-1.0))
        assert utils.values[1] == pytest.approx(np.exp(-2.0))
        assert utils.values[0] > utils.values[1]

    def test_kronecker_layout(self, rng):
        # Oracle: arm i's column is np.kron(inst, solver_i), so entry
        # (4a + b) is the single product inst[a] * solver_i[b], bit for bit.
        for p in (7, 20):
            env = AlgoSelectEnvironment(small_table(p=p), lam=1.0, rng=rng)
            context, _ = env.round(3)
            table = env.table  # the preprocessed features the rounds read
            inst = table.instance_features[env.order[2]]
            expected = np.column_stack([np.kron(inst, solver) for solver in table.solver_features])
            assert context.features.shape == (4 * inst.size, table.num_solvers)
            assert np.array_equal(context.features, expected)
            assert context.features[4 * 2 + 1, 3] == inst[2] * table.solver_features[3, 1]

    def test_exhaustion(self, rng):
        env = AlgoSelectEnvironment(small_table(num_instances=3), lam=1.0, rng=rng)
        env.round(3)
        with pytest.raises(RuntimeError, match="environment exhausted: round 4 of 3"):
            env.round(4)

    def test_environment_never_repeats_instances(self, rng):
        table = small_table(num_instances=25)
        env = AlgoSelectEnvironment(table, lam=10.0, rng=rng)
        assert sorted(env.order) == list(range(25))
        assert env.max_rounds == 25

    # exp(-inf * runtime) is no utility, so inf fails the same rule.
    @pytest.mark.parametrize("lam", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_environment_rejects_bad_lambda_when_built(self, rng, lam):
        what = "nonnegative and finite" if np.isfinite(lam) else "a finite number"
        with pytest.raises(ValueError, match=f"lam must be {what}, got {lam}"):
            AlgoSelectEnvironment(small_table(), lam=lam, rng=rng)

    @pytest.mark.parametrize("lam, runtime", [(10.0, 1e308), (1e10, 1e300), (1e308, 2.0)])
    def test_environment_rejects_overflowing_utilities_when_built(self, rng, lam, runtime):
        table = small_table()
        runtimes = table.runtimes.copy()
        runtimes[7, 2] = runtime
        big = RuntimeTable(runtimes=runtimes, instance_features=table.instance_features,
                           solver_features=table.solver_features)
        message = f"lambda={lam!r} times the largest runtime, {runtime!r}, overflows"
        with pytest.raises(OverflowError, match="^" + re.escape(message)):
            AlgoSelectEnvironment(big, lam=lam, rng=rng)
        # The largest finite product still builds, and its round is finite.
        env = AlgoSelectEnvironment(big, lam=np.finfo(float).max / runtime, rng=rng)
        env.order[0] = 7
        assert np.isfinite(env.round(1)[1].log_values).all()

    def test_environment_rejects_table_with_no_usable_column(self, rng):
        table = small_table()
        flat = RuntimeTable(runtimes=table.runtimes, instance_features=np.ones((30, 5)),
                            solver_features=table.solver_features)
        with pytest.raises(ValueError, match="no instance-feature column"):
            AlgoSelectEnvironment(flat, lam=10.0, rng=rng)

    def test_environment_preprocesses_once(self, rng):
        table = small_table()
        env = AlgoSelectEnvironment(table, lam=10.0, rng=rng)
        assert env.table.instance_features.shape[1] == len(env.kept_columns)
        context, _ = env.round(1)
        assert context.d == env.d


class TestSampleFeedback:
    def test_modes(self, rng):
        utils = UtilityVector.from_values([1.0, 2.0, 3.0, 4.0])
        fb = sample_feedback(utils, (0, 2, 3), "winner", rng)
        assert isinstance(fb, WinnerFeedback) and fb.arm in (0, 2, 3)
        fb = sample_feedback(utils, (0, 2, 3), "ranking", rng)
        assert isinstance(fb, RankingFeedback) and fb.ranking.items == (0, 2, 3)
        with pytest.raises(ValueError):
            sample_feedback(utils, (0, 1), "duel", rng)


class TestCsvLoading:
    def _write_files(self, tmp_path, ids=("a", "b", "c"), feat_ids=None):
        rt = tmp_path / "runtimes.csv"
        rt.write_text(
            "instance_id,solver_0,solver_1\n"
            + "".join(f"{i},0.{j + 1},0.{j + 2}\n" for j, i in enumerate(ids))
        )
        feat_ids = ids if feat_ids is None else feat_ids
        fi = tmp_path / "features.csv"
        fi.write_text(
            "instance_id,f0,f1,f2\n"
            + "".join(f"{i},0.1,0.5,{j / 10}\n" for j, i in enumerate(feat_ids))
        )
        sf = tmp_path / "solvers.csv"
        sf.write_text("alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n")
        return rt, fi, sf

    def test_round_trip(self, tmp_path):
        rt, fi, sf = self._write_files(tmp_path)
        table = load_runtime_table(rt, fi, sf)
        assert table.runtimes.shape == (3, 2)
        assert table.instance_features.shape == (3, 3)
        assert table.solver_features.shape == (2, 4)
        assert table.runtimes[0, 0] == pytest.approx(0.1)

    def test_id_mismatch_rejected(self, tmp_path):
        rt, fi, sf = self._write_files(tmp_path, feat_ids=("a", "c", "b"))
        with pytest.raises(ValueError):
            load_runtime_table(rt, fi, sf)

    @pytest.mark.parametrize("feat_ids, reason", [
        (("a", "c", "b"), "{rt} line 3 has 'b', but {fi} line 3 has 'c'"),
        (("a", "b"), "{rt} has 3 data rows, but {fi} has 2"),
    ], ids=["swapped", "short"])
    def test_id_mismatch_names_both_files(self, tmp_path, capsys, feat_ids, reason):
        rt, fi, sf = self._write_files(tmp_path, feat_ids=feat_ids)
        expected = "instance_id mismatch: " + reason.format(rt=rt, fi=fi)
        with pytest.raises(ValueError, match=re.escape(expected) + "$"):
            load_runtime_table(rt, fi, sf)
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert f"configuration error: {expected}" in capsys.readouterr().err

    def test_id_mismatch_names_data_lines_not_row_numbers(self, tmp_path):
        rt, fi, sf = self._write_files(tmp_path)
        fi.write_text('instance_id,f0,f1,f2\n\n"a",0.1,0.5,0.0\n\n"c\nd",0.1,0.5,0.1\n'
                      "b,0.1,0.5,0.2\n")
        with pytest.raises(ValueError, match=re.escape(
            f"instance_id mismatch: {rt} line 3 has 'b', but {fi} line 6 has 'c\\nd'"
        )):
            load_runtime_table(rt, fi, sf)

    @pytest.mark.parametrize("which", [0, 1], ids=["runtimes", "features"])
    def test_repeated_id_names_file_id_and_both_lines(self, tmp_path, which):
        rt, fi, sf = self._write_files(tmp_path)
        path = (rt, fi)[which]
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "
                           r"instance_id 'b' repeated on lines 3 and 5$"):
            load_runtime_table(rt, fi, sf)

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["runtimes", "features", "solvers"])
    def test_header_only_file_names_file(self, tmp_path, capsys, which):
        files = self._write_files(tmp_path)
        path = files[which]
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no data rows$"):
            load_runtime_table(*files)
        rt, fi, sf = files
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert f"{path}: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("ids, rows, reason", [
        (("a", "b", "c"), "a,0.1,0.5,0.2\nb,0.1,0.5,0.2\nc,0.1,0.5,0.2\n",
         "no instance-feature column"),
        (("a",), "a,0.1,0.5,0.2\n", "need a matrix with at least 2 rows"),
    ], ids=["no-column-left", "one-row"])
    def test_unusable_feature_table_is_config_error_naming_file(
        self, tmp_path, capsys, ids, rows, reason
    ):
        rt, fi, sf = self._write_files(tmp_path, ids=ids)
        fi.write_text("instance_id,f0,f1,f2\n" + rows)
        out = tmp_path / "out.csv"
        code = cli_main(["algoselect", "--k", "1", "--T", "1", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(out)])
        assert code == 1
        assert f"configuration error: {fi}: {reason}" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_features_header_checked(self, tmp_path):
        bad = tmp_path / "solvers.csv"
        bad.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError):
            load_solver_features(bad)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        rt, fi, sf = self._write_files(tmp_path)
        rt.write_text("instance_id,solver_0,solver_1\na,0.1,0.2\nb,x,0.3\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(rt))}: line 3: .*'x'"):
            load_runtime_table(rt, fi, sf)
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1

    def test_ragged_row_names_file_and_line(self, tmp_path):
        rt, fi, sf = self._write_files(tmp_path)
        fi.write_text("instance_id,f0,f1,f2\na,0.1,0.5,0.0\nb,0.1,0.5\nc,0.1,0.5,0.2\n")
        with pytest.raises(
            ValueError, match=rf"{re.escape(str(fi))}: line 3: expected 4 fields, found 3"
        ):
            load_runtime_table(rt, fi, sf)
        sf.write_text("alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n\n1.5,0.6,0.3\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(sf))}: line 4: "):
            load_solver_features(sf)
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_runtime_names_file_and_line(self, tmp_path, capsys, value):
        rt, fi, sf = self._write_files(tmp_path)
        rt.write_text(f"instance_id,solver_0,solver_1\na,0.1,0.2\nb,0.2,{value}\nc,0.3,0.4\n")
        expected = f"{rt}: line 3: solver_1 value '{value}' must be finite and nonnegative"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_runtime_table(rt, fi, sf)
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert expected in capsys.readouterr().err

    def test_oversized_cell_names_file_and_line(self, tmp_path, capsys):
        # csv's default field limit is 131,072 characters.
        rt, fi, sf = self._write_files(tmp_path)
        rt.write_text(f"instance_id,solver_0,solver_1\na,0.1,0.2\nb,0.2,{'9' * 200_000}\n"
                      "c,0.3,0.4\n")
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"configuration error: {rt}: line 3: field larger than field limit" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, value):
        rt, fi, sf = self._write_files(tmp_path)
        fi.write_text(f"instance_id,f0,f1,f2\na,0.1,0.5,0.0\nb,0.1,0.5,0.1\nc,0.1,{value},0.2\n")
        expected = f"{fi}: line 4: f1 value '{value}' must be finite"
        with pytest.raises(ValueError, match=re.escape(expected) + "$"):
            load_runtime_table(rt, fi, sf)
        sf.write_text(f"alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,{value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{sf}: line 3: wp value '{value}'")):
            load_solver_features(sf)

    def test_negative_feature_is_allowed(self, tmp_path):
        rt, fi, sf = self._write_files(tmp_path)
        fi.write_text("instance_id,f0,f1,f2\na,-0.1,0.5,0.0\nb,0.1,0.5,0.1\nc,0.1,0.5,0.2\n")
        assert load_runtime_table(rt, fi, sf).instance_features[0, 0] == -0.1

    def test_solver_count_mismatch_names_both_files(self, tmp_path, capsys):
        rt, fi, sf = self._write_files(tmp_path)
        sf.write_text("alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n2.0,0.7,0.4,0.3\n")
        expected = f"{rt} has 2 solver columns, but {sf} has 3 solver rows"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_runtime_table(rt, fi, sf)
        with pytest.raises(ValueError, match=re.escape(
            f"{rt} has 2 solver columns, but the bundled solver features has 20 solver rows"
        )):
            load_runtime_table(rt, fi)
        code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                         "--instance-features", str(fi), "--solver-features", str(sf),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert expected in capsys.readouterr().err

    def test_bundled_fixture(self):
        solver = bundled_solver_features()
        assert solver.shape == (20, 4)
        np.testing.assert_allclose(
            solver[0], [1.54114, 0.851212, 0.739441, 0.846641]
        )


class TestSyntheticEnvironment:
    def test_round_returns_context_and_true_utilities(self, rng):
        scenario = make_scenario(rng)
        env = SyntheticEnvironment(scenario)
        context, utils = env.round(3)
        expected = contextual_utilities(scenario.theta_star, context)
        np.testing.assert_allclose(utils.values, expected.values)


def scenario_with(**changes):
    return SyntheticScenario(**{"n": 6, "d": 3, "k": 2, "T": 5, "seed": 0,
                                "theta_star": np.full(3, 0.5), **changes})


def table_with(**changes):
    base = small_table(num_instances=4, num_solvers=3, p=2)
    return RuntimeTable(**{"runtimes": base.runtimes, "instance_features": base.instance_features,
                           "solver_features": base.solver_features, **changes})


def write_then_load(text):
    def load(tmp_path):
        (tmp_path / "t.csv").write_text(text)
        return load_runtime_table(tmp_path / "t.csv", tmp_path / "t.csv")
    return load


@pytest.mark.parametrize("build, message", [
    (lambda _: scenario_with(theta_star=np.full(2, 0.5)), "theta_star must have dimension d"),
    (lambda _: scenario_with(theta_star=[0.5, 1.5, 0.2]), "theta_star entries must lie in [0, 1]"),
    (lambda _: table_with(runtimes=np.ones(3)), "runtimes and feature tables must be matrices"),
    (lambda _: table_with(instance_features=np.ones((3, 2))),
     "one instance-feature row per runtime row required"),
    (lambda _: table_with(solver_features=np.ones((2, 4))),
     "one solver-feature row per runtime column required"),
    (lambda _: table_with(runtimes=np.full((4, 3), np.nan)),
     "runtimes must be finite and nonnegative"),
    (lambda _: table_with(runtimes=np.full((4, 3), -1.0)),
     "runtimes must be finite and nonnegative"),
    (lambda _: table_with(solver_features=np.full((3, 4), np.inf)),
     "feature tables must be finite"),
    (write_then_load(""), "t.csv: empty file"),
    (write_then_load("id,solver_0\na,0.1\n"), "t.csv: first column must be instance_id"),
], ids=["theta-dimension", "theta-range", "not-matrix", "instance-rows", "solver-rows",
        "nan-runtime", "negative-runtime", "inf-feature", "empty-file", "first-column"])
def test_environment_inputs_are_rejected(tmp_path, build, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        build(tmp_path)
