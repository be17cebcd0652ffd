"""Every numeric CLI flag at, just inside and just past each documented bound.

A run ends with exit 0 (a value the rule accepts) or exit 1 (one it
rejects), never with a traceback, and an exit-1 message names the flag.
``algoselect`` refuses the synthetic-only ``--n`` and ``--d``, and its
sidecar reports the table's arms and dimension.
Runs are tiny (n=4, d=2, T=3, one repetition), so the module runs in
about a second.
"""

import json
import re

import numpy as np
import pytest

from preselect import AlgoSelectEnvironment, ExperimentConfig, emit_results, run_experiment
from preselect.cli import main as cli_main
from preselect.environments import load_runtime_table

TINY = "5e-324"  # the smallest positive float


def after(x, toward):
    return repr(float(np.nextafter(x, toward)))


# (flag, value, expected exit code), by the README's bounds: 1 <= k < n,
# d >= 1, T >= 0, reps >= 1, seed >= 0, gamma1 > 0, alpha in (1/2, 1),
# omega >= 0, epsilon in [0, 1], lambda >= 0.  The base run has n=4, k=2.
SYNTHETIC_CASES = [
    ("n", "3", 0), ("n", "4", 0), ("n", "2", 1),
    ("d", "1", 0), ("d", "2", 0), ("d", "0", 1),
    ("k", "1", 0), ("k", "2", 0), ("k", "0", 1),
    ("k", "3", 0), ("k", "4", 1), ("k", "5", 1),
    ("T", "0", 0), ("T", "1", 0), ("T", "-1", 1),
    ("reps", "1", 0), ("reps", "2", 0), ("reps", "0", 1),
    ("seed", "0", 0), ("seed", "1", 0), ("seed", "-1", 1),
    ("gamma1", "0.0", 1), ("gamma1", TINY, 0), ("gamma1", "-" + TINY, 1),
    ("alpha", "0.5", 1), ("alpha", after(0.5, 1), 0), ("alpha", after(0.5, 0), 1),
    ("alpha", "1.0", 1), ("alpha", after(1.0, 0), 0), ("alpha", after(1.0, 2), 1),
    ("omega", "0.0", 0), ("omega", TINY, 0), ("omega", "-" + TINY, 1),
    ("epsilon", "0.0", 0), ("epsilon", TINY, 0), ("epsilon", "-" + TINY, 1),
    ("epsilon", "1.0", 0), ("epsilon", after(1.0, 0), 0), ("epsilon", after(1.0, 2), 1),
    ("lambda", "0.0", 0), ("lambda", TINY, 0), ("lambda", "-" + TINY, 1),
]


def check_exit(code, err, flag, expected):
    assert code == expected, err
    assert "Traceback" not in err
    if code == 1:
        assert re.search(rf"\b{flag}\b", err), err


@pytest.mark.parametrize("flag, value, expected", SYNTHETIC_CASES)
def test_synthetic_flag_bounds(tmp_path, capsys, flag, value, expected):
    policy = "egreedy" if flag == "epsilon" else "cppl"
    argv = {"n": "4", "d": "2", "k": "2", "T": "3", "reps": "1", "seed": "0",
            "policy": policy, flag: value, "out": str(tmp_path / "r.csv")}
    code = cli_main(["synthetic"] + [f"--{key}={val}" for key, val in argv.items()])
    check_exit(code, capsys.readouterr().err, flag, expected)


def write_tables(tmp_path, instances=6, runtime_max=2.0):
    """A runtimes file for the 20 bundled solvers and a 2-column feature file."""
    rng = np.random.default_rng(0)
    runtimes = rng.uniform(0.0, runtime_max, size=(instances, 20))
    runtimes[0, 0] = runtime_max
    features = rng.uniform(size=(instances, 2))
    rt, fi = tmp_path / "rt.csv", tmp_path / "fi.csv"
    rt.write_text("instance_id," + ",".join(f"solver_{i}" for i in range(20)) + "\n" + "".join(
        f"i{s}," + ",".join(repr(float(v)) for v in row) + "\n" for s, row in enumerate(runtimes)))
    fi.write_text("instance_id,f0,f1\n" + "".join(
        f"i{s},{float(row[0])!r},{float(row[1])!r}\n" for s, row in enumerate(features)))
    return rt, fi


# The algoselect run has 6 instances and a largest runtime of 2.0, so T <= 6
# and lambda * 2.0 must be finite.
LARGEST_LAMBDA = float(np.finfo(float).max) / 2.0
ALGOSELECT_CASES = [
    ("T", "6", 0), ("T", "5", 0), ("T", "7", 1),
    ("k", "19", 0), ("k", "18", 0), ("k", "20", 1),
    ("lambda", "0.0", 0), ("lambda", TINY, 0), ("lambda", "-" + TINY, 1),
    ("lambda", repr(LARGEST_LAMBDA), 0), ("lambda", after(LARGEST_LAMBDA, 0), 0),
    ("lambda", repr(2 * LARGEST_LAMBDA), 1),
]


@pytest.mark.parametrize("flag, value, expected", ALGOSELECT_CASES)
def test_algoselect_flag_bounds(tmp_path, capsys, flag, value, expected):
    rt, fi = write_tables(tmp_path)
    argv = {"k": "2", "T": "3", "reps": "1", "policy": "maxtheta", flag: value,
            "runtimes": str(rt), "instance-features": str(fi), "out": str(tmp_path / "r.csv")}
    code = cli_main(["algoselect"] + [f"--{key}={val}" for key, val in argv.items()])
    check_exit(code, capsys.readouterr().err, flag, expected)


@pytest.mark.parametrize("flag, meaning", [("n", "number of arms"), ("d", "feature dimension")])
def test_algoselect_refuses_the_synthetic_size_flags(tmp_path, capsys, flag, meaning):
    rt, fi = write_tables(tmp_path)
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as done:
        cli_main(["algoselect", f"--{flag}", "3", "--T", "2", "--reps", "1", "--runtimes",
                  str(rt), "--instance-features", str(fi), "--out", str(out)])
    err = capsys.readouterr().err
    assert done.value.code == 1 and "Traceback" not in err
    assert (f"--{flag} does not apply to algoselect: the runtime table sets the {meaning}"
            in err)
    assert not out.exists()


def world_size(rt, fi):
    env = AlgoSelectEnvironment(load_runtime_table(rt, fi), lam=1.0, rng=np.random.default_rng(0))
    return env.n, env.d


def test_algoselect_sidecar_reports_the_table_world(tmp_path):
    rt, fi = write_tables(tmp_path)
    out = tmp_path / "r.csv"
    assert cli_main(["algoselect", "--k", "2", "--T", "3", "--reps", "1", "--runtimes", str(rt),
                     "--instance-features", str(fi), "--out", str(out)]) == 0
    config = json.loads((tmp_path / "r.csv.meta.json").read_text())["config"]
    assert (config["n"], config["d"]) == world_size(rt, fi) == (20, 8)


def test_algoselect_config_built_in_code_with_n_and_d_still_runs(tmp_path):
    # As a benchmark builds one: n and d set, and not used by the table's world.
    rt, fi = write_tables(tmp_path)
    config = ExperimentConfig(environment="algoselect", n=7, d=3, k=2, T=3, reps=1,
                              runtimes=str(rt), instance_features=str(fi))
    result = run_experiment(config)
    assert (result.config["n"], result.config["d"]) == world_size(rt, fi)
    emit_results(result, tmp_path / "r.csv", "csv")
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("value, expected", [("0", 0), ("1", 0), ("-1", 1)])
def test_verify_seed_bound(capsys, value, expected):
    code = cli_main(["verify", f"--seed={value}"])
    check_exit(code, capsys.readouterr().err, "seed", expected)
