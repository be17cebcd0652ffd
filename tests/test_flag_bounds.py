"""Every numeric CLI flag at, just inside and just past each documented bound.

A run ends with exit 0 (a value the rule accepts) or exit 1 (one it
rejects), never with a traceback, and an exit-1 message names the flag.
Runs are tiny (n=4, d=2, T=3, one repetition), so the module runs in
about a second.
"""

import re

import numpy as np
import pytest

from preselect.cli import main as cli_main

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


@pytest.mark.parametrize("value, expected", [("0", 0), ("1", 0), ("-1", 1)])
def test_verify_seed_bound(capsys, value, expected):
    code = cli_main(["verify", f"--seed={value}"])
    check_exit(code, capsys.readouterr().err, "seed", expected)
