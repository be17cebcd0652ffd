"""Fuzzing the algoselect input tables through the command line.

A small valid table (runtimes, instance features, solver features) is
mutated by cell, row, header or encoding and run with ``preselect
algoselect``.  Whatever the mutation, the run ends with a documented exit
code and no traceback; a rejected table (exit 1 or 2) is rejected before
round 1, and an exit-1 message names the file, the flag or the key at
fault.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from preselect import AlgoSelectEnvironment
from preselect.cli import main as cli_main

INSTANCES, SOLVERS, FEATURES = 8, 3, 3
FILES = ("runtimes", "instance_features", "solver_features")
FLAGS = {"runtimes": "--runtimes", "instance_features": "--instance-features",
         "solver_features": "--solver-features"}
CELLS = ["", "nan", "NaN", "inf", "-inf", "-1", "-0.5", "1e308", "-1e308", "abc"]


def base_tables():
    """Header and rows of each file, all cells as text."""
    rng = np.random.default_rng(0)
    ids = [f"i{s}" for s in range(INSTANCES)]
    return {
        "runtimes": [["instance_id", *(f"solver_{i}" for i in range(SOLVERS))]]
        + [[iid, *(f"{v:.4f}" for v in rng.uniform(0.0, 0.5, SOLVERS))] for iid in ids],
        "instance_features": [["instance_id", *(f"f{j}" for j in range(FEATURES))]]
        + [[iid, *(f"{v:.4f}" for v in rng.uniform(size=FEATURES))] for iid in ids],
        "solver_features": [["alpha", "rho", "ps", "wp"]]
        + [[f"{v:.3f}" for v in rng.uniform(size=4)] for _ in range(SOLVERS)],
    }


def keyed(name):
    return name != "solver_features"


def mutate(tables, kind, name, row, column, cell):
    """Apply one mutation to file ``name`` (both keyed files for "single row")."""
    rows = tables[name]
    data = rows[1:]
    r = 1 + row % len(data)
    first = 1 if keyed(name) else 0  # the first numeric column
    c = first + column % (len(rows[0]) - first)
    if kind == "cell":
        rows[r][c] = cell
    elif kind == "drop cell":
        del rows[r][c]
    elif kind == "extra cell":
        rows[r].append("0.1")
    elif kind == "repeat id":
        rows[r][0] = rows[1 + (r % len(data))][0]
    elif kind == "id order":
        other = 1 + (r % len(data))  # the next data row, wrapping round
        rows[r][0], rows[other][0] = rows[other][0], rows[r][0]
    elif kind == "repeat column name":
        rows[0][c] = rows[0][first + (c + 1 - first) % (len(rows[0]) - first)]
    elif kind == "rename column":
        rows[0][column % len(rows[0])] = "instance" if column % 2 else ""
    elif kind == "single row":
        for other in FILES if keyed(name) else (name,):
            if keyed(other) == keyed(name):
                del tables[other][2:]
    elif kind == "constant":
        for values in data:
            values[first:] = ["0.25"] * (len(values) - first)
    elif kind == "blank rows":
        rows.insert(r, [])
    elif kind == "header only":
        del rows[1:]


def write(directory, tables, encoded_name, encoding):
    paths = {}
    for name, rows in tables.items():
        text = "".join(",".join(row) + "\n" for row in rows)
        data = text.encode()
        if name == encoded_name:
            if encoding == "bom":
                data = b"\xef\xbb\xbf" + data
            elif encoding == "latin-1":
                data = text.replace(",", ",\xe9", 1).encode("latin-1")
            elif encoding == "empty":
                data = b""
        paths[name] = Path(directory) / f"{name}.csv"
        if not (name == encoded_name and encoding == "missing"):
            paths[name].write_bytes(data)
    return paths


def run(paths, out, T, policy):
    rounds = []
    real = AlgoSelectEnvironment.round
    stderr = io.StringIO()
    argv = ["algoselect", "--k", "2", "--T", str(T), "--reps", "2", "--policy", policy,
            "--out", str(out)]
    for name, path in paths.items():
        argv += [FLAGS[name], str(path)]
    with mock.patch.object(AlgoSelectEnvironment, "round",
                           lambda env, t: rounds.append(t) or real(env, t)), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's error exit
            code = exc.code
    return code, stderr.getvalue(), rounds


MUTATIONS = ["cell", "drop cell", "extra cell", "repeat id", "id order", "repeat column name",
             "rename column", "single row", "constant", "blank rows", "header only",
             "encoding"]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(MUTATIONS),
    name=st.sampled_from(FILES),
    row=st.integers(0, 50),
    column=st.integers(0, 50),
    cell=st.sampled_from(CELLS),
    encoding=st.sampled_from(["bom", "latin-1", "empty", "missing"]),
    T=st.sampled_from([1, 4]),
    policy=st.sampled_from(["cppl", "maxtheta", "egreedy", "mm"]),
)
def test_a_mutated_table_exits_cleanly(kind, name, row, column, cell, encoding, T, policy):
    tables = base_tables()
    if kind in ("repeat id", "id order") and not keyed(name):
        kind = "cell"
    if kind != "encoding":
        mutate(tables, kind, name, row, column, cell)
    with tempfile.TemporaryDirectory() as directory:
        paths = write(directory, tables, name if kind == "encoding" else None, encoding)
        out = Path(directory) / "r.csv"
        code, err, rounds = run(paths, out, T, policy)
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err, err
        if code in (1, 2):
            assert rounds == [], err
            assert not out.exists()
        if code == 1:
            named = [str(path) for path in paths.values()] + ["--k", "--T", "k=", "T=", "lambda"]
            assert any(word in err for word in named), err
        if code == 0:
            assert out.exists() and len(out.read_text().splitlines()) == T + 1


def test_the_unmutated_table_runs():
    with tempfile.TemporaryDirectory() as directory:
        paths = write(directory, base_tables(), None, None)
        code, err, rounds = run(paths, Path(directory) / "r.csv", 4, "cppl")
    assert code == 0, err
    assert rounds == [1, 2, 3, 4] * 2
