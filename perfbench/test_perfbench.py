"""Smoke tests of the benchmark: tiny-T runs, metric names, tracer hygiene.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bench_measure
import bench_trace
import run
from preselect import AlgoSelectEnvironment, bundled_solver_features, load_runtime_table

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _originals():
    return {(owner, name): vars(owner)[name] for owner, name, _, _ in bench_trace.TARGETS}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_measure.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench_measure.WORKLOADS))
def test_tiny_run_emits_declared_metrics(workload, trace, tmp_path):
    before = _originals()
    result = bench_measure.run_workload(workload, seed=3, seconds=0.01, trace=bool(trace),
                                        work_dir=tmp_path, T=12)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(np.isfinite(v) for v in result["metrics"].values())
    assert all(v is before[k] for k, v in _originals().items())


def test_install_restores_targets_after_an_error():
    before = _originals()
    with pytest.raises(KeyError):
        with bench_trace.install(bench_trace.Tracer()):
            assert any(vars(o)[n] is not before[(o, n)] for o, n, _, _ in bench_trace.TARGETS)
            raise KeyError("boom")
    assert all(vars(o)[n] is before[(o, n)] for o, n, _, _ in bench_trace.TARGETS)


def test_unreached_target_reads_nan_not_zero(tmp_path, monkeypatch):
    dropped = {"estimator.covariance", "policies.update"}
    monkeypatch.setattr(bench_trace, "TARGETS",
                        tuple(t for t in bench_trace.TARGETS if t[2] not in dropped))
    result = bench_measure.run_workload("synth-winner", seed=3, seconds=0.01, trace=True,
                                        work_dir=tmp_path, T=12)
    m = result["metrics"]
    for name in ("cppl.estimator.covariance_us", "cppl.policies.update_us",
                 "mm.policies.update_us", "mm.policies.mm_stages"):
        assert np.isnan(m[name]), name
    assert np.isfinite(m["cppl.policies.choose_us"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_algoselect_table_prunes_to_d80(seed, tmp_path):
    rt, feats = bench_measure.write_runtime_table(seed, tmp_path, bundled_solver_features())
    table = load_runtime_table(rt, feats)
    env = AlgoSelectEnvironment(table, lam=bench_measure.LAM, rng=np.random.default_rng(seed))
    assert env.d == 80
    assert table.instance_features.shape[1] > len(env.kept_columns)


def test_refuses_to_run_without_package_sources(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "synth-winner", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
