"""Benchmark of the preselect regret loop, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload synth-winner --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced passes and reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` pairs each untraced
pass with a traced one, requires their result CSVs to be byte-identical
and reports the per-layer metrics.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the run record (versions, BLAS, seed, T), is also
written to ``perfbench/out/``.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXTRA_UNITS = {
    "final_regret": "regret",
    "fail_rate": "frac",
    "passes": "count",
    "environments.load_table_s": "s",
    "environments.preprocess_s": "s",
}


def import_package():
    """Import ``preselect`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "preselect" / "__init__.py").is_file():
        raise ImportError(f"preselect sources not found under {src}")
    sys.path.insert(0, str(src))
    import preselect

    if Path(preselect.__file__).resolve().parent != src / "preselect":
        raise ImportError(f"imported preselect from {preselect.__file__}, not {src}")
    return preselect


def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None  # do not report the commit of an enclosing repository
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "pinned_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def extra_unit(name: str) -> str:
    return EXTRA_UNITS.get(name, EXTRA_UNITS.get(name.rsplit(".", 1)[-1], ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_package()
        declared = declared_metrics(args.trace)
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import bench_measure

    if args.workload not in bench_measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench_measure.WORKLOADS)}")

    record = run_record(args)
    problems = []
    try:
        result = bench_measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
        if result["failed"]:
            problems.append(f"{result['failed']} of {result['attempted']} repetitions failed")
    except bench_measure.BenchmarkFailure as exc:
        problems.append(str(exc))
        # The run stopped at the failed check: report it as one failed attempt.
        result = {"attempted": 1, "failed": 1, "metrics": {}, "extras": {}}
    metrics = result["metrics"]
    missing = [name for name in declared if name not in metrics]
    if missing:
        problems.append(f"metrics missing: {missing}")
    not_finite = [name for name in declared if name in metrics and not math.isfinite(metrics[name])]
    if not_finite:
        problems.append(f"metrics not finite: {not_finite}")

    for name, value in metrics.items():
        print(f"{name} {value!r} {declared.get(name, '')}".rstrip())
    for name, value in result["extras"].items():
        print(f"{name} {value!r} {extra_unit(name)}".rstrip())
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    summary = {
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
            if name in metrics and math.isfinite(metrics[name])
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"record": record, "problems": problems, **result}, indent=2) + "\n")
    print(f"record {json.dumps(record, sort_keys=True)}")
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS: one thread per process
    sys.exit(main())
