"""Benchmark command line: synthetic runs, algorithm-selection runs, self-checks.

Subcommands:

* ``preselect synthetic``  — regret experiment on the synthetic world.
* ``preselect algoselect`` — regret experiment on a runtime table.
* ``preselect verify``     — the acceptance suite's numeric checks at small sizes.

Parameters come from flags, optionally layered over a flat JSON config
file (``--config``); flags given explicitly win.  Exit codes: 0 success,
1 configuration error, 2 i/o error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .environments import _check_seed
from .harness import FEEDBACK_MODES, FORMATS, POLICIES, ExperimentConfig
from .harness import _sidecar_path, emit_results, run_experiment
from .selfcheck import run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # Bad flags are configuration errors (exit 1), not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


class _SetByTable(argparse.Action):
    """A synthetic-only flag given to ``algoselect``, whose runtime table sets it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} does not apply to algoselect: the runtime table "
                     f"sets the {self.metavar}")


def _add_experiment_flags(parser: argparse.ArgumentParser, synthetic: bool) -> None:
    parser.add_argument("--config", help="flat JSON file with defaults for any flag")
    for flag, meaning in (("--n", "number of arms"), ("--d", "feature dimension")):
        if synthetic:
            parser.add_argument(flag, type=int, help=meaning)
        else:
            parser.add_argument(flag, action=_SetByTable, metavar=meaning, help=argparse.SUPPRESS)
    parser.add_argument("--k", type=int, help="preselection size")
    parser.add_argument("--T", type=int, help="rounds per repetition")
    parser.add_argument("--reps", type=int, help="number of repetitions")
    parser.add_argument("--seed", type=int, help="base seed; repetition r uses seed+r")
    parser.add_argument("--policy", choices=POLICIES)
    parser.add_argument("--feedback", choices=FEEDBACK_MODES)
    parser.add_argument("--gamma1", type=float, help="SGD step scale")
    parser.add_argument("--alpha", type=float, help="SGD step decay, in (1/2, 1)")
    parser.add_argument("--omega", type=float, help="confidence width scale")
    parser.add_argument("--epsilon", type=float, help="exploration rate of egreedy")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="runtime-to-utility decay (algoselect)")
    parser.add_argument("--runtimes", help="runtime table CSV")
    parser.add_argument("--instance-features", dest="instance_features",
                        help="instance feature CSV")
    parser.add_argument("--solver-features", dest="solver_features",
                        help="solver feature CSV (default: bundled parametrizations)")
    parser.add_argument("--out", help="output path (default results.csv)")
    parser.add_argument("--format", choices=FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="preselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_syn = sub.add_parser("synthetic", help="run on the synthetic world")
    _add_experiment_flags(p_syn, synthetic=True)
    p_alg = sub.add_parser("algoselect", help="run on a solver runtime table")
    _add_experiment_flags(p_alg, synthetic=False)
    p_ver = sub.add_parser("verify", help="run quick numeric self-checks")
    p_ver.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                values = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.config}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise ValueError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: expected a JSON object, not a list or value")
        values.pop("environment", None)  # the subcommand decides
        if "lambda" in values:
            if "lam" in values:
                raise ValueError(f"{args.config}: give lam or lambda, not both")
            values["lam"] = values.pop("lambda")
    for key in (f.name for f in dataclasses.fields(ExperimentConfig)):
        flag = getattr(args, key, None)  # None for environment: no flag
        if flag is not None:
            values[key] = flag
    values["environment"] = args.command
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


def _check_writable(path: Path) -> None:
    """Raise ``OSError`` naming ``path`` unless it can be written; creates nothing."""
    if path.exists():
        ok = not path.is_dir() and os.access(path, os.W_OK)
    else:
        ok = path.parent.is_dir() and os.access(path.parent, os.W_OK | os.X_OK)
    if not ok:
        raise OSError(f"cannot write {path}")


def _run_verify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    results = run_all_checks(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        config = _config_from_args(args)
        out = Path(config.out)  # checked before round 1, so a bad path costs no run
        _check_writable(out)
        if config.format == "csv":
            _check_writable(_sidecar_path(out))
        result = run_experiment(config)
        emit_results(result, config.out, config.format)
        print(
            f"{config.policy} on {config.environment}: "
            f"mean final cumulative regret "
            f"{result.mean_cum_regret[-1] if result.T else 0.0:.3f} "
            f"over {config.reps} repetitions -> {config.out}"
        )
        return EXIT_OK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:  # run_experiment wraps every failure inside the round loop
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
