"""Command-line entry point for running and checking experiments."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .energies import FunctionalError
from .experiments import (
    EXPERIMENTS,
    ExperimentError,
    RunManifest,
    make_metric,
    run_experiment,
)
from .flows import FlowError
from .geometry import KahlerConeError, ModelError
from .hermforms import HermitianError, PositivityError
from .maps import QuantizationError
from .nanorms import NANormError

# Numerical failures of a config that passed validation (exit code 3).
RUN_ERRORS = (
    FlowError,
    QuantizationError,
    ModelError,
    KahlerConeError,
    NANormError,
    HermitianError,
    PositivityError,
    FunctionalError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkrf",
        description="Quantized Kahler-Ricci flow experiments on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to a JSON config file")
    run_p.add_argument(
        "--output-dir", default=None, help="override the config output directory"
    )

    sub.add_parser("list-experiments", help="list known experiment names")

    check_p = sub.add_parser("check", help="re-evaluate a manifest's thresholds")
    check_p.add_argument("manifest", help="path to a manifest.json")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(payload, output_dir=args.output_dir)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RUN_ERRORS as exc:
        print(f"error: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write run directory: {exc}", file=sys.stderr)
        return 2
    for line in manifest.summary_lines():
        print(line)
    print(
        f"{manifest.experiment}: "
        f"{'all metrics passed' if manifest.passed else 'metric failures'} "
        f"in {manifest.wall_clock_seconds:.2f}s"
    )
    return 0 if manifest.passed else 1


def _cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name}: {EXPERIMENTS[name].description}")
    return 0


def _cmd_check(args) -> int:
    try:
        manifest = RunManifest.from_json(args.manifest)
        # decide every metric afresh from its value, threshold and comparison
        manifest.metrics = [
            make_metric(m["name"], m["value"], m["threshold"], m["op"])
            for m in manifest.metrics
        ]
    except (OSError, TypeError, KeyError, ValueError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    for line in manifest.summary_lines():
        print(line)
    return 0 if all(m["passed"] for m in manifest.metrics) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-experiments":
        return _cmd_list()
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
