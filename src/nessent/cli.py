"""Command-line entry point.

Usage:
    nessent <scenario> --config <path> [--out <path>] [--threads N]
    nessent selftest

Scenarios: sweep-length, sweep-position, sweep-bias, sweep-distance,
eval-asymptotics, selftest.  The worker-pool size is --threads if given,
else the config file's ``threads`` key, else 1.  selftest takes no flag.

Exit status is 0 iff every computation converged; on failure a single
machine-readable line ``error kind=<Type> message="..."`` goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .config import SCENARIOS, ExperimentConfig, ParseError, emit_csv, parse_config
from .experiments import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nessent", description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output CSV path (overrides the config)")
    parser.add_argument("--threads", type=int, default=None, help="worker pool size")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.scenario == "selftest":
            for flag, value in (("--config", args.config), ("--out", args.out), ("--threads", args.threads)):
                if value is not None:
                    raise ParseError(f"selftest takes no {flag}")
            from .selftest import run_selftest

            return 0 if run_selftest() else 1
        if args.config is None:
            raise ParseError(f"scenario {args.scenario} requires --config")
        config: ExperimentConfig = parse_config(args.config, args.scenario)
        if args.threads is not None:
            if args.threads < 1:
                raise ParseError(f"--threads must be at least 1, got {args.threads}")
            config.threads = args.threads
        out_path = args.out or config.out
        if out_path is None:
            raise ParseError("no output path: pass --out or set 'out' in the config")
        fieldnames, rows = run_scenario(config)
        emit_csv(rows, out_path, fieldnames)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        message = str(exc).replace('"', "'")
        print(f'error kind={type(exc).__name__} message="{message}"', file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
