"""One fresh nessent process, as a user runs it, with timestamps.

Usage:
    python3 perfbench/child.py --sidecar PATH [--trace PATH] [--setup-only] \
        -- <nessent CLI arguments>

Runs ``nessent.cli.main`` (the ``nessent`` console script) on the given
arguments.  The sidecar JSON records when ``main`` started, when the
scenario runner was entered, when ``main`` returned, the exit code and the
peak resident set size; the parent holds the spawn time, so set-up time is
runner entry minus spawn on the shared monotonic clock.  ``--setup-only``
stops at runner entry.  ``--trace`` wraps the package's layer entry points
(see tracer.py) and writes the spans as JSONL.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


class _StopAtRunner(BaseException):
    """Ends a set-up sample at runner entry; not an error of the program."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import nessent.cli as cli

    record: dict = {}
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    runner = cli.run_scenario

    def timed_runner(config):
        record["t_entry"] = time.monotonic()
        if args.setup_only:
            raise _StopAtRunner
        return runner(config)

    cli.run_scenario = timed_runner
    record["t_main"] = time.monotonic()
    try:
        if tracer is None:
            rc = cli.main(cli_args)
        else:
            with tracer.span("cli.main"):
                rc = cli.main(cli_args)
    except _StopAtRunner:
        rc = 0
    record["t_end"] = time.monotonic()
    record["rc"] = rc
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write_jsonl(args.trace)
    with open(args.sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
