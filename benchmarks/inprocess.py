"""Run a workload's CLI command lines in one interpreter, traced or not.

    python3 benchmarks/inprocess.py PLAN.json REPORT.json --trace 0|1

PLAN.json is a list of argv lists for ``rydberg_transistor.cli.main``.  The
report holds the exit codes, the in-process wall time of the sequence and,
when traced, the tracer's spans and counters.  The package is imported
before the clock starts; its import time is measured separately.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("report")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    from rydberg_transistor import cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    codes = []
    start = time.perf_counter()
    try:
        for argv in plan:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash is this invocation's failure, as exit 1 would be
                traceback.print_exc()
                codes.append(1)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {"codes": codes, "wall_s": wall}
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
