"""Benchmark of the rydberg-transistor CLI: the paper's three figure pipelines.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json):
  contrast_scan  contrast-scan --config paper30us, then fit-od on its CSV
  detect_sweep   detect --config paper90us
  fit_gain       gain-scan --config paper90us, then fit-saturation on a seeded
                 synthetic transfer curve in the saturated regime and on one in
                 the linear regime

Load: one client in a closed loop.  The workload's command sequence runs
again and again, each command in a fresh interpreter started the way the
``rydberg-transistor`` entry point starts it, so import time is counted, until
another sequence would overrun --seconds.  Sequence i takes its --seed and its
synthetic inputs from random.Random(seed), so the inputs of a run depend only
on --seed.  No --threads flag is passed: every command runs single-threaded.
Every output is checked (benchmarks/checks.py).

--trace 0 reports the end-to-end metrics:
  wall_rel     median over sequences of the commands' summed wall time divided
               by the mean wall time of the reference process, which runs before
               each command and after the last
  setup_s      median time for a fresh interpreter to import rydberg_transistor.cli
               and parse_and_validate the first command line, probed before
               every sequence
  peak_rss_mb  median over sequences of the largest ru_maxrss of its commands
  ok_ratio     invocations that exited 0 and passed every check / invocations
--trace 1 runs the first sequence in one interpreter, untraced and then traced
(benchmarks/tracer.py), and reports the per-layer metrics, the import probe
and the tracing overhead (traced minus untraced wall time).

The last stdout line is the JSON result.  The line before it gives the run
metadata (versions, CPU count, git HEAD, src/ line count; never gated) and
names the JSON report in .bench_work/reports/ with every check and the spans.
Exits 2 without a result when the package source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks
from tracer import LAYER_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}  # the package under test, from source

WORKLOADS = ("contrast_scan", "detect_sweep", "fit_gain")
# --runs per Monte Carlo command.  fit-od's od_sp scatters by about 1.1% of 0.75
# at 2000 runs, so its 5% check failed about one fit in a thousand; at 5000
# runs the scatter is about 0.7% and the check sits some five deviations out.
RUNS = {"contrast_scan": 5000, "detect_sweep": 3000}
SETUP_REPEATS = 3  # at least this many setup probes: one per sequence, then more
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0

# Synthetic transfer curves for fit_gain: a(1 - e^{-x/b}) + N(0, sd), 10 points.
# At sd 0.1 the saturated fit's (a, b) scatter by about 0.5%, so the 5% check
# sits some ten standard deviations out; at sd 0.5 about one fit in thirty
# missed it.  The linear-regime noise stays small too: at sd 0.3-0.5 a single
# fit can wander for 15-40 s, longer than a whole run.
SATURATED = (25.0, 250.0, 0.1)  # x from, x to, noise sd
LINEAR = (2.0, 20.0, 0.1)

# The console-script wrapper of the `rydberg-transistor` entry point.
ENTRY = "import sys; from rydberg_transistor.cli import main; sys.exit(main())"
# The reference process: a fresh interpreter importing the package's dependency
# stack, which no change to the package alters.  On a shared 2-core VM the CPU
# speed drifts by up to 1.5x over minutes, and the import-heavy sequences drift
# with it: across ten runs their median wall times spread by 0.16-0.30 (quartile
# distance over median).  Divided by the reference's wall time, measured in
# the same moments, it fell to 0.04-0.11.
REFERENCE = "import numpy, scipy.optimize, scipy.stats"
SETUP = ("import sys; from rydberg_transistor.cli import parse_and_validate; "
         "parse_and_validate(sys.argv[1:])")
IMPORT_PROBE = (
    "import json, sys, time; t = time.perf_counter(); import rydberg_transistor.cli; "
    "t = time.perf_counter() - t; "
    "print(json.dumps({'import_s': t, "
    "'scipy_modules': sum(m.startswith('scipy') for m in sys.modules)}))"
)

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    "package.import_s": "s",
    "package.scipy_modules": "count",
    "cli.bytes_written": "B",
    **LAYER_METRICS,
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    argv: list[str]
    out: Path
    check: Callable[[Path, checks.Checks], None]


def _write_curve(path: Path, rng: random.Random, x_lo: float, x_hi: float, sd: float):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,sigma\n")
        for i in range(10):
            x = x_lo + (x_hi - x_lo) * i / 9
            y = checks.SAT_A * -math.expm1(-x / checks.SAT_B) + rng.gauss(0.0, sd)
            fh.write(f"{x!r},{y!r},{sd!r}\n")


def build_plan(workload: str, rng: random.Random, base: Path) -> list[Invocation]:
    """Next command sequence of a workload; writes its synthetic inputs under base."""
    base.mkdir(parents=True)
    seed = str(rng.randrange(2**32))
    common = ["--seed", seed, "--output"]
    if workload == "contrast_scan":
        scan, fit = base / "contrast-scan", base / "fit-od"
        return [
            Invocation(["contrast-scan", "--config", "paper30us", "--runs",
                        str(RUNS[workload]), *common, str(scan)],
                       scan, checks.check_contrast_scan),
            Invocation(["fit-od", "--input", str(scan / "contrast_scan.csv"),
                        "--mode", "incoming", *common, str(fit)],
                       fit, checks.check_fit_od),
        ]
    if workload == "detect_sweep":
        out = base / "detect"
        return [Invocation(["detect", "--config", "paper90us", "--runs",
                            str(RUNS[workload]), *common, str(out)],
                           out, checks.check_detect)]
    if workload == "fit_gain":
        saturated, linear = base / "saturated.csv", base / "linear.csv"
        _write_curve(saturated, rng, *SATURATED)
        _write_curve(linear, rng, *LINEAR)
        gain, sat, lin = base / "gain-scan", base / "fit-saturated", base / "fit-linear"
        return [
            Invocation(["gain-scan", "--config", "paper90us", *common, str(gain)],
                       gain, checks.check_gain_scan),
            Invocation(["fit-saturation", "--input", str(saturated), *common, str(sat)],
                       sat, checks.check_fit_saturation_saturated),
            Invocation(["fit-saturation", "--input", str(linear), *common, str(lin)],
                       lin, checks.check_fit_saturation_linear),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def spawn(code: str, args: list[str], log: Path) -> tuple[int, int, float]:
    """Run `python -c code args` to completion: (exit code, ru_maxrss KiB, seconds)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, seconds


def check_invocation(inv: Invocation, code: int) -> checks.Checks:
    result = checks.Checks()
    result.add("exit code 0", "result", code == 0, f"exit {code}")
    inv.check(inv.out, result)
    return result


def reference(log: Path) -> float:
    code, _, seconds = spawn(REFERENCE, [], log)
    if code != 0:
        raise RuntimeError(f"reference process failed; see {log}")
    return seconds


def run_sequence(plan: list[Invocation], log: Path) -> dict:
    """Run a command sequence with a reference process before each command and
    after the last.

    wall_s sums the commands' wall times; reference_s is the references' mean.
    """
    invocations, references = [], []
    for inv in plan:
        references.append(reference(log))
        code, rss_kib, seconds = spawn(ENTRY, inv.argv, log)
        invocations.append({"argv": inv.argv, "exit": code, "rss_kib": rss_kib,
                            "seconds": seconds})
    references.append(reference(log))
    for inv, record in zip(plan, invocations):
        record["checks"] = check_invocation(inv, record["exit"])
    return {"wall_s": math.fsum(r["seconds"] for r in invocations),
            "reference_s": statistics.fmean(references),
            "peak_rss_kib": max(r["rss_kib"] for r in invocations),
            "invocations": invocations}


def tally(invocations: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over checked invocations."""
    failed = sum(not r["checks"].ok for r in invocations)
    correct = all(r["checks"].results_ok for r in invocations)
    return correct, len(invocations), failed


def measure_end_to_end(workload: str, seed: int, seconds: float, work: Path,
                       report: dict) -> tuple[dict, list[dict]]:
    rng = random.Random(seed)
    log = work / "stderr.log"
    plan = build_plan(workload, rng, work / "seq0")
    # untimed: compiles the package's bytecode and warms the file cache for
    # it and for the reference's imports
    spawn(SETUP, plan[0].argv, log)

    # A setup probe precedes every sequence, so that both medians are taken
    # over the whole window and a slow spell of the machine weighs alike on each.
    setup, sequences = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        setup.append(spawn(SETUP, plan[0].argv, log))
        seq = run_sequence(plan, log)
        sequences.append(seq)
        shutil.rmtree(work / f"seq{len(sequences) - 1}")
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
        plan = build_plan(workload, rng, work / f"seq{len(sequences)}")
    setup += [spawn(SETUP, plan[0].argv, log) for _ in range(SETUP_REPEATS - len(setup))]
    if any(code != 0 for code, _, _ in setup):
        raise RuntimeError(f"setup probe failed; see {log}")
    report["setup_s_samples"] = [s for _, _, s in setup]

    invocations = [r for seq in sequences for r in seq["invocations"]]
    _, attempted, failed = tally(invocations)
    metrics = {
        "wall_rel": statistics.median(s["wall_s"] / s["reference_s"] for s in sequences),
        "setup_s": statistics.median(report["setup_s_samples"]),
        "peak_rss_mb": statistics.median(s["peak_rss_kib"] for s in sequences) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    report["sequences"] = sequences
    return metrics, invocations


def _python_json(code: str, log: Path) -> dict:
    with open(log, "ab") as err:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=err, timeout=COMMAND_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def measure_layers(workload: str, seed: int, work: Path,
                   report: dict) -> tuple[dict, list[dict]]:
    log = work / "stderr.log"
    # the first probe is untimed: it compiles the package's bytecode
    probes = [_python_json(IMPORT_PROBE, log) for _ in range(IMPORT_REPEATS + 1)][1:]
    report["import_probes"] = probes

    runs = {}
    invocations = []
    for traced in (0, 1):
        plan = build_plan(workload, random.Random(seed), work / f"inproc{traced}")
        plan_path, out_path = work / f"plan{traced}.json", work / f"inproc{traced}.json"
        plan_path.write_text(json.dumps([inv.argv for inv in plan]), encoding="utf-8")
        with open(log, "ab") as err:
            subprocess.run(
                [sys.executable, str(BENCH / "inprocess.py"), str(plan_path), str(out_path),
                 "--trace", str(traced)],
                cwd=ROOT, env=CHILD_ENV,
                stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                timeout=COMMAND_TIMEOUT_S, check=True)
        runs[traced] = json.loads(out_path.read_text(encoding="utf-8"))
        for inv, code in zip(plan, runs[traced]["codes"]):
            invocations.append({"argv": inv.argv, "exit": code,
                                "checks": check_invocation(inv, code)})
    written = sum(f.stat().st_size for inv in plan if inv.out.is_dir()
                  for f in inv.out.iterdir())

    trace = runs[1]["trace"]
    report["trace"] = trace
    metrics = {
        "package.import_s": statistics.median(p["import_s"] for p in probes),
        "package.scipy_modules": probes[-1]["scipy_modules"],
        "cli.bytes_written": written,
        **layer_metrics(trace),
        "trace.overhead_s": runs[1]["wall_s"] - runs[0]["wall_s"],
    }
    report["inprocess_wall_s"] = {"untraced": runs[0]["wall_s"], "traced": runs[1]["wall_s"]}
    return metrics, invocations


def _git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_metadata() -> dict:
    """Informational only: never gated."""
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "git_head": _git_head(),
        "src_lines": src_lines,
        "runs": RUNS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "rydberg_transistor" / "cli.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metadata": run_metadata()}
    try:
        if args.trace:
            values, invocations = measure_layers(args.workload, args.seed, work, report)
            units = PER_LAYER
        else:
            values, invocations = measure_end_to_end(args.workload, args.seed,
                                                     args.seconds, work, report)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed = tally(invocations)
    report["checks"] = [{"argv": r["argv"], "exit": r["exit"], "checks": r["checks"].outcomes}
                        for r in invocations]
    report["missing_metrics"] = [name for name in units if values.get(name) is None]
    for name in report["missing_metrics"]:
        print(f"metric {name}: measured name no longer exists", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    report["result"] = result
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=_encode), encoding="utf-8")
    print(json.dumps({"report": str(path.relative_to(ROOT)), "metadata": report["metadata"]}))
    print(json.dumps(result))
    return 0


def _encode(obj):
    if isinstance(obj, checks.Checks):
        return obj.outcomes
    raise TypeError(f"cannot encode {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
