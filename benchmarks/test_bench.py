"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest benchmarks/test_bench.py

Runs every workload once in each mode with small Monte Carlo sizes and checks
that every metric BENCHMARK.json names is reported with its unit, that the
output checks ran on every invocation, that the command lines use only
stable public CLI flags, and that the benchmark refuses to run without the
package source beside it.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Flags the README documents, minus --threads (slated for removal) and the
# output-handling ones the benchmark has no use for.
STABLE_FLAGS = {"--config", "--seed", "--runs", "--output", "--input", "--mode"}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "RUNS", {"contrast_scan": 200, "detect_sweep": 300})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def test_workloads_match_the_spec():
    assert WORKLOADS == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plans_use_only_stable_public_flags(workload, tmp_path):
    plan = run.build_plan(workload, random.Random(0), tmp_path / "plan")
    flags = {token for inv in plan for token in inv.argv if token.startswith("--")}
    assert flags <= STABLE_FLAGS
    assert "--threads" not in flags


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_metric_and_checks_outputs(workload, trace, tiny, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    report = json.loads((run.ROOT / json.loads(lines[-2])["report"]).read_text())
    assert len(report["checks"]) == result["attempted"] >= 1
    for invocation in report["checks"]:
        kinds = {c["kind"] for c in invocation["checks"] if c["check"] != "exit code 0"}
        assert kinds == {"format", "result"}, invocation
    assert report["metadata"]["src_lines"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
