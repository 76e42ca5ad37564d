"""The reproduction scripts: each runs, and the detection script writes what
``detect`` writes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rydberg_transistor import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the files reproduce_detection.py writes, each also a detect result file
DETECT_FILES = ("fidelity_sweep.csv", "gated_histogram.csv", "reference_histogram.csv",
                "decomposition.csv")


def run_script(name, out):
    """Run scripts/reproduce_<name>.py at --runs 200 --seed 7 into ``out``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(SCRIPTS / f"reproduce_{name}.py"),
            "--runs", "200", "--seed", "7", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["contrast", "gain", "detection"])
def test_script_runs(name, tmp_path):
    run_script(name, tmp_path)


def test_detection_script_writes_the_files_of_detect(tmp_path):
    run_script("detection", tmp_path / "script")
    assert cli.main(["detect", "--config", "paper90us", "--runs", "200", "--seed", "7",
                     "--output", str(tmp_path / "detect")]) == cli.EXIT_OK
    for name in DETECT_FILES:
        assert ((tmp_path / "script" / name).read_bytes()
                == (tmp_path / "detect" / name).read_bytes()), name
