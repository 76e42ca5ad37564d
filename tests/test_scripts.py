"""The reproduction scripts: each runs the command lines README gives for it,
writes exactly their files, each beside its provenance sidecar, and ends in
the CLI's exit code."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rydberg_transistor import cli

ROOT = Path(__file__).resolve().parents[1]
NAMES = ["contrast", "gain", "detection"]


def run_script(name, out, runs="200"):
    """Run scripts/reproduce_<name>.py at --runs ``runs`` --seed 7 into ``out``;
    its exit code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(ROOT / "scripts" / f"reproduce_{name}.py"),
            "--runs", runs, "--seed", "7", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr


def readme_commands(name):
    """The argv of each ``rydberg-transistor`` line README lists under the
    ``# python scripts/reproduce_<name>.py`` comment of its Scripts block."""
    commands, current = [], None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("# python scripts/"):
            current = line.split()[2]
        elif line.startswith("```"):
            current = None
        elif line.startswith("rydberg-transistor ") and current == f"scripts/reproduce_{name}.py":
            commands.append(shlex.split(line)[1:])
    return commands


def result_files(out):
    """{name: bytes} of the result files in ``out``, and the union of the
    ``outputs`` its provenance sidecars list."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    sidecars = [name for name in files if name.endswith(".provenance.json")]
    listed = {key for name in sidecars for key in json.loads(files.pop(name))["outputs"]}
    return files, listed


@pytest.mark.parametrize("name", NAMES)
def test_script_runs(name, tmp_path):
    # twice into one directory: a rerun overwrites, as the scripts always have
    for _ in range(2):
        code, stderr = run_script(name, tmp_path)
        assert code == cli.EXIT_OK, stderr


@pytest.mark.parametrize("name", NAMES)
def test_script_ends_in_the_cli_exit_code(name, tmp_path):
    code, stderr = run_script(name, tmp_path, runs="0")
    assert code == cli.EXIT_CONFIG, stderr
    assert "runs >= 1" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("name", NAMES)
def test_script_writes_the_files_of_its_readme_commands(name, tmp_path, monkeypatch):
    code, stderr = run_script(name, tmp_path / "script")
    assert code == cli.EXIT_OK, stderr
    commands = readme_commands(name)
    assert commands, f"README lists no command for reproduce_{name}.py"
    monkeypatch.chdir(ROOT)  # README's config paths are relative to the repository
    settings = {"--runs": "200", "--seed": "7"}
    for argv in commands:
        argv = [settings.get(prev, arg) for prev, arg in zip(["", *argv], argv)]
        # out/<name>/<file> -> readme/<file>
        argv = [str(Path(tmp_path, "readme", *arg.split("/")[2:]))
                if arg.startswith("out/") else arg for arg in argv]
        assert cli.main(argv) == cli.EXIT_OK, argv
    script, listed = result_files(tmp_path / "script")
    assert script == result_files(tmp_path / "readme")[0]
    assert listed == set(script)  # every file the script wrote has its sidecar

