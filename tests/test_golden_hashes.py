"""Golden hashes: the sha256 of every result file of a fixed set of CLI runs.

``golden_hashes.json`` maps each case to {result file: sha256}.  A change that
is meant to keep every result byte for byte (a speed-up, a refactor) must
leave the table as it is; a change that moves a result must say so and
rewrite the table, at the tree whose results it trusts.

detect's pmfs come from numpy's exp, whose float64 array loop is numpy's own
AVX-512 routine where the CPU has AVX-512 ("simd") and the C library's exp
elsewhere ("libm"); the two differ in the last bit for a few percent of
inputs, and so do detect's decomposition and fidelity files.  So the table
holds one set of hashes per variant, and the test checks the one this
machine's numpy uses.  On an AVX-512 machine (numpy 2.x) write both with

    PYTHONPATH=src python tests/test_golden_hashes.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        PYTHONPATH=src python tests/test_golden_hashes.py
"""

import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from rydberg_transistor import cli

TABLE = Path(__file__).with_name("golden_hashes.json")
RUNS = "200"


def exp_variant() -> str:
    """Which exp numpy applies to float64 arrays: "libm" (the C library's) or "simd"."""
    probe = np.linspace(-50.0, 50.0, 4001)
    return "libm" if np.exp(probe).tolist() == list(map(math.exp, probe.tolist())) else "simd"


def cases():
    """(case, argv without --output, None or the (earlier case, file) it
    reads), in run order: each fit reads the csv scan of its own config."""
    out = []
    for config in ("paper30us", "paper90us"):
        for fmt in ("csv", "json"):
            common = ["--config", config, "--runs", RUNS, "--format", fmt]
            for command in ("contrast-scan", "transfer-scan", "gain-scan", "simulate",
                            "detect"):
                out.append((f"{config} {fmt} {command}", [command, *common], None))
            out.append((f"{config} {fmt} fit-od", ["fit-od", *common],
                        (f"{config} csv contrast-scan", "contrast_scan.csv")))
            out.append((f"{config} {fmt} fit-saturation", ["fit-saturation", *common],
                        (f"{config} csv transfer-scan", "transfer_scan.csv")))
    common = ["--config", "paper30us", "--runs", RUNS]
    out.append(("paper30us csv fit-od --mode stored --cap 4",
                ["fit-od", *common, "--mode", "stored", "--cap", "4"],
                ("paper30us csv contrast-scan", "contrast_scan.csv")))
    for fmt in ("csv", "json"):
        out.append((f"paper30us {fmt} detect --mu0 1e3",
                    ["detect", *common, "--format", fmt, "--mu0", "1e3"], None))
    return out


def result_hashes(root: Path) -> dict[str, dict[str, str]]:
    """Run every case in process under ``root``; {case: {file: sha256}} of the
    result files each wrote (its provenance sidecar carries timestamps)."""
    def directory(case):
        return root / case.replace(" ", "_")

    table = {}
    for case, argv, source in cases():
        out_dir = directory(case)
        extra = ["--input", str(directory(source[0]) / source[1])] if source else []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fits' boundary and regime warnings
            assert cli.main([*argv, *extra, "--output", str(out_dir)]) == cli.EXIT_OK, case
        table[case] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted(out_dir.iterdir())
                       if not path.name.endswith(".provenance.json")}
    return table


def test_every_result_file_matches_its_golden_hash(tmp_path):
    tables = json.loads(TABLE.read_text(encoding="utf-8"))
    assert exp_variant() in tables, f"no golden hashes for numpy's {exp_variant()} exp"
    expected = tables[exp_variant()]
    got = result_hashes(tmp_path)
    assert list(got) == list(expected)
    for case, files in expected.items():
        assert got[case] == files, case


def test_only_detect_pmf_files_depend_on_the_exp_variant():
    tables = json.loads(TABLE.read_text(encoding="utf-8"))
    assert sorted(tables) == ["libm", "simd"]
    assert all(list(tables["libm"][case]) == list(files) for case, files in tables["simd"].items())
    differ = {(case, name) for case, files in tables["simd"].items()
              for name, digest in files.items() if tables["libm"][case][name] != digest}
    assert {name.split(".")[0] for _, name in differ} == {"decomposition", "fidelity_sweep"}
    assert {case.split(" ")[2] for case, _ in differ} == {"detect"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = result_hashes(Path(tmp))
    tables = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    tables[exp_variant()] = table
    TABLE.write_text(json.dumps(dict(sorted(tables.items())), indent=1) + "\n",
                     encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} hashes of {len(table)} cases for numpy's "
          f"{exp_variant()} exp to {TABLE}", file=sys.stderr)
