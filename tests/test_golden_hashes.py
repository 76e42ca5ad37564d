"""Golden hashes: the sha256 of every result file of a fixed set of CLI runs.

``golden_hashes.json`` maps each case to {result file: sha256}.  A change that
is meant to keep every result byte for byte (a speed-up, a refactor) must
leave the table as it is; a change that moves a result must say so and
rewrite the table, at the tree whose results it trusts, with

    PYTHONPATH=src python tests/test_golden_hashes.py

No result depends on the CPU's SIMD set: every exp a result file reads is the
C library's, through ``math.exp``, so one table holds on every machine.
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

from rydberg_transistor import cli

TABLE = Path(__file__).with_name("golden_hashes.json")
RUNS = "200"
# the config of reproduce_gain.py's transfer scan and fit
GAIN_TRANSFER = Path(__file__).resolve().parents[1] / "scripts" / "gain_transfer.cfg"


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
    common = ["--config", str(GAIN_TRANSFER), "--runs", RUNS, "--seed", "1"]
    out.append(("gain_transfer.cfg csv transfer-scan --seed 1", ["transfer-scan", *common], None))
    out.append(("gain_transfer.cfg csv fit-saturation --seed 1", ["fit-saturation", *common],
                ("gain_transfer.cfg csv transfer-scan --seed 1", "transfer_scan.csv")))
    return out


def directory(root: Path, case: str) -> Path:
    """Where ``case`` writes its result files under ``root``."""
    return root / case.replace(" ", "_")


def run_case(root: Path, case: str, argv: list[str], source) -> Path:
    """Run ``case`` in process into its directory under ``root``, reading its
    ``--input`` from the directory of the case it names; the directory."""
    out_dir = directory(root, case)
    extra = ["--input", str(directory(root, source[0]) / source[1])] if source else []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the fits' boundary and regime warnings
        assert cli.main([*argv, *extra, "--output", str(out_dir)]) == cli.EXIT_OK, case
    return out_dir


def result_hashes(root: Path) -> dict[str, dict[str, str]]:
    """Run every case in process under ``root``; {case: {file: sha256}} of the
    result files each wrote (its provenance sidecar carries timestamps)."""
    table = {}
    for case, argv, source in cases():
        out_dir = run_case(root, case, argv, source)
        table[case] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted(out_dir.iterdir())
                       if not path.name.endswith(".provenance.json")}
    return table


def test_every_result_file_matches_its_golden_hash(tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = result_hashes(tmp_path)
    assert list(got) == list(expected)
    for case, files in expected.items():
        assert got[case] == files, case


# one case of each command, the sources of the fits' inputs among them
REPLAYED = ("paper30us csv contrast-scan", "paper30us json gain-scan",
            "gain_transfer.cfg csv transfer-scan --seed 1", "paper90us json simulate",
            "paper30us csv detect --mu0 1e3", "paper30us csv fit-od --mode stored --cap 4",
            "gain_transfer.cfg csv fit-saturation --seed 1")


def config_text(resolved: dict) -> str:
    """A sidecar's ``resolved_config`` as a config file: floats by repr (inf
    too), lists space-separated, bools in lower case."""
    def value(v):
        if isinstance(v, bool):
            return str(v).lower()
        return " ".join(map(repr, v)) if isinstance(v, list) else repr(v)

    return "".join(f"[{section}]\n" + "".join(f"{key} = {value(v)}\n" for key, v in keys.items())
                   for section, keys in resolved.items())


def replay_argv(sidecar: dict, config: Path) -> list[str]:
    """The command line, without --output, that reruns a sidecar's run: its
    config written out to ``config``, and its recorded seed, runs, format and
    options."""
    argv = [sidecar["command"], "--config", str(config), "--seed", str(sidecar["seed"]),
            "--runs", str(sidecar["runs"]), "--format", sidecar["format"]]
    for flag, value in sidecar["options"].items():
        argv += [f"--{flag}", str(value)]
    return argv


def test_each_command_replays_from_its_sidecar(tmp_path, monkeypatch):
    # identical manifests give identical bytes: each case is run again from
    # what its sidecar records, from the same working directory, so a
    # relative --input names the same file (the inputs hash checks it)
    monkeypatch.chdir(tmp_path)
    replayed = [(case, argv, source) for case, argv, source in cases() if case in REPLAYED]
    assert sorted(argv[0] for _, argv, _ in replayed) == sorted(cli.COMMANDS)
    Path("configs").mkdir()
    for case, argv, source in replayed:
        name = f"{argv[0]}.provenance.json"
        first = json.loads((run_case(Path("first"), case, argv, source) / name).read_text())
        config = directory(Path("configs"), f"{case}.cfg")
        config.write_text(config_text(first["resolved_config"]), encoding="utf-8")
        again = run_case(Path("again"), case, replay_argv(first, config), None)
        second = json.loads((again / name).read_text())
        for key in ("outputs", "resolved_config", "inputs", "options"):
            assert second[key] == first[key], (case, key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = result_hashes(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} hashes of {len(table)} cases to {TABLE}",
          file=sys.stderr)
