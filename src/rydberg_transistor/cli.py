"""Command-line front end.

Subcommands: contrast-scan, gain-scan, transfer-scan, simulate, fit-od,
fit-saturation, detect.  Behavior is driven by an INI config file (merged
with flag overrides, flags win) and a master seed; result files are
byte-identical for identical manifests.  Every execution writes a provenance
sidecar with the resolved config and content hashes of the input file, if
any, and of the outputs.

Exit codes: 0 ok, 2 usage error, 3 config validation failure, 4 numerical
failure (any other package error while a command runs; a diagnostics file is
written), 5 I/O failure.

A command starts on `errors`, `models`, argparse and configparser alone: the
layers its runner runs, and csv, json, hashlib and datetime for the result
files, are imported when first needed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from collections import namedtuple
from itertools import chain

from . import __version__, models
from .errors import ConfigError, TransistorError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

BUILTIN_CONFIGS = ("paper30us", "paper90us")

DEFAULT_CONFIG = "paper30us"


class RunManifest(namedtuple("RunManifest", "command config_path seed runs output_dir "
                             "format force options resolved")):
    """Everything that determines one CLI execution."""

    __slots__ = ()

    def __new__(cls, command, config_path, seed, runs, output_dir, format, force,
                options=None, resolved=None):
        return super().__new__(cls, command, config_path, seed, runs, output_dir, format,
                               force, options or {}, resolved or {})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydberg-transistor",
        description="Photon-transistor simulation and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help=f"config file path or builtin name {BUILTIN_CONFIGS}")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--runs", type=int, default=None, help="runs per ensemble")
        p.add_argument("--output", default="out", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")

    p = sub.add_parser("contrast-scan", help="simulated contrast vs gate photons")
    add_common(p)
    p.add_argument("--mode", choices=["incoming", "stored"], default="incoming")

    add_common(sub.add_parser("gain-scan", help="closed-form gain vs source input"))
    add_common(sub.add_parser("transfer-scan",
                              help="simulated transfer curve with/without gate"))
    add_common(sub.add_parser("simulate", help="one ensemble, histogram + summary"))

    p = sub.add_parser("fit-od", help="fit the contrast model to a CSV dataset")
    add_common(p)
    p.add_argument("--input", required=True, help="CSV with columns x,y,sigma")
    p.add_argument("--mode", choices=["incoming", "stored"], default="incoming")
    p.add_argument("--cap", type=int, default=None, help="blockade cap override")

    p = sub.add_parser("fit-saturation", help="fit the transfer curve to a CSV dataset")
    add_common(p)
    p.add_argument("--input", required=True, help="CSV with columns x,y,sigma")

    p = sub.add_parser("detect", help="single-shot detection fidelity pipeline")
    add_common(p)
    p.add_argument("--mu0", type=float, default=None,
                   help="single no-gate mean instead of the configured sweep")
    return parser


# Section -> key -> (parser, default).  The shipped configs override these.
_F, _I, _B, _LIST = "float", "int", "bool", "floatlist"

CONFIG_SCHEMA = {
    "transistor": {
        "od_sp": (_F, 0.75),
        "od_st": (_F, 2.2),
        "cap": (_I, 3),
        "a_ge": (_F, 0.15),
        "eta_det": (_F, 0.31),
    },
    "saturation": {
        "a": (_F, 46.0),
        "b": (_F, 70.0),
    },
    "simulation": {
        "n_gate_in": (_F, 0.75),
        "p_store": (_F, models.DEFAULT_P_STORE),
        "source_rate": (_F, 0.69),
        "t_int": (_F, 30.0),
        "retention_tau": (_F, math.inf),
        "self_blockade": (_B, False),
        "runs": (_I, 250),
        "seed": (_I, 20140721),
    },
    "scan": {
        "gate_values": (_LIST, [0.25 * k for k in range(1, 15)]),
        "source_values": (_LIST, [25.0 * k for k in range(1, 11)]),
    },
    "detection": {
        "n_stored": (_F, 0.61),
        "od_st_model": (_F, 0.94),
        "od_st_instant": (_F, 2.2),
        "mu0_values": (_LIST, [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]),
    },
}


def _parse_value(kind: str, raw: str):
    if kind == _F:
        return float(raw)
    if kind == _I:
        return int(raw)
    if kind == _B:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return [float(tok) for tok in raw.replace(",", " ").split()]


# The [simulation] values SimConfig takes and models.simulation_violations checks.
_SIM_KEYS = ("n_gate_in", "p_store", "source_rate", "t_int", "retention_tau")


def _finite_or_allowed(section: str, key: str, value) -> bool:
    """Every config float is finite, except the documented retention_tau = inf."""
    if (section, key) == ("simulation", "retention_tau") and value == math.inf:
        return True
    return all(map(math.isfinite, value if isinstance(value, list) else [value]))


def _resolve_config_source(name: str | None):
    """Return (display_name, text) of the selected config file."""
    if name is None:
        name = DEFAULT_CONFIG
    if os.path.exists(name):
        path = name
    elif name in BUILTIN_CONFIGS:  # package data, plain files beside this module
        path = os.path.join(os.path.dirname(__file__), "configs", f"{name}.cfg")
    else:
        raise ConfigError([f"config {name!r} is neither a file nor one of {BUILTIN_CONFIGS}"])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return name, fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"config {name}: {exc}"]) from exc


def load_config(name: str | None) -> tuple[str, dict]:
    """Resolve and parse a config file against the schema, defaults filled in."""
    display, text = _resolve_config_source(name)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config {display}: {exc}"]) from exc

    violations = []
    resolved = {}
    for section, keys in CONFIG_SCHEMA.items():
        resolved[section] = {}
        for key, (kind, default) in keys.items():
            if cp.has_option(section, key):
                try:
                    value = _parse_value(kind, cp.get(section, key))
                except ValueError as exc:
                    violations.append(f"{section}.{key}: {exc}")
                    continue
                resolved[section][key] = value
                if kind in (_F, _LIST) and not _finite_or_allowed(section, key, value):
                    violations.append(f"{section}.{key}: must be finite, got {value!r}")
            else:
                resolved[section][key] = default
    for section in cp.sections():
        if section not in CONFIG_SCHEMA:
            violations.append(f"unknown config section [{section}]")
        else:
            for key in cp.options(section):
                if key not in CONFIG_SCHEMA[section]:
                    violations.append(f"unknown config key {section}.{key}")
    if violations:
        raise ConfigError(violations)
    return display, resolved


def _mu0_checks(name: str, values: list[float], eta_det: float) -> list[tuple[str, bool]]:
    """Detection no-gate means: within the analysis' MU0_MAX, and the source
    photon number mu0 / eta_det they need within numpy's Poisson limit."""
    lam_max, mu0_max = models.POISSON_LAM_MAX, models.MU0_MAX
    return [
        (f"{name} in (0, {mu0_max:g}]", all(0 < v <= mu0_max for v in values)),
        (f"{name} / transistor.eta_det <= {lam_max:g}",
         all(v <= lam_max * eta_det for v in values)),
    ]


def _self_blockade(command: str, resolved: dict) -> bool:
    """Whether the command simulates with self-blockade; transfer-scan always does."""
    return command == "transfer-scan" or resolved["simulation"]["self_blockade"]


def _validate(resolved: dict, seed: int, runs: int, command: str) -> list[str]:
    """Names of the violated invariants.

    [transistor], [saturation] and [simulation] are checked by the invariant
    lists their objects raise DomainError on, each name behind its section.
    The checks here have no object: [detection], mu0, the scan lists, runs and
    seed.  Each fails on NaN; Poisson means stay within POISSON_LAM_MAX, and
    detected means, which size the engine's count table, within MU0_MAX.
    """
    sim = resolved["simulation"]
    det = resolved["detection"]
    scan = resolved["scan"]
    eta, t_int = resolved["transistor"]["eta_det"], sim["t_int"]
    lam_max = models.POISSON_LAM_MAX
    lam = f"{lam_max:g}"
    tau_lo = models.RETENTION_TAU_BRACKET[0]  # calibrate_retention_tau's bracket
    objects = {
        "transistor": models.TransistorParams.violations(**resolved["transistor"]),
        "saturation": models.SaturationParams.violations(**resolved["saturation"]),
        "simulation": models.simulation_violations(**{k: sim[k] for k in _SIM_KEYS}),
    }
    # Detected means are bounded as the engine draws them: thinned under
    # self-blockade.  A thinned one needs a valid [saturation]; without it,
    # which is named already, it goes unchecked.
    sat = None if objects["saturation"] else models.SaturationParams(**resolved["saturation"])
    thinned = _self_blockade(command, resolved)
    if not (thinned and sat is None):
        objects["simulation"] += models.detected_mean_violations(
            sim["source_rate"], t_int, eta, sat if thinned else None)
    checks = [
        (f"detection.n_stored in [0, {lam}]", 0 <= det["n_stored"] <= lam_max),
        ("detection.od_st_model > 0", det["od_st_model"] > 0),
        ("detection.od_st_instant >= od_st_model",
         det["od_st_instant"] >= det["od_st_model"]),
        (f"detection.od_st_model >= {tau_lo:g} * od_st_instant",
         det["od_st_model"] >= tau_lo * det["od_st_instant"]),
        ("detection.mu0_values is not empty", bool(det["mu0_values"])),
        *_mu0_checks("detection.mu0_values all", det["mu0_values"], eta),
        ("scan.gate_values is not empty", bool(scan["gate_values"])),
        (f"scan.gate_values all in (0, {lam}]",
         all(0 < v <= lam_max for v in scan["gate_values"])),
        ("scan.source_values is not empty", bool(scan["source_values"])),
        (f"scan.source_values all in (0, {lam}]",
         all(0 < v <= lam_max for v in scan["source_values"])),
        # as the SimConfig that transfer-scan runs each value with checks it
        (f"scan.source_values all * transistor.eta_det * saturation_thinning"
         f" <= {models.MU0_MAX:g}",
         sat is None or t_int <= 0 or not any(
             models.detected_mean_violations(v / t_int, t_int, eta, sat)
             for v in scan["source_values"])),
        ("runs >= 1", runs >= 1),
    ]
    return ([f"{section}.{name}" for section, names in objects.items() for name in names]
            + models.failed_checks(checks) + models.seed_violations(seed))


def parse_and_validate(argv) -> RunManifest:
    """Strict argv parsing + config resolution; raises ConfigError on bad values."""
    args = _build_parser().parse_args(argv)
    config_path, resolved = load_config(args.config)

    seed = args.seed if args.seed is not None else resolved["simulation"]["seed"]
    runs = args.runs if args.runs is not None else resolved["simulation"]["runs"]
    resolved["simulation"]["seed"] = seed
    resolved["simulation"]["runs"] = runs

    # each subparser defines only its own flags
    options = {key: getattr(args, key) for key in ("mode", "input", "cap", "mu0")
               if getattr(args, key, None) is not None}

    violations = _validate(resolved, seed, runs, args.command)
    cap = options.get("cap", 1)  # set by fit-od alone
    violations += models.failed_checks([("fit-od --cap >= 1", cap >= 1),
                                        (f"fit-od --cap <= {models.CAP_MAX}",
                                         cap <= models.CAP_MAX)])
    if "mu0" in options:
        mu0 = options["mu0"]
        if not math.isfinite(mu0):
            violations.append(f"detect --mu0: must be finite, got {mu0!r}")
        else:
            violations += models.failed_checks(
                _mu0_checks("detect --mu0", [mu0], resolved["transistor"]["eta_det"]))
    if violations:
        raise ConfigError(violations)

    return RunManifest(
        command=args.command,
        config_path=config_path,
        seed=seed,
        runs=runs,
        output_dir=args.output,
        format=args.format,
        force=args.force,
        options=options,
        resolved=resolved,
    )


def _csv_cell(v):
    """A table cell as ``write_csv`` takes it: a numpy scalar as its Python
    value, a bool (numpy's too) as true/false."""
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def write_csv(path, header, rows) -> None:
    """The one CSV result-file writer: UTF-8, a header row, then one LF-ended
    line per row of any iterable, so rows can be streamed.  Cells are str, int
    or float; a float is written with ``repr``, so it reads back exactly."""
    import csv  # the writer modules load with the first write, not at start

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload, **dump_options) -> None:
    """The one JSON result-file writer: UTF-8, keys sorted, indent 2, final newline."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, **dump_options)
        fh.write("\n")


def fidelity_sweep_row(report) -> dict:
    """The fidelity_sweep columns of one experiments.DetectionReport, in order."""
    threshold = report.threshold
    return {"mu0": report.mu0, "tau": report.tau, "fidelity": report.fidelity,
            "fidelity_balanced": report.fidelity_balanced,
            "model_fidelity": threshold.fidelity,
            "p_detect_given_gated": threshold.p_detect_given_gated,
            "p_reject_given_ungated": threshold.p_reject_given_ungated,
            "decomposition_p": report.decomposition.p_value,
            "reference_poissonness_p": report.reference_poissonness_p,
            "mean_stored": report.mean_stored}


def histogram_table(hist):
    """Header and rows of a detection.CountHistogram: its nonzero bins."""
    return ["events", "runs"], hist.bins()


# decomposition rows converted from numpy to Python at a time
ROW_CHUNK = 2**16


def decomposition_table(deco):
    """Header and rows of a detection.DecompositionResult, one row per bin:
    about a million at mu0 = 1e6, so its columns are converted to Python
    values ROW_CHUNK rows at a time, never all at once."""
    header = ["events", "observed", "model_total", "model_gated", "model_ungated"]
    columns = [getattr(deco, name) for name in header]
    return header, chain.from_iterable(
        zip(*(_cells(c[start:start + ROW_CHUNK]) for c in columns))
        for start in range(0, len(deco.events), ROW_CHUNK))


def _cells(column):
    """A numpy column's Python values, each zero (bit pattern 0, so not -0.0)
    as the text csv.writer makes of it: most decomposition cells are zeros
    (86% of the rows at mu0 = 1e6), and a text cell needs no conversion."""
    cells = column.astype(object)
    cells[column.view("i8") == 0] = "0.0" if column.dtype.kind == "f" else "0"
    return cells.tolist()


def _sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class OutputWriter:
    """Deterministic result-file writer that records content hashes, of the
    files a run reads and of those it writes; every result file goes through
    ``write_csv`` or ``_write_json``."""

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        self.inputs: dict[str, str] = {}
        self.written: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.manifest.output_dir, name)

    def register(self, name: str) -> None:
        self.written[name] = _sha256(self.path(name))

    def load_dataset(self, path: str):
        """The --input CSV at ``path`` as a fitting.DataSet, its hash recorded."""
        ds = _load_dataset(path)
        self.inputs[path] = _sha256(path)
        return ds

    def table(self, stem: str, header: list[str], rows) -> str:
        if self.manifest.format == "json":
            return self._json(f"{stem}.json", [dict(zip(header, row)) for row in rows])
        return self.csv_table(stem, header, [list(map(_csv_cell, row)) for row in rows])

    def record(self, stem: str, record: dict) -> str:
        if self.manifest.format == "json":
            return self._json(f"{stem}.json", record)
        return self.table(stem, ["key", "value"], [[key, record[key]] for key in sorted(record)])

    def histogram(self, stem: str, hist) -> str:
        """A detection.CountHistogram: an ``events,runs`` table in CSV, the
        ``{"n": runs}`` map of its nonzero bins in JSON."""
        if self.manifest.format == "json":
            return self._json(f"{stem}.json", {str(n): runs for n, runs in hist.bins()})
        return self.csv_table(stem, *histogram_table(hist))

    def csv_table(self, stem: str, header: list[str], rows) -> str:
        """A CSV table in either format."""
        name = f"{stem}.csv"
        write_csv(self.path(name), header, rows)
        self.register(name)
        return name

    def _json(self, name: str, payload) -> str:
        _write_json(self.path(name), payload)
        self.register(name)
        return name

    def sidecar(self) -> str:
        from datetime import datetime, timezone

        name = f"{self.manifest.command}.provenance.json"
        payload = {
            "command": self.manifest.command,
            "tool_version": __version__,
            "seed": self.manifest.seed,
            "runs": self.manifest.runs,
            "format": self.manifest.format,
            "config_path": self.manifest.config_path,
            "options": self.manifest.options,
            "resolved_config": self.manifest.resolved,
            "inputs": self.inputs,
            "outputs": self.written,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        _write_json(self.path(name), payload)
        return name


def read_table(path) -> tuple[list[str], list[list[float]]]:
    """Read a CSV table written by this tool: header row + float cells."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError([f"{path}: empty CSV"])
        try:
            [float(cell) for cell in header]
        except ValueError:
            pass
        else:
            raise ConfigError([f"{path}: missing header row"])
        rows = []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) == 1:  # every table this tool writes has 2 or more columns
                raise ConfigError([f"{path}: line {reader.line_num}: need at least 2 cells"])
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ConfigError([f"{path}: line {reader.line_num}: {exc}"]) from exc
    return header, rows


def read_record(path) -> dict[str, str]:
    """Read a key/value CSV record written by this tool; values stay strings."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["key", "value"]:
            raise ConfigError([f"{path}: expected header 'key,value'"])
        record = {}
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) == 1:
                raise ConfigError([f"{path}: line {reader.line_num}: need at least 2 cells"])
            record[row[0]] = row[1]
        return record


def _load_dataset(path: str):
    """fitting.DataSet loader tolerant of domain-named columns (first three are
    x,y,sigma).

    Two-column files are accepted with the default uncertainty sigma = 1.
    """
    from .fitting import DataSet

    try:
        header, rows = read_table(path)
        if len(header) < 2:
            raise ConfigError([f"{path}: need at least 2 columns, got {header}"])
        points = [row[:3] if len(row) >= 3 else [row[0], row[1], 1.0] for row in rows]
        return DataSet.from_points(points)
    except ConfigError:
        raise
    except (OSError, ValueError, TransistorError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def _params(resolved: dict):
    return (models.TransistorParams(**resolved["transistor"]),
            models.SaturationParams(**resolved["saturation"]))


def _sim_config(resolved: dict, command: str):
    """The SimConfig the command simulates with (transfer-scan varies its rate)."""
    from .montecarlo import SimConfig

    params, sat = _params(resolved)
    sim = resolved["simulation"]
    return SimConfig(**{k: sim[k] for k in _SIM_KEYS}, params=params,
                     sat=sat if _self_blockade(command, resolved) else None,
                     seed=sim["seed"])


def _cmd_contrast_scan(manifest: RunManifest, out: OutputWriter) -> None:
    from .experiments import incoming_scan_config
    from .montecarlo import contrast_scan, scan_configs

    base = _sim_config(manifest.resolved, manifest.command)
    if manifest.options["mode"] == "incoming":
        base = incoming_scan_config(base)
    ds = contrast_scan(scan_configs(base, manifest.resolved["scan"]["gate_values"]),
                       manifest.runs)
    out.table(
        "contrast_scan",
        ["n_gate_in", "contrast", "sigma"],
        [[x, y, s] for x, y, s in ds.points],
    )


def _cmd_gain_scan(manifest: RunManifest, out: OutputWriter) -> None:
    params, sat = _params(manifest.resolved)
    rows = models.gain_scan_rows(
        params, sat, manifest.resolved["simulation"]["n_gate_in"],
        manifest.resolved["scan"]["source_values"],
    )
    header = list(rows[0].keys())
    out.table("gain_scan", header, [[r[k] for k in header] for r in rows])


def _cmd_transfer_scan(manifest: RunManifest, out: OutputWriter) -> None:
    from .experiments import transfer_scan

    base = _sim_config(manifest.resolved, manifest.command)
    points = transfer_scan(
        base, manifest.resolved["scan"]["source_values"], manifest.runs
    )
    out.table(
        "transfer_scan",
        ["n_source_in", "no_gate_out", "no_gate_sigma",
         "with_gate_out", "with_gate_sigma"],
        [[p.n_source_in, p.no_gate_out, p.no_gate_sigma,
          p.with_gate_out, p.with_gate_sigma] for p in points],
    )


def _cmd_simulate(manifest: RunManifest, out: OutputWriter) -> None:
    from .montecarlo import simulate_ensemble

    config = _sim_config(manifest.resolved, manifest.command)
    result = simulate_ensemble(config, manifest.runs)
    out.histogram("histogram", result.histogram)
    out.record(
        "simulate_summary",
        {
            "n_runs": result.n_runs,
            "mean_source_detected": result.mean_source_detected,
            "mean_stored": result.mean_stored,
            "mean_gate_detected": result.mean_gate_detected,
            "seed": config.seed,
        },
    )


def _fit_record(result) -> dict:
    record = {
        "sse": result.sse,
        "n_boot": result.n_boot,
        "converged": result.converged,
        "flags": ",".join(result.flags),
    }
    for name, value in result.params.items():
        lo, hi = result.ci_68[name]
        record[name] = value
        record[f"{name}_ci16"] = lo
        record[f"{name}_ci84"] = hi
    return record


def _cmd_fit_od(manifest: RunManifest, out: OutputWriter) -> None:
    from .fitting import fit_od

    ds = out.load_dataset(manifest.options["input"])
    cap = manifest.options.get("cap", manifest.resolved["transistor"]["cap"])
    result = fit_od(ds, cap=cap, mode=manifest.options["mode"], seed=manifest.seed)
    record = _fit_record(result)
    record["mode"] = manifest.options["mode"]
    record["cap"] = cap
    out.record("fit_od", record)


def _cmd_fit_saturation(manifest: RunManifest, out: OutputWriter) -> None:
    from .fitting import fit_saturation

    ds = out.load_dataset(manifest.options["input"])
    result = fit_saturation(ds, seed=manifest.seed)
    out.record("fit_saturation", _fit_record(result))


def _cmd_detect(manifest: RunManifest, out: OutputWriter) -> None:
    from .experiments import fidelity_sweep

    det = manifest.resolved["detection"]
    sim = manifest.resolved["simulation"]
    eta = manifest.resolved["transistor"]["eta_det"]
    mu0_values = [manifest.options["mu0"]] if "mu0" in manifest.options else det["mu0_values"]
    reports = fidelity_sweep(
        mu0_values,
        n_runs=manifest.runs,
        seed=manifest.seed,
        n_stored=det["n_stored"],
        cap=manifest.resolved["transistor"]["cap"],
        od_st_model=det["od_st_model"],
        od_st_instant=det["od_st_instant"],
        t_int=sim["t_int"],
        eta_det=eta,
    )
    rows = [fidelity_sweep_row(r) for r in reports]
    out.table("fidelity_sweep", list(rows[0]), [list(row.values()) for row in rows])
    best = max(reports, key=lambda r: r.fidelity)
    # the best run's row, less the two conditional rates, plus the model's flag
    record = fidelity_sweep_row(best)
    del record["p_detect_given_gated"], record["p_reject_given_ungated"]
    record["non_discriminating"] = best.threshold.non_discriminating
    out.record("detect_report", record)
    out.histogram("gated_histogram", best.gated_hist)
    out.histogram("reference_histogram", best.reference_hist)
    out.csv_table("decomposition", *decomposition_table(best.decomposition))


_DISPATCH = {
    "contrast-scan": (_cmd_contrast_scan,
                      lambda m: [f"contrast_scan.{m.format}"]),
    "gain-scan": (_cmd_gain_scan, lambda m: [f"gain_scan.{m.format}"]),
    "transfer-scan": (_cmd_transfer_scan, lambda m: [f"transfer_scan.{m.format}"]),
    "simulate": (_cmd_simulate,
                 lambda m: [f"histogram.{m.format}", f"simulate_summary.{m.format}"]),
    "fit-od": (_cmd_fit_od, lambda m: [f"fit_od.{m.format}"]),
    "fit-saturation": (_cmd_fit_saturation, lambda m: [f"fit_saturation.{m.format}"]),
    "detect": (_cmd_detect,
               lambda m: [f"fidelity_sweep.{m.format}", f"detect_report.{m.format}",
                          f"gated_histogram.{m.format}", f"reference_histogram.{m.format}",
                          "decomposition.csv"]),
}


def execute(manifest: RunManifest) -> int:
    """Run the selected pipeline, writing results plus a provenance sidecar;
    every failure of the run ends in its exit code, here alone."""
    runner, planned = _DISPATCH[manifest.command]
    try:
        os.makedirs(manifest.output_dir, exist_ok=True)
        if not manifest.force:
            existing = [
                name for name in planned(manifest)
                if os.path.exists(os.path.join(manifest.output_dir, name))
            ]
            if existing:
                print(
                    f"refusing to overwrite {existing} (pass --force)", file=sys.stderr
                )
                return EXIT_IO
        out = OutputWriter(manifest)
        runner(manifest, out)
        out.sidecar()
    except ConfigError as exc:  # an input file the runner reads
        _print_violations(exc)
        return EXIT_CONFIG
    except TransistorError as exc:
        _write_diagnostics(manifest, exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_diagnostics(manifest: RunManifest, exc: TransistorError) -> None:
    try:
        _write_json(os.path.join(manifest.output_dir, f"{manifest.command}.diagnostics.json"),
                    {"error": str(exc), "diagnostics": getattr(exc, "diagnostics", {}),
                     "manifest": manifest._asdict()}, default=str)
    except OSError:
        pass


def _print_violations(exc: ConfigError) -> None:
    print("config validation failed:", file=sys.stderr)
    for violation in exc.violations:
        print(f"  - {violation}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        manifest = parse_and_validate(argv)
    except ConfigError as exc:
        _print_violations(exc)
        return EXIT_CONFIG
    except SystemExit as exc:
        # argparse exits 2 on usage errors; propagate its code
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    return execute(manifest)


if __name__ == "__main__":
    raise SystemExit(main())
