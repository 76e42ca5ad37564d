"""Command-line front end.

Subcommands: contrast-scan, gain-scan, transfer-scan, simulate, fit-od,
fit-saturation, detect, each stated once in ``COMMANDS``: its runner, help,
own flags (defined in ``_FLAGS``) and result files.  Behavior is driven by an
INI config file (merged with flag overrides, flags win) and a master seed;
result files are byte-identical for identical manifests.  A runner computes
and returns its results; ``execute`` then writes them and a provenance
sidecar with the resolved config and content hashes of the input file, if
any, and of the outputs.  A failed write removes the command's files, so no
result file is left without its sidecar.

Exit codes: 0 ok, 2 usage error, 3 config validation failure, 4 numerical
failure (any other package error while a command runs; a diagnostics file is
written, and removed by the next run that exits 0), 5 I/O failure.

A command starts on `errors`, `models`, argparse and configparser alone: the
layers its runner runs, and csv, json, datetime and a SHA-256 for the result
files, are imported when first needed.  `main` loads numpy, if a runner needs
it, with OpenBLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, suppress
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None,
                       help=f"config file path or builtin name {BUILTIN_CONFIGS}")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--runs", type=int, default=None, help="runs per ensemble")
        p.add_argument("--output", default="out", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        for flag in command.flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


# Section -> key -> default; a value is parsed by its default's type (float,
# int, bool or list of floats).  The shipped configs override these.
CONFIG_SCHEMA = {
    "transistor": models.TransistorParams._field_defaults,
    "saturation": models.SaturationParams._field_defaults,
    "simulation": {
        "n_gate_in": 0.75,
        "p_store": models.DEFAULT_P_STORE,
        "source_rate": 0.69,
        "t_int": 30.0,
        "retention_tau": math.inf,
        "self_blockade": False,
        "runs": 250,
        "seed": 20140721,
    },
    "scan": {
        "gate_values": [0.25 * k for k in range(1, 15)],
        "source_values": [25.0 * k for k in range(1, 11)],
    },
    "detection": {
        "n_stored": 0.61,
        "od_st_model": 0.94,
        "od_st_instant": 2.2,
        "mu0_values": [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0],
    },
}


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


_PARSERS = {float: float, int: int, bool: _boolean,
            list: lambda raw: [float(tok) for tok in raw.replace(",", " ").split()]}


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
    # Values are taken as written, without %-interpolation, and [DEFAULT] is
    # an ordinary section, so unknown: no section header can name "".
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                   default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config {display}: {exc}"]) from exc

    violations = []
    resolved = {}
    for section, keys in CONFIG_SCHEMA.items():
        resolved[section] = {}
        for key, default in keys.items():
            kind = type(default)
            if cp.has_option(section, key):
                try:
                    value = _PARSERS[kind](cp.get(section, key))
                except ValueError as exc:
                    violations.append(f"{section}.{key}: {exc}")
                    continue
                resolved[section][key] = value
                if kind in (float, list) and not _finite_or_allowed(section, key, value):
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


def _self_blockade(command: str, resolved: dict) -> bool:
    """Whether the command simulates with self-blockade; transfer-scan always does."""
    return command == "transfer-scan" or resolved["simulation"]["self_blockade"]


def _validate(resolved: dict, seed: int, runs: int, command: str) -> list[str]:
    """Names of the violated invariants.

    Each section is checked, name behind section, by the invariant lists its
    runners' objects raise DomainError on: [detection] by the calibration's
    and mu0's.  Each bound, the scan lists' too, is evaluated as the runner
    builds, so a validated command builds its objects.  Each fails on NaN.
    """
    sim = resolved["simulation"]
    det = resolved["detection"]
    scan = resolved["scan"]
    eta, t_int = resolved["transistor"]["eta_det"], sim["t_int"]
    lam = f"{models.POISSON_LAM_MAX:g}"
    objects = {
        "transistor": models.TransistorParams.violations(**resolved["transistor"]),
        "saturation": models.SaturationParams.violations(**resolved["saturation"]),
        "simulation": models.simulation_violations(**{k: sim[k] for k in _SIM_KEYS}),
        "detection": [*models.retention_violations(det["od_st_instant"], det["od_st_model"]),
                      *models.mu0_violations("mu0_values all", det["mu0_values"], eta, t_int)],
    }
    # Detected means are bounded as the engine draws them: thinned under
    # self-blockade.  A thinned one needs a valid [saturation]; without it,
    # which is named already, it goes unchecked.
    sat = None if objects["saturation"] else models.SaturationParams(**resolved["saturation"])
    thinned = _self_blockade(command, resolved)
    if not (thinned and sat is None):
        objects["simulation"] += models.detected_mean_violations(
            sim["source_rate"], t_int, eta, sat if thinned else None)
    # the rates transfer-scan runs each value at, if t_int is valid (or named)
    rates = [v / t_int for v in scan["source_values"]] if t_int > 0 else []
    checks = [
        (f"detection.n_stored in [0, {lam}]", models.poisson_mean_ok(det["n_stored"])),
        ("detection.mu0_values is not empty", bool(det["mu0_values"])),
        ("scan.gate_values is not empty", bool(scan["gate_values"])),
        (f"scan.gate_values all in (0, {lam}]",
         all(v > 0 and models.poisson_mean_ok(v) for v in scan["gate_values"])),
        ("scan.source_values is not empty", bool(scan["source_values"])),
        (f"scan.source_values all in (0, {lam}]",
         all(v > 0 for v in scan["source_values"])
         and all(models.source_mean_ok(r, t_int) for r in rates)),
        (f"scan.source_values all * transistor.eta_det * saturation_thinning"
         f" <= {models.MU0_MAX:g}",
         sat is None or not any(models.detected_mean_violations(r, t_int, eta, sat)
                                for r in rates)),
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

    options = {flag: getattr(args, flag) for flag in COMMANDS[args.command].flags
               if getattr(args, flag) is not None}

    violations = _validate(resolved, seed, runs, args.command)
    if "cap" in options:
        violations += models.cap_violations("fit-od --cap", options["cap"])
    if "mu0" in options:
        mu0 = options["mu0"]
        if not math.isfinite(mu0):
            violations.append(f"detect --mu0: must be finite, got {mu0!r}")
        else:
            violations += models.mu0_violations("detect --mu0", [mu0],
                                                resolved["transistor"]["eta_det"],
                                                resolved["simulation"]["t_int"])
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
    with open(path, "rb") as fh:
        return _sha256_constructor()(fh.read()).hexdigest()


def _sha256_constructor():
    """hashlib's SHA-256 where OpenSSL is loaded already (numpy.random loads
    it), else CPython's built-in one: importing hashlib loads libcrypto, 3.4 MB
    of a numpy-free command's peak RSS.  The built-in one is 5-9x slower, too
    slow for the 26 MB decomposition of ``detect --mu0 1e6``."""
    if "_hashlib" not in sys.modules:
        for name in ("_sha2", "_sha256"):  # Python 3.12+, 3.11 and earlier
            try:
                return __import__(name).sha256
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256


class OutputWriter:
    """Deterministic result-file writer that records the content hash of each
    file it writes; every result file goes through ``write_csv`` or
    ``_write_json``."""

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        self.written: dict[str, str] = {}
        self.sidecar_name = f"{manifest.command}.provenance.json"
        self.diagnostics_name = f"{manifest.command}.diagnostics.json"

    def path(self, name: str) -> str:
        return os.path.join(self.manifest.output_dir, name)

    def register(self, name: str) -> None:
        self.written[name] = _sha256(self.path(name))

    def table(self, stem: str, header: list[str], rows) -> str:
        if self.manifest.format == "json":
            return self._json(f"{stem}.json", [dict(zip(header, row)) for row in rows])
        return self.csv_table(stem, header, [list(map(_csv_cell, row)) for row in rows])

    def record(self, stem: str, record: dict) -> str:
        if self.manifest.format == "json":
            return self._json(f"{stem}.json", record)
        return self.table(stem, ["key", "value"], [[key, record[key]] for key in sorted(record)])

    def histogram(self, stem: str, hist) -> str:
        """A montecarlo.CountHistogram: an ``events,runs`` table in CSV, the
        ``{"n": runs}`` map of its nonzero bins in JSON."""
        if self.manifest.format == "json":
            return self._json(f"{stem}.json", {str(n): runs for n, runs in hist.bins()})
        return self.csv_table(stem, ["events", "runs"], hist.bins())

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
        """The provenance record, with the hashes of the result files and of
        the ``--input`` file, if the command has one, hashed as it is now."""
        from datetime import datetime, timezone

        name = self.sidecar_name
        read = [self.manifest.options["input"]] if "input" in self.manifest.options else []
        payload = {
            "command": self.manifest.command,
            "tool_version": __version__,
            "seed": self.manifest.seed,
            "runs": self.manifest.runs,
            "format": self.manifest.format,
            "config_path": self.manifest.config_path,
            "options": self.manifest.options,
            "resolved_config": self.manifest.resolved,
            "inputs": {path: _sha256(path) for path in read},
            "outputs": self.written,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        _write_json(self.path(name), payload)
        return name


@contextmanager
def _csv_reader(path):
    """(header, reader): the first row of the CSV file ``path``, None if it
    is empty, and a csv.reader over the rows after it.  A csv.Error, such as
    a cell over ``csv.field_size_limit()``, becomes a ConfigError naming its
    line."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield next(reader, None), reader
        except csv.Error as exc:
            raise ConfigError([f"{path}: line {reader.line_num}: {exc}"]) from exc


def read_table(path) -> tuple[list[str], list[list[float]]]:
    """Read a CSV table written by this tool: header row + float cells, every
    row as wide as the header."""
    with _csv_reader(path) as (header, reader):
        if header is None:
            raise ConfigError([f"{path}: empty CSV"])
        try:
            [float(cell) for cell in header]
        except ValueError:
            pass
        else:
            raise ConfigError([f"{path}: missing header row"])
        rows = []
        for row in _rows(path, reader, header):
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ConfigError([f"{path}: line {reader.line_num}: {exc}"]) from exc
    return header, rows


def read_record(path) -> dict[str, str]:
    """Read a key/value CSV record written by this tool; values stay strings."""
    with _csv_reader(path) as (header, reader):
        if header is None or [h.strip() for h in header] != ["key", "value"]:
            raise ConfigError([f"{path}: expected header 'key,value'"])
        return dict(_rows(path, reader, header))


def _rows(path, reader, header):
    """The nonblank rows after ``header``, each as wide as it."""
    for row in filter(None, reader):  # blank lines are skipped
        if len(row) == 1:  # every file this tool writes has 2 or more columns
            raise ConfigError([f"{path}: line {reader.line_num}: need at least 2 cells"])
        if len(row) != len(header):
            raise ConfigError([f"{path}: line {reader.line_num}: {len(row)} cells, "
                               f"the header has {len(header)}"])
        yield row


def _load_dataset(path: str):
    """models.DataSet loader tolerant of domain-named columns (first three are
    x,y,sigma).

    Two-column files are accepted with the default uncertainty sigma = 1.
    """
    try:
        header, rows = read_table(path)
        if len(header) < 2:
            raise ConfigError([f"{path}: need at least 2 columns, got {header}"])
        if len(rows) < 2:  # the least any fit takes; each fitter checks its own
            raise ConfigError([f"{path}: need at least 2 points, got {len(rows)}"])
        sigma = [1.0] if len(header) == 2 else []  # every row is as wide as the header
        return models.DataSet.from_points([row[:3] + sigma for row in rows])
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


def _cmd_contrast_scan(manifest: RunManifest) -> list:
    from .montecarlo import contrast_scan, incoming_scan_config

    base = _sim_config(manifest.resolved, manifest.command)
    if manifest.options["mode"] == "incoming":
        base = incoming_scan_config(base)
    ds = contrast_scan(base, manifest.resolved["scan"]["gate_values"], manifest.runs)
    return [(["n_gate_in", "contrast", "sigma"], [[x, y, s] for x, y, s in ds.points])]


def _cmd_gain_scan(manifest: RunManifest) -> list:
    params, sat = _params(manifest.resolved)
    rows = models.gain_scan_rows(params, sat, manifest.resolved["simulation"]["n_gate_in"],
                                 manifest.resolved["scan"]["source_values"])
    return [(list(rows[0]), [list(row.values()) for row in rows])]


def _cmd_transfer_scan(manifest: RunManifest) -> list:
    from .montecarlo import TransferPoint, transfer_scan

    points = transfer_scan(_sim_config(manifest.resolved, manifest.command),
                           manifest.resolved["scan"]["source_values"], manifest.runs)
    return [(list(TransferPoint._fields), [list(point) for point in points])]


def _cmd_simulate(manifest: RunManifest) -> list:
    from .montecarlo import simulate_ensemble

    config = _sim_config(manifest.resolved, manifest.command)
    result = simulate_ensemble(config, manifest.runs)
    return [(result.histogram,),
            ({"n_runs": result.n_runs,
              "mean_source_detected": result.mean_source_detected,
              "mean_stored": result.mean_stored,
              "mean_gate_detected": result.mean_gate_detected,
              "seed": config.seed},)]


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


def _cmd_fit_od(manifest: RunManifest) -> list:
    from .fitting import fit_od

    ds = _load_dataset(manifest.options["input"])
    cap = manifest.options.get("cap", manifest.resolved["transistor"]["cap"])
    result = fit_od(ds, cap=cap, mode=manifest.options["mode"], seed=manifest.seed)
    record = _fit_record(result)
    record["mode"] = manifest.options["mode"]
    record["cap"] = cap
    return [(record,)]


def _cmd_fit_saturation(manifest: RunManifest) -> list:
    from .fitting import fit_saturation

    ds = _load_dataset(manifest.options["input"])
    return [(_fit_record(fit_saturation(ds, seed=manifest.seed)),)]


def _cmd_detect(manifest: RunManifest) -> list:
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
    best = max(reports, key=lambda r: r.fidelity)
    # the best run's row, less the two conditional rates, plus the model's flag
    record = fidelity_sweep_row(best)
    del record["p_detect_given_gated"], record["p_reject_given_ungated"]
    record["non_discriminating"] = best.threshold.non_discriminating
    return [(list(rows[0]), [list(row.values()) for row in rows]), (record,),
            (best.gated_hist,), (best.reference_hist,),
            decomposition_table(best.decomposition)]


# A command: its runner, which computes from the manifest alone and returns
# the arguments of each result file; its `-h` help; its own flags (keys of
# _FLAGS); and its result files, in order, as (OutputWriter method, stem) pairs.
Command = namedtuple("Command", "runner help flags outputs")

# Each command's own flag, defined once: add_argument's keywords.
_FLAGS = {
    "input": {"required": True, "help": "CSV with columns x,y,sigma"},
    "mode": {"choices": ["incoming", "stored"], "default": "incoming"},
    "cap": {"type": int, "default": None, "help": "blockade cap override"},
    "mu0": {"type": float, "default": None,
            "help": "single no-gate mean instead of the configured sweep"},
}

COMMANDS = {
    "contrast-scan": Command(_cmd_contrast_scan, "simulated contrast vs gate photons",
                             ("mode",), [("table", "contrast_scan")]),
    "gain-scan": Command(_cmd_gain_scan, "closed-form gain vs source input",
                         (), [("table", "gain_scan")]),
    "transfer-scan": Command(_cmd_transfer_scan, "simulated transfer curve with/without gate",
                             (), [("table", "transfer_scan")]),
    "simulate": Command(_cmd_simulate, "one ensemble, histogram + summary",
                        (), [("histogram", "histogram"), ("record", "simulate_summary")]),
    "fit-od": Command(_cmd_fit_od, "fit the contrast model to a CSV dataset",
                      ("input", "mode", "cap"), [("record", "fit_od")]),
    "fit-saturation": Command(_cmd_fit_saturation, "fit the transfer curve to a CSV dataset",
                              ("input",), [("record", "fit_saturation")]),
    "detect": Command(_cmd_detect, "single-shot detection fidelity pipeline",
                      ("mu0",), [("table", "fidelity_sweep"), ("record", "detect_report"),
                                 ("histogram", "gated_histogram"),
                                 ("histogram", "reference_histogram"),
                                 ("csv_table", "decomposition")]),
}


def planned_outputs(manifest: RunManifest) -> list[str]:
    """The names of the command's result files, in order: each in the
    manifest's format, a ``csv_table`` in CSV."""
    return [f"{stem}.{'csv' if method == 'csv_table' else manifest.format}"
            for method, stem in COMMANDS[manifest.command].outputs]


def execute(manifest: RunManifest) -> int:
    """Run the selected pipeline, then write its results and a provenance
    sidecar; every failure of the run ends in its exit code, here alone.

    Nothing is written before the runner returns, so a failed run leaves the
    files of a previous one as they were; a failed write removes every file
    the command writes, so no result is left without its sidecar.
    """
    command = COMMANDS[manifest.command]
    out = OutputWriter(manifest)
    results = None  # set once the runner returns: the write stage
    try:
        os.makedirs(manifest.output_dir, exist_ok=True)
        if not manifest.force:
            existing = [name for name in planned_outputs(manifest)
                        if os.path.exists(out.path(name))]
            if existing:
                print(f"refusing to overwrite {existing} (pass --force)", file=sys.stderr)
                return EXIT_IO
        results = command.runner(manifest)
        for (method, stem), args in zip(command.outputs, results, strict=True):
            getattr(out, method)(stem, *args)
        out.sidecar()
        with suppress(OSError):  # the diagnostics of a failed earlier run
            os.remove(out.path(out.diagnostics_name))
    except ConfigError as exc:  # an input file the runner reads
        _print_violations(exc)
        return EXIT_CONFIG
    except TransistorError as exc:
        _write_diagnostics(out, exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        if results is not None:  # a write failed: remove the command's files
            for path in map(out.path, [*planned_outputs(manifest), out.sidecar_name]):
                with suppress(OSError):  # a directory or a missing file stays
                    os.remove(path)
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_diagnostics(out: OutputWriter, exc: TransistorError) -> None:
    try:
        _write_json(out.path(out.diagnostics_name),
                    {"error": str(exc), "diagnostics": getattr(exc, "diagnostics", {}),
                     "manifest": out.manifest._asdict()}, default=str)
    except OSError:
        pass


def _print_violations(exc: ConfigError) -> None:
    print("config validation failed:", file=sys.stderr)
    for violation in exc.violations:
        print(f"  - {violation}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and return its exit code.  ``argv`` None means the
    process's own command line, ``sys.argv[1:]``: main runs as the process (the
    console script, ``python -m rydberg_transistor``), which ends when it returns."""
    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, as numpy loads it.  Starting its thread
        # pool takes about 65 ms on a 2-core machine, and no command makes a
        # BLAS call large enough to use it (the one call is a gemv of at most
        # 8,192 cells).  A process that has loaded numpy keeps its environment.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        import atexit
        import gc

        # Freeze every object at exit, so the interpreter's finalizing
        # collections have nothing to trace (16-22 ms of detect's exit, 7-10 ms
        # of fit-saturation's, on 2 cores); deallocation and flushing still run.
        atexit.register(gc.freeze)
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
