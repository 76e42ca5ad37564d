"""CLI contract tests: parsing, exit codes, determinism, provenance."""

import ast
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydberg_transistor import cli, experiments, fitting, models, montecarlo
from rydberg_transistor.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_and_validate,
    read_record,
    read_table,
    write_csv,
)
from rydberg_transistor.errors import ConfigError, DomainError, FitConvergenceError
from rydberg_transistor.fitting import DataSet

SMALL_CFG = """
[simulation]
runs = 120
seed = 11
source_rate = 0.69
t_int = 30
retention_tau = inf

[scan]
gate_values = 0.5 1.0 2.0
source_values = 40 120 240
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return str(path)


def write_dataset(path, ds):
    write_csv(path, ["x", "y", "sigma"], ds.points)


def histogram_bins(path):
    """(events, runs) pairs of a histogram file, CSV or JSON."""
    if str(path).endswith(".json"):
        return [(int(k), v) for k, v in json.loads(Path(path).read_text(encoding="utf-8")).items()]
    header, rows = read_table(path)
    assert header == ["events", "runs"]
    return [(int(k), int(v)) for k, v in rows]


def histogram_total(path):
    return sum(runs for _, runs in histogram_bins(path))


def histogram_mean(path):
    return sum(k * runs for k, runs in histogram_bins(path)) / histogram_total(path)


def read_bytes_map(directory, skip_provenance=True):
    out = {}
    for name in sorted(os.listdir(directory)):
        if skip_provenance and name.endswith("provenance.json"):
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_same_argv_gives_identical_manifest(small_cfg, tmp_path):
    argv = ["simulate", "--seed", "42", "--runs", "250", "--config", small_cfg,
            "--output", str(tmp_path / "o")]
    m1 = parse_and_validate(argv)
    m2 = parse_and_validate(argv)
    assert m1 == m2
    assert m1.seed == 42
    assert m1.runs == 250
    assert m1.command == "simulate"


def test_parse_flags_override_config(small_cfg):
    m = parse_and_validate(["simulate", "--config", small_cfg])
    assert m.seed == 11 and m.runs == 120  # from file
    m = parse_and_validate(["simulate", "--config", small_cfg, "--seed", "3", "--runs", "7"])
    assert m.seed == 3 and m.runs == 7  # flags win


def test_parse_runs_zero_names_invariant(small_cfg):
    with pytest.raises(ConfigError) as err:
        parse_and_validate(["simulate", "--config", small_cfg, "--runs", "0"])
    assert any("runs >= 1" in v for v in err.value.violations)
    assert main(["simulate", "--config", small_cfg, "--runs", "0"]) == EXIT_CONFIG


def test_parse_lists_every_violation(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[transistor]\nod_sp = -1\neta_det = 0\n[simulation]\nt_int = 0\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        parse_and_validate(["simulate", "--config", str(cfg)])
    joined = " ".join(err.value.violations)
    assert "od_sp" in joined and "eta_det" in joined and "t_int" in joined


@pytest.mark.parametrize("section, line", [
    ("simulation", "t_int = inf"),
    ("transistor", "od_st = inf"),
    ("simulation", "n_gate_in = nan"),
    ("saturation", "b = inf"),
    ("scan", "gate_values = 0.5 inf"),
    ("simulation", "retention_tau = nan"),
    ("simulation", "retention_tau = -inf"),
])
def test_non_finite_config_value_is_config_error(section, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    key = line.split(" = ")[0]
    assert f"{section}.{key}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("section, line, violation", [
    ("simulation", "n_gate_in = 1e300", "simulation.n_gate_in in [0, 9.22337e+18]"),
    ("simulation", "source_rate = 1e300", "simulation.source_rate * t_int <= 9.22337e+18"),
    ("detection", "n_stored = 1e19", "detection.n_stored in [0, 9.22337e+18]"),
    ("detection", "mu0_values = 10 2e6", "detection.mu0_values all in (0, 1e+06]"),
    ("transistor", "eta_det = 1e-18",
     "detection.mu0_values all / transistor.eta_det <= 9.22337e+18"),
    ("scan", "gate_values = 0.5 1e19", "scan.gate_values all in (0, 9.22337e+18]"),
    ("scan", "source_values = 40 1e300", "scan.source_values all in (0, 9.22337e+18]"),
])
def test_poisson_mean_out_of_range_is_config_error(section, line, violation, tmp_path,
                                                   capsys):
    # finite, but over numpy's Poisson limit or the detection analysis' MU0_MAX
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"  - {violation}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, violation", [
    ("gain-scan", "[scan]\nsource_values =", "scan.source_values is not empty"),
    ("transfer-scan", "[scan]\nsource_values =", "scan.source_values is not empty"),
    ("contrast-scan", "[scan]\ngate_values =", "scan.gate_values is not empty"),
    ("detect", "[detection]\nmu0_values =", "detection.mu0_values is not empty"),
    ("simulate", "[transistor]\ncap = 1000000000000", f"transistor.cap <= {models.CAP_MAX}"),
    ("simulate", "[transistor]\ncap = 101", "transistor.cap <= 100"),
])
def test_empty_list_or_huge_cap_is_config_error(command, line, violation, tmp_path, capsys):
    # an empty list left nothing to write (gain-scan, detect: a traceback), and
    # a cap of 1e12 asked for a 7 TiB lifetime matrix
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config validation failed:\n  - {violation}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, line, violation", [
    ("transfer-scan", "[simulation]\nsource_rate = -1", "simulation.source_rate >= 0"),
    ("simulate", "[simulation]\nsource_rate = -1\nself_blockade = true",
     "simulation.source_rate >= 0"),
    ("transfer-scan", "[scan]\nsource_values = -1 2",
     f"scan.source_values all in (0, {models.POISSON_LAM_MAX:g}]"),
])
def test_negative_source_is_named_once_under_self_blockade(command, line, violation, tmp_path,
                                                           capsys):
    # saturation_thinning rejects a negative source, but the detected-mean
    # check sees the value unchecked: it leaves it unthinned and lets its own
    # invariant name it
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config validation failed:\n  - {violation}\n"
    sat = models.SaturationParams()
    assert models.detected_mean_violations(-1.0, 90.0, 0.5, sat) == []
    assert models.detected_mean_violations(math.nan, 90.0, 0.5, sat) != []


def test_config_names_are_object_invariant_names_behind_their_section(tmp_path, capsys):
    # every [transistor], [saturation] and [simulation] value out of its domain
    bad = {
        "transistor": {"od_sp": -1.0, "od_st": -1.0, "cap": 0, "a_ge": 1.0, "eta_det": 0.0},
        "saturation": {"a": -1.0, "b": 0.0},
        "simulation": {"n_gate_in": 1e300, "p_store": 2.0, "source_rate": 1e300,
                       "t_int": 0.5, "retention_tau": -1.0},
    }
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for section, keys in bad.items()), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_and_validate(["simulate", "--config", str(cfg)])
    assert main(["simulate", "--config", str(cfg),
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    printed = capsys.readouterr().err
    objects = {  # section: (object, its invariant list, how many it must name)
        "transistor": (models.TransistorParams, models.TransistorParams.violations, 5),
        "saturation": (models.SaturationParams, models.SaturationParams.violations, 2),
        # source_rate and t_int each lie in their domain; their product does not
        "simulation": (montecarlo.SimConfig, models.simulation_violations, 4),
    }
    for section, (cls, violations, count) in objects.items():
        names = violations(**bad[section])
        assert len(names) == count
        with pytest.raises(DomainError) as obj_err:
            cls(**bad[section])
        for name in names:
            assert section + "." + name in err.value.violations
            assert f"  - {section}.{name}\n" in printed
            assert name in str(obj_err.value)


@pytest.mark.parametrize("command, text, violation", [
    ("simulate", "[simulation]\nsource_rate = 1e12\n",
     "simulation.source_rate * t_int * eta_det <= 1e+06"),
    # self-blockade thins the source to about a photons, here 1e7
    ("transfer-scan", "[scan]\nsource_values = 40 1e12\n[saturation]\na = 1e7\n",
     "scan.source_values all * transistor.eta_det * saturation_thinning <= 1e+06"),
    ("simulate", "[simulation]\nsource_rate = 1e12\nself_blockade = true\n"
                 "[saturation]\na = 1e7\n",
     "simulation.source_rate * t_int * eta_det * saturation_thinning <= 1e+06"),
])
def test_detected_mean_over_mu0_max_is_config_error(command, text, violation, tmp_path,
                                                     capsys):
    # the engine's dense count table would need from 8 MB to hundreds of TiB
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"  - {violation}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("transfer-scan", "[scan]\nsource_values = 40 1e7\n"),
    ("simulate", "[simulation]\nsource_rate = 1e12\nself_blockade = true\n"),
    # transfer-scan always thins, whatever [simulation] self_blockade says
    ("transfer-scan", "[simulation]\nsource_rate = 1e12\n"),
])
def test_self_blockade_thins_the_detected_mean_bound(command, text, tmp_path):
    # unthinned, these detected means would be 3.1e6, 9.3e12 and 9.3e12
    # counts; the engine draws them thinned to at most a * eta_det = 14.26
    cfg = tmp_path / "thinned.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--runs", "200",
                 "--output", str(tmp_path / "o")]) == EXIT_OK
    # the sidecar records the config as given
    sidecar = json.loads((tmp_path / "o" / f"{command}.provenance.json").read_text("utf-8"))
    assert sidecar["resolved_config"]["simulation"]["self_blockade"] == ("true" in text)


def transfer_scan_builds(resolved) -> bool:
    """Whether transfer-scan's runner builds every SimConfig it would simulate
    with: its base config, with self-blockade, at each scan value."""
    try:
        base = cli._sim_config(resolved, "transfer-scan")
        for value in resolved["scan"]["source_values"]:
            rate = float(value) / base.t_int
            base._replace(n_gate_in=0.0, source_rate=rate)
            base._replace(source_rate=rate)
    except DomainError:
        return False
    return True


def test_scan_source_values_bound_is_the_transfer_scan_config_bound(tmp_path):
    # the CLI accepts a scan iff transfer-scan can build its SimConfigs, so a
    # validated transfer-scan never exits 4 (t_int 30, eta_det 0.31 unless drawn)
    cfg = tmp_path / "edge.cfg"

    def check(text) -> bool:
        cfg.write_text(text, encoding="utf-8")
        try:
            parse_and_validate(["transfer-scan", "--config", str(cfg)])
            accepted = True
        except ConfigError:
            accepted = False
        assert accepted == transfer_scan_builds(cli.load_config(str(cfg))[1]), text
        return accepted

    edge = models.MU0_MAX / 0.31
    unthinned, thinned = set(), set()
    for k in range(-3, 4):
        near = edge + k * math.ulp(edge)
        # within a few doubles of the bound: unthinned (transfer(n) >= n at
        # b = 1e-3), and thinned to a as the source value grows without bound
        unthinned.add(check(f"[scan]\nsource_values = {near!r}\n"
                            "[saturation]\na = 1e7\nb = 1e-3\n"))
        thinned.add(check(f"[scan]\nsource_values = 1e9\n[saturation]\na = {near!r}\n"))
        # at the shipped a = 46 every such value runs
        assert check(f"[scan]\nsource_values = {near!r}\n")
    assert unthinned == thinned == {True, False}
    # and over random scans, most of them at a source value far above the bound
    rng = random.Random(12)

    def log(lo, hi):
        return 10 ** rng.uniform(lo, hi)

    drawn = [check(f"[transistor]\neta_det = {rng.uniform(0.01, 1.0)!r}\n"
                   f"[saturation]\na = {log(0, 8)!r}\nb = {log(-3, 4)!r}\n"
                   f"[simulation]\nt_int = {log(-1, 3)!r}\nsource_rate = {log(-3, 9)!r}\n"
                   f"self_blockade = {rng.choice(['true', 'false'])}\n"
                   f"[scan]\nsource_values = {log(0, 13)!r} {log(0, 13)!r}\n")
             for _ in range(300)]
    assert 30 <= drawn.count(True) <= 270, drawn.count(True)
    # at numpy's Poisson limit and one double below it, over random t_int:
    # value / t_int * t_int can round either way
    limit = models.POISSON_LAM_MAX
    at_limit = {check(f"[simulation]\nt_int = {log(-1, 3)!r}\n[scan]\nsource_values = {v!r}\n")
                for v in (limit, math.nextafter(limit, 0)) for _ in range(20)}
    assert at_limit == {True, False}


@pytest.mark.parametrize("mu0, violation", [
    ("inf", "detect --mu0: must be finite, got inf"),
    ("nan", "detect --mu0: must be finite, got nan"),
    ("-inf", "detect --mu0: must be finite, got -inf"),
    ("1e300", "detect --mu0 in (0, 1e+06]"),
    ("1e12", "detect --mu0 in (0, 1e+06]"),
    ("0", "detect --mu0 in (0, 1e+06]"),
])
def test_detect_mu0_out_of_range_is_config_error(mu0, violation, tmp_path, capsys):
    assert main(["detect", "--config", "paper90us", "--runs", "50", f"--mu0={mu0}",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"  - {violation}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_detect_mu0_over_poisson_limit_after_eta_det(tmp_path, capsys):
    cfg = tmp_path / "eta.cfg"
    cfg.write_text("[transistor]\neta_det = 1e-15\n[detection]\nmu0_values = 1e-6\n",
                   encoding="utf-8")
    assert main(["detect", "--config", str(cfg), "--mu0", "1e5",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "  - detect --mu0 / transistor.eta_det <= 9.22337e+18\n" in capsys.readouterr().err


@pytest.mark.parametrize("od_st_model", ["1e-12", "0.9e-9"])
def test_detect_od_ratio_under_retention_bracket_is_config_error(od_st_model, tmp_path, capsys):
    # od_st_model / od_st_instant under 1e-9 needs a fly-away time below the
    # calibration bracket: a config error, not a numerical failure
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"[detection]\nod_st_instant = 1.0\nod_st_model = {od_st_model}\n",
                   encoding="utf-8")
    assert main(["detect", "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert ("  - detection.od_st_model >= 1e-09 * od_st_instant\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_detect_od_ratio_at_retention_bracket_runs(tmp_path):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("[detection]\nod_st_instant = 1.0\nod_st_model = 1e-9\n", encoding="utf-8")
    assert main(["detect", "--config", str(cfg), "--runs", "50", "--mu0", "15",
                 "--output", str(tmp_path / "o")]) == EXIT_OK


def test_detect_od_ratio_within_5e10_of_one_runs(tmp_path):
    # od_st_model / od_st_instant > 1 - 5e-10: no fly-away decay at this resolution
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("[detection]\nod_st_instant = 0.9400000001\nod_st_model = 0.94\n",
                   encoding="utf-8")
    assert main(["detect", "--config", str(cfg), "--runs", "100", "--mu0", "15",
                 "--output", str(tmp_path / "o")]) == EXIT_OK
    assert histogram_total(tmp_path / "o" / "gated_histogram.csv") == 100


@pytest.mark.parametrize("argv, text, violation", [
    # od_st_model / od_st_instant is one ulp under 1e-9, although od_st_model
    # >= 1e-9 * od_st_instant holds after rounding
    (["detect"], "[detection]\nod_st_instant = 31.091436033410968\n"
                 "od_st_model = 3.109143603341097e-08\n",
     "detection.od_st_model >= 1e-09 * od_st_instant"),
    # mu0 <= POISSON_LAM_MAX * eta_det, but mu0 / (eta_det * t_int) * t_int is not
    (["detect", "--mu0", "296064.51630953955"],
     "[transistor]\neta_det = 3.209937928356163e-14\n[simulation]\nt_int = 87.87795790082309\n",
     "detect --mu0 / transistor.eta_det <= 9.22337e+18"),
    # the value is within POISSON_LAM_MAX, but value / t_int * t_int is not
    (["transfer-scan"], "[simulation]\nt_int = 0.11289428729933203\n"
                        "[scan]\nsource_values = 9.223372006484771e+18\n",
     "scan.source_values all in (0, 9.22337e+18]"),
    # eta_det * t_int underflows to 0: mu0 / 0 is no source rate
    (["detect"], "[transistor]\neta_det = 1e-300\n[simulation]\nt_int = 1e-30\n",
     "detection.mu0_values all / transistor.eta_det <= 9.22337e+18"),
], ids=["od-ratio", "mu0", "source-value", "underflow"])
def test_config_the_runner_cannot_build_is_config_error(argv, text, violation, tmp_path,
                                                        capsys):
    # the first three pass a bound stated in other arithmetic than the
    # runner's, whose object then raised (exit 4); the last would divide by 0
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--runs", "50",
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config validation failed:\n  - {violation}\n"
    assert not (tmp_path / "o").exists()


def detect_builds(resolved, mu0_values) -> bool:
    """Whether detect builds, at each mu0, the objects detection_experiment
    builds before it draws: the mixture, the fly-away calibration and the
    gated SimConfig."""
    from rydberg_transistor.detection import mixture_from_params

    det, sim, tr = resolved["detection"], resolved["simulation"], resolved["transistor"]
    eta, t_int = tr["eta_det"], sim["t_int"]
    params = models.TransistorParams(od_sp=0.0, od_st=det["od_st_instant"], cap=tr["cap"],
                                     a_ge=0.0, eta_det=eta)
    try:
        for mu0 in mu0_values:
            mixture_from_params(det["n_stored"], tr["cap"], det["od_st_model"], mu0)
            tau = montecarlo.calibrate_retention_tau(det["od_st_instant"], det["od_st_model"],
                                                     t_int)
            montecarlo.SimConfig(n_gate_in=det["n_stored"], p_store=1.0, params=params,
                                 source_rate=mu0 / (eta * t_int), t_int=t_int,
                                 retention_tau=tau, seed=sim["seed"])
    except DomainError:
        return False
    return True


def test_detect_accepts_exactly_the_configs_it_builds(tmp_path):
    # od ratios within a few doubles of the calibration bracket's 1e-9, and
    # mu0 within a few of POISSON_LAM_MAX * eta_det, over random t_int; mu0
    # by --mu0 or by [detection] mu0_values
    rng = random.Random(26)
    cfg = tmp_path / "edge.cfg"

    def near(edge):
        return edge + rng.randint(-3, 3) * math.ulp(edge)

    def check(text, mu0=None) -> bool:
        cfg.write_text(text, encoding="utf-8")
        flags = [] if mu0 is None else ["--mu0", repr(mu0)]
        try:
            parse_and_validate(["detect", "--config", str(cfg), *flags])
            accepted = True
        except ConfigError:
            accepted = False
        resolved = cli.load_config(str(cfg))[1]
        built = detect_builds(resolved,
                              resolved["detection"]["mu0_values"] if mu0 is None else [mu0])
        assert accepted == built, (text, mu0)
        return accepted

    ratio, mu0 = set(), set()
    for i in range(200):
        t_int = f"[simulation]\nt_int = {10 ** rng.uniform(-2, 4)!r}\n"
        od_instant = 10 ** rng.uniform(-3, 2)
        od_model = near(models.RETENTION_TAU_BRACKET[0] * od_instant)
        ratio.add(check(f"{t_int}[detection]\nod_st_instant = {od_instant!r}\n"
                        f"od_st_model = {od_model!r}\n", 15.0))
        # eta_det under MU0_MAX / POISSON_LAM_MAX, so mu0 is within MU0_MAX
        eta = 10 ** rng.uniform(-17, -13.5)
        value = near(models.POISSON_LAM_MAX * eta)
        text = f"{t_int}[transistor]\neta_det = {eta!r}\n"
        mu0.add(check(text, value) if i % 2 else
                check(f"{text}[detection]\nmu0_values = {value!r}\n"))
    assert ratio == mu0 == {True, False}


def test_unknown_flag_usage_error():
    assert main(["simulate", "--bogus"]) == EXIT_USAGE
    assert main(["not-a-command"]) == EXIT_USAGE


# Every flag as argparse holds it: (dest, default, choices, required, type, help).
COMMON_FLAGS = [
    ("config", None, None, False, None, "config file path or builtin name "
                                        "('paper30us', 'paper90us')"),
    ("seed", None, None, False, int, "master seed"),
    ("runs", None, None, False, int, "runs per ensemble"),
    ("output", "out", None, False, None, "output directory"),
    ("format", "csv", ["csv", "json"], False, None, None),
    ("force", False, None, False, None, "overwrite existing output files"),
]
MODE_FLAG = ("mode", "incoming", ["incoming", "stored"], False, None, None)
INPUT_FLAG = ("input", None, None, True, None, "CSV with columns x,y,sigma")
# command -> (help, its own flags after the common ones), in `-h` order
COMMAND_FLAGS = {
    "contrast-scan": ("simulated contrast vs gate photons", [MODE_FLAG]),
    "gain-scan": ("closed-form gain vs source input", []),
    "transfer-scan": ("simulated transfer curve with/without gate", []),
    "simulate": ("one ensemble, histogram + summary", []),
    "fit-od": ("fit the contrast model to a CSV dataset",
               [INPUT_FLAG, MODE_FLAG, ("cap", None, None, False, int, "blockade cap override")]),
    "fit-saturation": ("fit the transfer curve to a CSV dataset", [INPUT_FLAG]),
    "detect": ("single-shot detection fidelity pipeline",
               [("mu0", None, None, False, float,
                 "single no-gate mean instead of the configured sweep")]),
}


def test_each_command_accepts_exactly_its_flags():
    commands = cli._build_parser()._subparsers._group_actions[0]
    assert [(a.dest, a.help) for a in commands._choices_actions] == [
        (command, help) for command, (help, _) in COMMAND_FLAGS.items()]
    for command, (_, own) in COMMAND_FLAGS.items():
        actions = [a for a in commands.choices[command]._actions if a.dest != "help"]
        assert [a.option_strings for a in actions] == [[f"--{a.dest}"] for a in actions]
        assert [(a.dest, a.default, a.choices and list(a.choices), a.required, a.type, a.help)
                for a in actions] == COMMON_FLAGS + own, command


def readme_command_table():
    """{command: (help, own flag cells, result files)} of the table in README's
    CLI section: its rows of the form ``| `command` | help | flags | files |``."""
    rows = {}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for line in readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0].splitlines():
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 4 and cells[0].startswith("`"):
            command, help, flags, files = cells
            rows[command.strip("`")] = (help, re.findall(r"`([^`]+)`( \(required\))?", flags),
                                        re.findall(r"`([^`]+)`", files))
    return rows


def test_readme_command_table_is_the_command_table():
    rows = readme_command_table()
    assert list(rows) == list(cli.COMMANDS)
    for command, (help, flags, files) in rows.items():
        spec = cli.COMMANDS[command]
        assert help == spec.help, command
        assert [cell.split()[0] for cell, _ in flags] == [f"--{flag}" for flag in spec.flags]
        for (cell, required), flag in zip(flags, spec.flags):
            choices = cli._FLAGS[flag].get("choices")
            assert not choices or cell.split()[1] == "|".join(choices), cell
            assert bool(required) == cli._FLAGS[flag].get("required", False), cell
        manifest = cli.RunManifest(command, "", 0, 1, "", "<fmt>", False)
        assert files == cli.planned_outputs(manifest), command


@pytest.mark.parametrize("argv, options", [
    (["contrast-scan"], {"mode": "incoming"}),
    (["contrast-scan", "--mode", "stored"], {"mode": "stored"}),
    (["gain-scan"], {}),
    (["transfer-scan"], {}),
    (["simulate"], {}),
    (["fit-od", "--input", "{contrast}"], {"input": "{contrast}", "mode": "incoming"}),
    (["fit-od", "--input", "{contrast}", "--mode", "stored", "--cap", "4"],
     {"input": "{contrast}", "mode": "stored", "cap": 4}),
    (["fit-saturation", "--input", "{transfer}"], {"input": "{transfer}"}),
    (["detect"], {}),
    (["detect", "--mu0", "15"], {"mu0": 15.0}),
])
def test_options_are_the_set_flags_of_the_command(argv, options, small_cfg, tmp_path):
    # the manifest and the sidecar record the command's own flags that are
    # set, and nothing else
    x = np.linspace(0.5, 5.0, 10)
    write_dataset(tmp_path / "contrast.csv", DataSet(x=x, y=models.contrast_curve(x, 0.75, 3),
                                                     sigma=np.full(10, 0.02)))
    x = np.linspace(25.0, 250.0, 10)
    write_dataset(tmp_path / "transfer.csv", DataSet(x=x, y=46.0 * -np.expm1(-x / 70.0),
                                                     sigma=np.full(10, 0.1)))
    paths = {"contrast": str(tmp_path / "contrast.csv"),
             "transfer": str(tmp_path / "transfer.csv")}
    argv = [arg.format(**paths) for arg in argv]
    options = {key: value.format(**paths) if isinstance(value, str) else value
               for key, value in options.items()}
    out = tmp_path / "out"
    manifest = parse_and_validate([*argv, "--config", small_cfg, "--runs", "40",
                                   "--output", str(out)])
    assert manifest.options == options
    assert cli.execute(manifest) == EXIT_OK
    sidecar = json.loads((out / f"{argv[0]}.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["options"] == options


def test_overwrite_refusal_comes_before_the_runner(small_cfg, tmp_path, monkeypatch):
    out = tmp_path / "once"
    assert main(["simulate", "--config", small_cfg, "--output", str(out)]) == EXIT_OK
    before = read_bytes_map(out, skip_provenance=False)

    def runner_ran(*args, **kwargs):
        raise AssertionError("the runner ran")

    monkeypatch.setattr(montecarlo, "simulate_ensemble", runner_ran)
    assert main(["simulate", "--config", small_cfg, "--output", str(out)]) == EXIT_IO
    assert read_bytes_map(out, skip_provenance=False) == before


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "weird.cfg"
    cfg.write_text("[simulation]\nwarp_factor = 9\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG


def test_missing_config_file_rejected():
    assert main(["simulate", "--config", "/nonexistent/nope.cfg"]) == EXIT_CONFIG


@pytest.mark.parametrize("flag, kind, cause", [
    ("--config", "directory", "Is a directory"),
    ("--config", "latin-1", "'utf-8' codec can't decode byte 0xb5"),
    ("--input", "latin-1", "'utf-8' codec can't decode byte 0xb5"),
])
def test_unreadable_config_or_input_is_config_error(flag, kind, cause, tmp_path, capsys):
    # one violation naming the path and the cause, not a traceback
    path = tmp_path / "given"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("[simulation]\nt_int = 30 # µs\n".encode("latin-1"))
    command = "fit-od" if flag == "--input" else "simulate"
    assert main([command, flag, str(path), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0] == "config validation failed:"
    assert lines[1].startswith(f"  - {'config ' if flag == '--config' else ''}{path}: ")
    assert cause in lines[1]


def test_builtin_configs_load():
    for name in ("paper30us", "paper90us"):
        m = parse_and_validate(["simulate", "--config", name])
        assert m.resolved["transistor"]["cap"] == 3
    m30 = parse_and_validate(["simulate", "--config", "paper30us"])
    m90 = parse_and_validate(["simulate", "--config", "paper90us"])
    assert m30.resolved["transistor"]["od_sp"] == 0.75
    assert m30.resolved["transistor"]["od_st"] == 2.2
    assert m90.resolved["transistor"]["od_sp"] == 0.45
    assert m90.resolved["transistor"]["od_st"] == 0.94
    assert m90.resolved["simulation"]["t_int"] == 90.0
    assert m90.resolved["saturation"] == {"a": 46.0, "b": 70.0}


def test_empty_config_resolves_every_key_to_its_default_and_type(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    _, resolved = cli.load_config(str(cfg))
    expected = {
        "transistor": {"od_sp": 0.75, "od_st": 2.2, "cap": 3, "a_ge": 0.15, "eta_det": 0.31},
        "saturation": {"a": 46.0, "b": 70.0},
        "simulation": {"n_gate_in": 0.75, "p_store": 0.61 / (0.85 * 0.75), "source_rate": 0.69,
                       "t_int": 30.0, "retention_tau": math.inf, "self_blockade": False,
                       "runs": 250, "seed": 20140721},
        "scan": {"gate_values": [0.25 * k for k in range(1, 15)],
                 "source_values": [25.0 * k for k in range(1, 11)]},
        "detection": {"n_stored": 0.61, "od_st_model": 0.94, "od_st_instant": 2.2,
                      "mu0_values": [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]},
    }
    assert resolved == expected
    assert {s: list(keys) for s, keys in resolved.items()} == \
        {s: list(keys) for s, keys in cli.CONFIG_SCHEMA.items()}
    types = {s: {k: type(v) for k, v in keys.items()} for s, keys in resolved.items()}
    ints = {("transistor", "cap"), ("simulation", "runs"), ("simulation", "seed")}
    lists = {("scan", "gate_values"), ("scan", "source_values"), ("detection", "mu0_values")}
    for section, keys in types.items():
        for key, kind in keys.items():
            want = (int if (section, key) in ints else list if (section, key) in lists
                    else bool if key == "self_blockade" else float)
            assert kind is want, (section, key)
    for section, key in lists:
        assert all(type(v) is float for v in resolved[section][key]), (section, key)


@pytest.mark.parametrize("text, value, violation", [
    ("[simulation]\nself_blockade = yes\n", ("simulation", "self_blockade", True), None),
    ("[simulation]\nself_blockade = off\n", ("simulation", "self_blockade", False), None),
    ("[simulation]\nself_blockade = x\n", None, "simulation.self_blockade: not a boolean: 'x'"),
    ("[transistor]\ncap = 3.0\n", None,
     "transistor.cap: invalid literal for int() with base 10: '3.0'"),
    ("[scan]\ngate_values = 1, 2 3\n", ("scan", "gate_values", [1.0, 2.0, 3.0]), None),
])
def test_config_values_parse_by_their_defaults_type(text, value, violation, tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(text, encoding="utf-8")
    if violation is None:
        section, key, expected = value
        got = cli.load_config(str(cfg))[1][section][key]
        assert got == expected and type(got) is type(expected)
    else:
        with pytest.raises(ConfigError) as err:
            cli.load_config(str(cfg))
        assert err.value.violations == [violation]


# ---------------------------------------------------------------------------
# simulate + determinism + provenance


def test_simulate_writes_outputs_and_sidecar(small_cfg, tmp_path):
    out = tmp_path / "run1"
    assert main(["simulate", "--config", small_cfg, "--output", str(out)]) == EXIT_OK
    assert histogram_total(out / "histogram.csv") == 120
    record = read_record(out / "simulate_summary.csv")
    assert float(record["mean_source_detected"]) == histogram_mean(out / "histogram.csv")
    side = json.loads((out / "simulate.provenance.json").read_text(encoding="utf-8"))
    assert side["command"] == "simulate"
    for name, digest in side["outputs"].items():
        with open(out / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_hashes_are_hashlibs_with_or_without_openssl(tmp_path, monkeypatch):
    # a command that has not loaded OpenSSL hashes with CPython's own SHA-256
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(range(256)) * 1000)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert cli._sha256(str(path)) == digest
    monkeypatch.delitem(sys.modules, "_hashlib")
    assert cli._sha256_constructor() is not hashlib.sha256
    assert cli._sha256(str(path)) == digest


@pytest.mark.parametrize("scan, fit", [("contrast-scan", "fit-od"),
                                       ("transfer-scan", "fit-saturation")])
def test_fit_sidecar_pins_the_input_it_fitted(scan, fit, tmp_path):
    # the fit's sidecar lists --input, as typed, with the hash under which the
    # scan's sidecar lists the file it wrote
    scan_out, fit_out = tmp_path / "scan", tmp_path / "fit"
    assert main([scan, "--config", "paper90us", "--runs", "200",
                 "--output", str(scan_out)]) == EXIT_OK
    name = f"{scan.replace('-', '_')}.csv"
    assert main([fit, "--input", str(scan_out / name), "--output", str(fit_out)]) == EXIT_OK
    scan_side = json.loads((scan_out / f"{scan}.provenance.json").read_text(encoding="utf-8"))
    fit_side = json.loads((fit_out / f"{fit}.provenance.json").read_text(encoding="utf-8"))
    assert scan_side["inputs"] == {}
    assert fit_side["inputs"] == {str(scan_out / name): scan_side["outputs"][name]}
    assert fit_side["options"]["input"] == str(scan_out / name)


def test_simulate_byte_identical_across_runs(small_cfg, tmp_path):
    outs = []
    for label in ("a", "b", "c"):
        out = tmp_path / label
        code = main(["simulate", "--config", small_cfg, "--output", str(out)])
        assert code == EXIT_OK
        outs.append(read_bytes_map(out))
    assert outs[0] == outs[1] == outs[2]


def test_no_silent_overwrite(small_cfg, tmp_path):
    out = tmp_path / "once"
    assert main(["simulate", "--config", small_cfg, "--output", str(out)]) == EXIT_OK
    before = read_bytes_map(out)
    assert main(["simulate", "--config", small_cfg, "--output", str(out)]) == EXIT_IO
    assert read_bytes_map(out) == before
    assert main(["simulate", "--config", small_cfg, "--output", str(out),
                 "--force"]) == EXIT_OK


def test_unwritable_sidecar_leaves_no_result_file(small_cfg, tmp_path, capsys):
    # the sidecar's name taken by a directory: no result without its record
    out = tmp_path / "out"
    (out / "gain-scan.provenance.json").mkdir(parents=True)
    assert main(["gain-scan", "--config", small_cfg, "--output", str(out)]) == EXIT_IO
    assert "I/O failure" in capsys.readouterr().err
    assert os.listdir(out) == ["gain-scan.provenance.json"]


DETECT_ARGV = ["detect", "--runs", "40", "--mu0", "15"]


def test_failed_write_removes_every_file_of_the_command(small_cfg, tmp_path, monkeypatch):
    # over a complete previous set, a write that fails after the first file
    # leaves none of the command's files, old or new, and no sidecar
    out = tmp_path / "out"
    argv = [*DETECT_ARGV, "--config", small_cfg, "--output", str(out), "--force"]
    assert main(argv) == EXIT_OK
    assert len(os.listdir(out)) == 6  # five result files and the sidecar
    (out / "other.csv").write_text("kept\n", encoding="utf-8")
    written, real_write = [], cli.write_csv

    def write_one_file(path, header, rows):
        if written:
            raise OSError(28, "No space left on device", path)
        written.append(path)
        real_write(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", write_one_file)
    assert main(argv) == EXIT_IO
    assert len(written) == 1
    assert os.listdir(out) == ["other.csv"]


def test_failed_run_leaves_the_previous_files(small_cfg, tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = [*DETECT_ARGV, "--config", small_cfg, "--output", str(out), "--force"]
    assert main(argv) == EXIT_OK
    before = read_bytes_map(out, skip_provenance=False)

    def failing_sweep(*args, **kwargs):
        raise DomainError("no sweep")

    monkeypatch.setattr(experiments, "fidelity_sweep", failing_sweep)
    assert main(argv) == EXIT_NUMERIC
    after = read_bytes_map(out, skip_provenance=False)
    assert b"no sweep" in after.pop("detect.diagnostics.json")
    assert after == before


# fit-saturation input on 2 distinct x values: it exits 4
TWO_DISTINCT_X = [(1.0, 2.0, 0.1), (1.0, 2.1, 0.1), (2.0, 3.0, 0.1), (2.0, 3.2, 0.1)]


def write_saturation_curve(path):
    """Six points on 46 (1 - e^(-x/70)), which fit-saturation fits."""
    x = np.linspace(25, 250, 6)
    write_dataset(path, DataSet(x=x, y=46.0 * -np.expm1(-x / 70.0), sigma=np.ones_like(x)))


def test_successful_run_removes_the_diagnostics_of_a_failed_one(tmp_path):
    data, out = tmp_path / "d.csv", tmp_path / "o"
    argv = ["fit-saturation", "--input", str(data), "--output", str(out)]
    write_csv(data, ["x", "y", "sigma"], TWO_DISTINCT_X)
    assert main(argv) == EXIT_NUMERIC
    assert os.listdir(out) == ["fit-saturation.diagnostics.json"]
    write_saturation_curve(data)
    assert main([*argv, "--force"]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["fit-saturation.provenance.json", "fit_saturation.csv"]


def test_diagnostics_name_taken_by_a_directory_fails_no_run(small_cfg, tmp_path):
    out = tmp_path / "o"
    (out / "gain-scan.diagnostics.json").mkdir(parents=True)
    assert main(["gain-scan", "--config", small_cfg, "--output", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["gain-scan.diagnostics.json",
                                       "gain-scan.provenance.json", "gain_scan.csv"]


def test_output_path_collision_is_io_error(small_cfg, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    assert main(["simulate", "--config", small_cfg, "--output", str(blocker)]) == EXIT_IO


def test_simulate_builtin_config_with_self_blockade(tmp_path):
    out = tmp_path / "p90"
    assert main(["simulate", "--config", "paper90us", "--runs", "200",
                 "--output", str(out)]) == EXIT_OK
    # 62 photons in, self-blockade thinning + eta 0.31: means far below 62*0.31
    assert histogram_total(out / "histogram.csv") == 200
    assert histogram_mean(out / "histogram.csv") < 62.0 * 0.31 * 0.7


def test_simulate_json_format(small_cfg, tmp_path):
    out = tmp_path / "json"
    assert main(["simulate", "--config", small_cfg, "--output", str(out),
                 "--format", "json"]) == EXIT_OK
    assert histogram_total(out / "histogram.json") == 120
    summary = json.loads((out / "simulate_summary.json").read_text(encoding="utf-8"))
    assert summary["n_runs"] == 120


# ---------------------------------------------------------------------------
# scans


def test_contrast_scan_matches_model_curve(small_cfg, tmp_path):
    out = tmp_path / "scan"
    code = main(["contrast-scan", "--config", small_cfg, "--runs", "2000",
                 "--output", str(out)])
    assert code == EXIT_OK
    header, rows = read_table(out / "contrast_scan.csv")
    assert header == ["n_gate_in", "contrast", "sigma"]
    assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
    for x, contrast, sigma in rows:
        model = models.expected_contrast_incoming(x, 0.75, 3)
        assert abs(contrast - model) <= 4 * sigma


def test_contrast_scan_round_trips_into_fit_od(small_cfg, tmp_path):
    out = tmp_path / "roundtrip"
    # exact synthetic data through the CLI fit recovers od to 1e-6
    x = np.arange(0.25, 3.51, 0.25)
    ds = DataSet(x=x, y=models.contrast_curve(x, 0.75, 3), sigma=np.full_like(x, 0.04))
    data_path = tmp_path / "exact.csv"
    write_dataset(data_path, ds)
    code = main(["fit-od", "--input", str(data_path), "--mode", "incoming",
                 "--output", str(out)])
    assert code == EXIT_OK
    record = read_record(out / "fit_od.csv")
    assert float(record["od_sp"]) == pytest.approx(0.75, abs=1e-6)
    assert record["mode"] == "incoming"

    # simulated scan output feeds the fitter directly (statistical agreement)
    scan_out = tmp_path / "scan2"
    assert main(["contrast-scan", "--config", small_cfg, "--runs", "3000",
                 "--output", str(scan_out)]) == EXIT_OK
    fit_out = tmp_path / "fit2"
    assert main(["fit-od", "--input", str(scan_out / "contrast_scan.csv"),
                 "--output", str(fit_out)]) == EXIT_OK
    record = read_record(fit_out / "fit_od.csv")
    assert abs(float(record["od_sp"]) - 0.75) < 0.12


def test_gain_scan_closed_form(small_cfg, tmp_path):
    out = tmp_path / "gain"
    assert main(["gain-scan", "--config", small_cfg, "--output", str(out)]) == EXIT_OK
    header, rows = read_table(out / "gain_scan.csv")
    sat = models.SaturationParams(46.0, 70.0)
    for row in rows:
        vals = dict(zip(header, row))
        assert vals["no_gate_out"] == pytest.approx(
            models.transfer(vals["n_source_in"], sat), rel=1e-12
        )
        assert vals["gain_coherent"] == pytest.approx(
            vals["no_gate_out"] - vals["with_gate_out"], abs=1e-9
        )


def test_transfer_scan_runs(small_cfg, tmp_path):
    out = tmp_path / "transfer"
    code = main(["transfer-scan", "--config", small_cfg, "--runs", "400",
                 "--output", str(out)])
    assert code == EXIT_OK
    header, rows = read_table(out / "transfer_scan.csv")
    assert header[:2] == ["n_source_in", "no_gate_out"]
    assert len(rows) == 3
    sat = models.SaturationParams(46.0, 70.0)
    for row in rows:
        vals = dict(zip(header, row))
        assert abs(vals["no_gate_out"] - models.transfer(vals["n_source_in"], sat)) <= (
            5 * vals["no_gate_sigma"]
        )


# ---------------------------------------------------------------------------
# fits and detect


def test_fit_saturation_cli_round_trip(tmp_path):
    x = np.linspace(25, 250, 10)
    ds = DataSet(x=x, y=46.0 * -np.expm1(-x / 70.0), sigma=np.ones_like(x))
    data_path = tmp_path / "sat.csv"
    write_dataset(data_path, ds)
    out = tmp_path / "fit"
    assert main(["fit-saturation", "--input", str(data_path),
                 "--output", str(out)]) == EXIT_OK
    record = read_record(out / "fit_saturation.csv")
    assert float(record["a"]) == pytest.approx(46.0, rel=1e-4)
    assert float(record["b"]) == pytest.approx(70.0, rel=1e-4)


@pytest.mark.parametrize("command", ["fit-od", "fit-saturation"])
def test_fit_record_cells_parse_as_numbers(command, tmp_path):
    # numpy scalars (the bootstrap interval ends) must be written as plain reprs
    if command == "fit-od":
        x = np.arange(0.25, 3.51, 0.25)
        y = models.contrast_curve(x, 0.75, 3)
    else:
        x = np.linspace(25, 250, 10)
        y = 46.0 * -np.expm1(-x / 70.0)
    data_path = tmp_path / "data.csv"
    write_dataset(data_path, DataSet(x=x, y=y, sigma=np.full_like(x, 0.04)))
    out = tmp_path / "fit"
    assert main([command, "--input", str(data_path), "--output", str(out)]) == EXIT_OK
    record = read_record(out / f"{command.replace('-', '_')}.csv")
    assert any(key.endswith("_ci16") for key in record)
    for key, value in record.items():
        if key in ("flags", "mode"):
            continue
        if key == "converged":
            assert value in ("true", "false")
        else:
            float(value)


def test_fit_od_missing_input_is_config_error(tmp_path):
    assert main(["fit-od", "--input", str(tmp_path / "missing.csv"),
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), (" 1.5 ", 1.5), ("\uff11", 1.0),
                                         ("-0", -0.0), ("1e-400", 0.0)])
def test_dataset_cells_read_as_python_floats(cell, value, tmp_path):
    # the loader's cells are Python float() literals, as numpy's float cast of
    # a string is: underscores, blanks around the number and Unicode digits too
    path = tmp_path / "cells.csv"
    path.write_text(f"x,y,sigma\n{cell},0.5,0.1\n2.0,{cell},0.1\n", encoding="utf-8")
    data = cli._load_dataset(str(path))
    assert data.x[0] == data.y[1] == value
    assert math.copysign(1.0, data.x[0]) == math.copysign(1.0, value)


@pytest.mark.parametrize("cell, violation", [
    ("1e400", "non-finite value in data row 1: x=inf, y=0.5, sigma=0.1"),
    ("", "line 2: could not convert string to float: ''"),
    ("0x10", "line 2: could not convert string to float: '0x10'"),
])
def test_dataset_cells_that_are_not_finite_floats_exit_3(cell, violation, tmp_path, capsys):
    path = tmp_path / "cells.csv"
    path.write_text(f"x,y,sigma\n{cell},0.5,0.1\n2.0,0.6,0.1\n3.0,0.7,0.1\n",
                    encoding="utf-8")
    for command in ("fit-od", "fit-saturation"):
        assert main([command, "--input", str(path),
                     "--output", str(tmp_path / command)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config validation failed:\n  - {path}: {violation}\n"


def test_fit_od_malformed_input_is_config_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,sigma\n1.0,0.5,0.0\n2.0,0.6,0.1\n", encoding="utf-8")
    assert main(["fit-od", "--input", str(bad), "--output", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["fit-od", "fit-saturation"])
def test_non_finite_input_is_config_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,sigma\n1.0,0.2,0.1\n2.0,nan,0.1\n3.0,0.5,0.1\n4.0,0.6,0.1\n",
                   encoding="utf-8")
    assert main([command, "--input", str(bad), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config validation failed:\n  - "
                                       f"{bad}: non-finite value in data row 2: "
                                       "x=2.0, y=nan, sigma=0.1\n")


@pytest.mark.parametrize("command", ["fit-od", "fit-saturation"])
@pytest.mark.parametrize("text, violation", [
    ("x,y,sigma\n", "need at least 2 points, got 0"),
    ("x,y,sigma\n1.0,0.2,0.1\n\n2.0\n3.0,0.5,0.1\n", "line 4: need at least 2 cells"),
    ("x,y,sigma\n0.5,0.2,0.1\n1.0,abc,0.1\n2.0,0.5,0.1\n",
     "line 3: could not convert string to float: 'abc'"),
    ("x,y,sigma\n0.5,0.2,0.01\n1.0,0.3\n2.0,0.5,0.01\n3.0,0.6,0.01\n4.0,0.7,0.01\n",
     "line 3: 2 cells, the header has 3"),
    ("x,y,sigma\n0.5,0.2,0.01\n1.0,0.3,0.01,7\n2.0,0.5,0.01\n3.0,0.6,0.01\n4.0,0.7,0.01\n",
     "line 3: 4 cells, the header has 3"),
    ("x,y\n0.5,0.2\n1.0,0.3,0.01\n2.0,0.5\n3.0,0.6\n4.0,0.7\n",
     "line 3: 3 cells, the header has 2"),
])
def test_input_without_rows_or_with_a_short_row_is_config_error(command, text, violation,
                                                                tmp_path, capsys):
    # the first two ended in an IndexError traceback and the third named no
    # line; the ragged rows were read with sigma = 1, with a cell dropped, or
    # with a cell taken as sigma.  One violation names the path, and the line
    # of a bad row
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    assert main([command, "--input", str(bad), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config validation failed:\n  - {bad}: {violation}\n"


@pytest.mark.parametrize("reader, text", [
    (read_table, "x,y,sigma\n1.0,0.2,0.1\n\n2.0\n"),
    (read_record, "key,value\nseed,7\n\nflags\n"),
], ids=["table", "record"])
def test_one_cell_row_is_config_error_naming_its_line(reader, text, tmp_path):
    # a record's one-cell row ended in an IndexError traceback
    path = tmp_path / "short.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        reader(path)
    assert err.value.violations == [f"{path}: line 4: need at least 2 cells"]


@pytest.mark.parametrize("text, violation", [
    ("key,value,extra\nseed,7\n", "expected header 'key,value'"),
    ("key,value\nmu0,2.5\n\nseed,7,9\n", "line 4: 3 cells, the header has 2"),
], ids=["wide header", "wide row"])
def test_record_is_exactly_key_value(text, violation, tmp_path):
    # both were read, the row as seed -> 7 with its third cell dropped
    path = tmp_path / "wide.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read_record(path)
    assert err.value.violations == [f"{path}: {violation}"]


@pytest.mark.parametrize("cap, violation", [("0", "fit-od --cap >= 1"),
                                             ("101", "fit-od --cap <= 100"),
                                             ("1000000000", "fit-od --cap <= 100")])
def test_fit_od_cap_out_of_range_is_config_error(cap, violation, tmp_path, capsys):
    assert main(["fit-od", "--input", str(tmp_path / "unread.csv"), "--cap", cap,
                 "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config validation failed:\n  - {violation}\n"


def test_fit_od_two_column_input_defaults_sigma(tmp_path):
    x = np.arange(0.25, 3.51, 0.25)
    y = models.contrast_curve(x, 0.94, 3)
    path = tmp_path / "two.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")
    out = tmp_path / "fit"
    assert main(["fit-od", "--input", str(path), "--output", str(out)]) == EXIT_OK
    record = read_record(out / "fit_od.csv")
    assert float(record["od_sp"]) == pytest.approx(0.94, abs=1e-6)


def test_numerical_failure_exit_code(monkeypatch, tmp_path):
    def explode(*args, **kwargs):
        raise FitConvergenceError("simplex collapsed", diagnostics={"sse": 1.0})

    monkeypatch.setattr(fitting, "fit_saturation", explode)
    data = tmp_path / "d.csv"
    write_dataset(data, DataSet(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0], sigma=[1.0, 1.0, 1.0]))
    out = tmp_path / "o"
    assert main(["fit-saturation", "--input", str(data), "--output", str(out)]) == EXIT_NUMERIC
    diag = json.loads((out / "fit-saturation.diagnostics.json").read_text(encoding="utf-8"))
    assert diag["diagnostics"]["sse"] == 1.0


@pytest.mark.parametrize("command, config, points, message", [
    ("fit-saturation", "", [(1.0, 2.0), (1.0, 2.1), (2.0, 3.0), (2.0, 3.2)],
     "need at least 3 distinct x values for a 2-parameter fit, got 2"),
    ("contrast-scan", "[simulation]\nsource_rate = 0\n", None,
     "zero-gate reference transmitted nothing"),
    ("fit-od", "", [(0.5, 0.8), (1.0, 0.6)],
     "bootstrap needs more than 2 points and 2 distinct x values, got 2 with 2"),
    ("fit-saturation", "", [(1e-322, 1.0), (2e-322, 2.0), (3e-322, 3.0), (4e-322, 4.0)],
     "b search range [0.0, 4.00193e-319] of max(x) = 4e-322 underflows to 0"),
], ids=["fit-saturation", "contrast-scan", "fit-od", "fit-saturation-subnormal-x"])
def test_every_numerical_failure_writes_diagnostics(command, config, points, message,
                                                    tmp_path, capsys):
    # a TransistorError other than FitConvergenceError carries no diagnostics,
    # and still exits 4 with a diagnostics file
    cfg, data, out = tmp_path / "c.cfg", tmp_path / "d.csv", tmp_path / "o"
    cfg.write_text(config, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--runs", "50", "--output", str(out)]
    if points is not None:
        write_csv(data, ["x", "y", "sigma"], [(x, y, 0.1) for x, y in points])
        argv += ["--input", str(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fit-od warns that od is unbounded first
        assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")
    diag = json.loads((out / f"{command}.diagnostics.json").read_text(encoding="utf-8"))
    assert diag["error"].startswith(message)
    assert diag["diagnostics"] == {}
    assert diag["manifest"]["command"] == command
    assert os.listdir(out) == [f"{command}.diagnostics.json"]


def test_subnormal_only_resamples_are_failed_resamples(tmp_path):
    # 1e-3 * max(x) underflows to 0 in a resample that drew only the three
    # subnormal x values: its search fails and is skipped under the 10% rule
    data, out = tmp_path / "d.csv", tmp_path / "o"
    data.write_text("x,y,sigma\n1e-322,0.1,0.1\n2e-322,0.2,0.1\n3e-322,0.3,0.1\n"
                    "1,1,0.1\n2,1.5,0.1\n3,1.8,0.1\n", encoding="utf-8")
    assert main(["fit-saturation", "--input", str(data), "--output", str(out)]) == EXIT_OK
    assert read_record(out / "fit_saturation.csv")["n_boot"] == "199"


@dataclass(frozen=True)
class DataclassManifest:
    """cli.RunManifest as the frozen dataclass it was up to version 0.8.0."""

    command: str
    config_path: str
    seed: int
    runs: int
    output_dir: str
    format: str
    force: bool
    options: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)


def test_manifest_repr_and_diagnostics_are_the_dataclass_ones(monkeypatch, small_cfg, tmp_path):
    # the repr, and the diagnostics file written from the manifest's dict,
    # are byte for byte what the dataclass and its asdict gave
    def explode(*args, **kwargs):
        raise FitConvergenceError("simplex collapsed",
                                  diagnostics={"sse": 1.0, "x": np.array([1.0, 2.0])})

    monkeypatch.setattr(fitting, "fit_saturation", explode)
    data, out = tmp_path / "d.csv", tmp_path / "o"
    write_dataset(data, DataSet(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0], sigma=[1.0, 1.0, 1.0]))
    argv = ["fit-saturation", "--config", small_cfg, "--input", str(data), "--output", str(out)]
    manifest = parse_and_validate(argv)
    reference = DataclassManifest(*manifest)
    assert repr(manifest) == "RunManifest" + repr(reference).removeprefix("DataclassManifest")
    assert repr(cli.RunManifest("simulate", "", 0, 1, "o", "csv", False)) == (
        "RunManifest(command='simulate', config_path='', seed=0, runs=1, output_dir='o', "
        "format='csv', force=False, options={}, resolved={})")
    assert main(argv) == EXIT_NUMERIC
    expected = json.dumps({"error": "simplex collapsed",
                           "diagnostics": {"sse": 1.0, "x": np.array([1.0, 2.0])},
                           "manifest": {**asdict(reference)}},
                          sort_keys=True, indent=2, default=str) + "\n"
    assert (out / "fit-saturation.diagnostics.json").read_text(encoding="utf-8") == expected


def test_detect_single_mu0(small_cfg, tmp_path):
    out = tmp_path / "detect"
    code = main(["detect", "--config", small_cfg, "--mu0", "15", "--runs", "300",
                 "--output", str(out)])
    assert code == EXIT_OK
    record = read_record(out / "detect_report.csv")
    assert 0.0 <= float(record["fidelity"]) <= 1.0
    assert float(record["tau"]) >= 0
    header, rows = read_table(out / "fidelity_sweep.csv")
    assert len(rows) == 1
    assert rows[0][header.index("mu0")] == 15.0
    deco_header, _ = read_table(out / "decomposition.csv")
    assert deco_header == ["events", "observed", "model_total", "model_gated",
                           "model_ungated"]
    assert histogram_total(out / "gated_histogram.csv") == 300


def test_detect_sweep_deterministic(small_cfg, tmp_path):
    argv_base = ["detect", "--config", small_cfg, "--runs", "200"]
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(argv_base + ["--output", str(out1)]) == EXIT_OK
    assert main(argv_base + ["--output", str(out2)]) == EXIT_OK
    assert read_bytes_map(out1) == read_bytes_map(out2)
    _, rows = read_table(out1 / "fidelity_sweep.csv")
    assert len(rows) == 7  # default mu0 sweep 10..40


@pytest.mark.parametrize("command", ["contrast-scan", "transfer-scan", "detect"])
def test_child_seeds_distinct_within_and_across_master_seeds(
    command, small_cfg, tmp_path, monkeypatch
):
    derived, ensemble_seeds, null_seeds = [], [], []
    real_child_seed, real_simulate = montecarlo.child_seed, montecarlo.simulate_ensemble
    real_poissonness = experiments.poissonness_test

    def recording_child_seed(seed, tag, i):
        derived.append(real_child_seed(seed, tag, i))
        return derived[-1]

    def recording_simulate(config, n_runs):
        ensemble_seeds.append(config.seed)
        return real_simulate(config, n_runs)

    def recording_poissonness(hist, **kwargs):
        null_seeds.append(kwargs.get("seed"))
        return real_poissonness(hist, **kwargs)

    for module in (montecarlo, experiments):
        monkeypatch.setattr(module, "child_seed", recording_child_seed)
        monkeypatch.setattr(module, "simulate_ensemble", recording_simulate)
    monkeypatch.setattr(experiments, "poissonness_test", recording_poissonness)
    for seed in ("5", "6"):
        assert main([command, "--config", small_cfg, "--runs", "40", "--seed", seed,
                     "--output", str(tmp_path / seed)]) == EXIT_OK
    assert len(set(derived)) == len(derived)
    # every ensemble draws from a derived seed, never from the master seed itself
    assert set(ensemble_seeds) <= set(derived)
    # so does every Poissonness null, one stream per detection point
    assert (len(null_seeds) > 0) == (command == "detect")
    assert len(set(null_seeds)) == len(null_seeds)
    assert set(null_seeds) <= set(derived)


# ---------------------------------------------------------------------------
# emitted CSVs round-trip through the package's own readers


def test_all_emitted_csvs_round_trip(small_cfg, tmp_path):
    out = tmp_path / "all"
    assert main(["contrast-scan", "--config", small_cfg, "--runs", "200",
                 "--output", str(out)]) == EXIT_OK
    header, rows = read_table(out / "contrast_scan.csv")
    # rewrite from parsed values and compare bytes: repr round-trip is lossless
    path2 = tmp_path / "rewrite.csv"
    with open(path2, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    assert path2.read_bytes() == (out / "contrast_scan.csv").read_bytes()


def output_writer(directory, fmt):
    """The CLI's result-file writer, writing into ``directory`` in ``fmt``."""
    return cli.OutputWriter(cli.RunManifest(
        command="simulate", config_path="", seed=0, runs=1, output_dir=str(directory),
        format=fmt, force=False))


def test_table_and_record_bytes(tmp_path):
    # bools as true/false, ints with str, floats (np.float64 too) with repr
    header = ["flag", "n", "x", "y"]
    rows = [[True, 3, 0.1, np.float64(1 / 3)], [False, -7, 1e300, np.float64(0.0)]]
    record = {"sse": 0.1, "n_boot": 200, "converged": True, "a": np.float64(46.0),
              "flags": "linear_regime,b_ci_unbounded"}
    csv_out, json_out = output_writer(tmp_path, "csv"), output_writer(tmp_path, "json")
    assert csv_out.table("table", header, rows) == "table.csv"
    assert csv_out.record("record", record) == "record.csv"
    assert json_out.table("table", header, rows) == "table.json"
    assert json_out.record("record", record) == "record.json"
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == (
        "flag,n,x,y\ntrue,3,0.1,0.3333333333333333\nfalse,-7,1e+300,0.0\n")
    assert (tmp_path / "record.csv").read_text(encoding="utf-8") == (
        'key,value\na,46.0\nconverged,true\nflags,"linear_regime,b_ci_unbounded"\n'
        "n_boot,200\nsse,0.1\n")
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == (
        '[\n  {\n    "flag": true,\n    "n": 3,\n    "x": 0.1,\n    "y": 0.3333333333333333\n'
        '  },\n  {\n    "flag": false,\n    "n": -7,\n    "x": 1e+300,\n    "y": 0.0\n  }\n]\n')
    assert (tmp_path / "record.json").read_text(encoding="utf-8") == (
        '{\n  "a": 46.0,\n  "converged": true,\n  "flags": "linear_regime,b_ci_unbounded",\n'
        '  "n_boot": 200,\n  "sse": 0.1\n}\n')
    # the sidecar hashes every file it wrote
    assert csv_out.written == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                               for name in ("table.csv", "record.csv")}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sidecar_outputs_are_the_planned_outputs(fmt, small_cfg, tmp_path):
    # --force refusal checks the planned names, so they must be what each
    # runner writes
    contrast, transfer = tmp_path / "contrast.csv", tmp_path / "transfer.csv"
    x = np.linspace(0.5, 5.0, 10)
    write_dataset(contrast, DataSet(x=x, y=models.contrast_curve(x, 0.75, 3),
                                    sigma=np.full(10, 0.02)))
    x = np.linspace(25.0, 250.0, 10)
    write_dataset(transfer, DataSet(x=x, y=46.0 * -np.expm1(-x / 70.0),
                                    sigma=np.full(10, 0.1)))
    extra = {"fit-od": ["--input", str(contrast)], "fit-saturation": ["--input", str(transfer)],
             "detect": ["--mu0", "15"]}
    for command in cli.COMMANDS:
        out = tmp_path / command
        manifest = parse_and_validate([command, "--config", small_cfg, "--runs", "40",
                                       "--format", fmt, "--output", str(out),
                                       *extra.get(command, [])])
        assert cli.execute(manifest) == EXIT_OK
        sidecar = f"{command}.provenance.json"
        outputs = json.loads((out / sidecar).read_text(encoding="utf-8"))["outputs"]
        assert sorted(outputs) == sorted(cli.planned_outputs(manifest)), command
        assert sorted(os.listdir(out)) == sorted([*outputs, sidecar]), command


# ---------------------------------------------------------------------------
# modules each command loads: no scipy, and no layer the command does not run

# Stdlib modules no command loads before its first write: `dataclasses` and
# its `inspect` (about 14 ms), `importlib.resources`, and the writers' modules.
NOT_AT_START = ("dataclasses", "inspect", "importlib.resources")
WRITER_MODULES = ("csv", "json", "datetime")
# hashlib's OpenSSL (3.4 MB of RSS), which no numpy-free command loads
OPENSSL = "_hashlib"

# imports nothing it watches before the commands run: argvs come as a literal
LOADED_MODULES = """
import ast, sys
from rydberg_transistor import cli
argvs, code, watched = ast.literal_eval(sys.argv[1])
for argv in argvs:
    if code is None:
        cli.parse_and_validate(argv)
    else:
        assert cli.main(argv) == code, argv
print(sorted(m for m in sys.modules
             if m in watched or m.split(".")[0] in ("rydberg_transistor", "numpy", "scipy")))
"""


def modules_after(argvs, code=EXIT_OK):
    """rydberg_transistor, numpy and scipy modules, and those of NOT_AT_START,
    WRITER_MODULES and OPENSSL, loaded by running ``argvs`` through cli.main in
    a fresh interpreter, each exiting with ``code``; with ``code`` None, only
    parsed and validated, as the benchmark's setup probe does.

    The interpreter runs with -S, so that no ``site`` .pth file preloads a
    module; numpy's directory is put on its path instead.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, str(Path(np.__file__).resolve().parents[1]),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    arg = repr([argvs, code, [*NOT_AT_START, *WRITER_MODULES, OPENSSL]])
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_MODULES, arg],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "rydberg_transistor"}


def test_no_command_loads_scipy(small_cfg, tmp_path):
    contrast = tmp_path / "contrast.csv"
    gate = np.arange(0.25, 3.51, 0.25)
    write_dataset(contrast, DataSet(x=gate, y=models.contrast_curve(gate, 0.75, 3),
                                    sigma=np.full(14, 0.02)))
    transfer = tmp_path / "transfer.csv"
    x = np.linspace(25.0, 250.0, 10)
    write_dataset(transfer, DataSet(x=x, y=46.0 * -np.expm1(-x / 70.0),
                                    sigma=np.full(10, 0.1)))
    common = ["--config", small_cfg, "--runs", "40"]
    argvs = [[command, *common, "--output", str(tmp_path / command)]
             for command in ("gain-scan", "simulate", "contrast-scan", "transfer-scan")]
    argvs += [["fit-od", "--input", str(contrast), "--output", str(tmp_path / "fo")],
              ["fit-saturation", "--input", str(transfer), "--output", str(tmp_path / "fs")],
              ["detect", *common, "--mu0", "15", "--output", str(tmp_path / "detect")]]
    loaded = modules_after(argvs)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    # nor dataclasses: every record is a namedtuple or a plain class
    assert "dataclasses" not in loaded


def test_gain_scan_loads_only_cli_errors_and_models(small_cfg, tmp_path):
    # and no numpy: neither the closed forms nor a rejected config need it;
    # nor dataclasses, inspect, importlib.resources or OpenSSL, and the writer
    # modules only once a result file is written
    package = ["rydberg_transistor", "rydberg_transistor.cli", "rydberg_transistor.errors",
               "rydberg_transistor.models"]
    bad = tmp_path / "bad.cfg"
    bad.write_text("[simulation]\nn_gate_in = 1e300\n[transistor]\nod_sp = -1\n",
                   encoding="utf-8")
    empty = tmp_path / "empty.cfg"
    empty.write_text("[scan]\nsource_values =\n", encoding="utf-8")
    huge_cap = tmp_path / "cap.cfg"
    huge_cap.write_text("[transistor]\ncap = 1000000000000\n", encoding="utf-8")
    runs = [([["gain-scan", "--config", small_cfg], ["detect", "--config", "paper90us"]],
             None, package),
            ([["gain-scan", "--config", small_cfg, "--output", str(tmp_path / "gain")]],
             EXIT_OK, sorted([*package, *WRITER_MODULES])),
            ([["--help"]], EXIT_OK, package),
            ([["simulate", "--config", str(bad), "--output", str(tmp_path / "bad")],
              ["detect", "--config", "paper90us", "--mu0", "1e12",
               "--output", str(tmp_path / "mu0")],
              ["gain-scan", "--config", str(empty), "--output", str(tmp_path / "empty")],
              ["simulate", "--config", str(huge_cap), "--output", str(tmp_path / "cap")],
              ["fit-od", "--input", str(bad), "--cap", "101",
               "--output", str(tmp_path / "fit")]], EXIT_CONFIG, package)]
    for argvs, code, loaded in runs:
        assert modules_after(argvs, code) == loaded, argvs


# The package modules each command loads, besides the package itself, `cli`,
# `errors` and `models`: so no command that never fits loads `fitting` or
# compiles its kernels, and only `detect` loads the detection analysis.
COMMAND_LAYERS = {
    "gain-scan": (),
    "fit-od": ("fitting",),
    "fit-saturation": ("fitting",),
    "simulate": ("montecarlo",),
    "contrast-scan": ("montecarlo",),
    "transfer-scan": ("montecarlo",),
    "detect": ("detection", "experiments", "montecarlo"),
}


def fit_input(tmp_path) -> str:
    """A contrast curve to fit, written under ``tmp_path``."""
    data = tmp_path / "data.csv"
    x = np.linspace(0.5, 5.0, 10)
    write_dataset(data, DataSet(x=x, y=models.contrast_curve(x, 0.75, 3),
                                sigma=np.full(10, 0.02)))
    return str(data)


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_command_loads_exactly_its_package_modules(command, small_cfg, tmp_path):
    if command.startswith("fit-"):
        argv = [command, "--input", fit_input(tmp_path)]
    else:
        argv = [command, "--config", small_cfg, "--runs", "40"]
    if command == "detect":
        argv += ["--mu0", "15"]
    loaded = modules_after([[*argv, "--output", str(tmp_path / "o")]])
    assert package_modules(loaded) == {
        "rydberg_transistor", "rydberg_transistor.cli", "rydberg_transistor.errors",
        "rydberg_transistor.models",
        *(f"rydberg_transistor.{layer}" for layer in COMMAND_LAYERS[command])}


@pytest.mark.parametrize("command", ["fit-od", "fit-saturation"])
def test_fit_commands_add_only_fitting(command, tmp_path):
    # beyond the package modules of COMMAND_LAYERS: the fitters are plain
    # Python, and DataSet and FitResult no dataclasses; the hashes need no OpenSSL
    loaded = modules_after([[command, "--input", fit_input(tmp_path),
                             "--output", str(tmp_path / "o")]])
    for name in ("numpy", OPENSSL, *NOT_AT_START):
        assert name not in loaded, name


# ---------------------------------------------------------------------------
# OpenBLAS threads: main loads numpy on one, unless the caller says otherwise


def child_env(preset=None):
    """The environment of a fresh interpreter that runs this tree's package,
    with OPENBLAS_NUM_THREADS set to ``preset``, or unset."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    return env


# runs argv through cli.main, after a library module has loaded numpy if
# `preload`; prints OPENBLAS_NUM_THREADS as numpy began to load, and whether
# the environment changed
BLAS_CHILD = """
import ast, json, os, sys
argv, preload = ast.literal_eval(sys.argv[1])
seen = []

class NumpyWatch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, NumpyWatch())
before = dict(os.environ)
if preload:
    import rydberg_transistor.montecarlo
from rydberg_transistor import cli
assert cli.main(argv) == 0, argv
print(json.dumps({"seen": seen, "changed": dict(os.environ) != before}))
"""


def run_blas_child(argv, preset=None, preload=False):
    proc = subprocess.run([sys.executable, "-c", BLAS_CHILD, repr([argv, preload])],
                          env=child_env(preset), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("preset, preload, seen, changed", [
    (None, False, ["1"], True),  # the CLI's default
    ("3", False, ["3"], False),  # the caller's value wins
    (None, True, [None], False),  # numpy loaded already: nothing to set
], ids=["unset", "preset", "preloaded"])
@pytest.mark.parametrize("command", [["simulate"], ["detect", "--mu0", "15"]],
                         ids=["simulate", "detect"])
def test_main_loads_numpy_with_one_blas_thread_by_default(command, preset, preload, seen,
                                                          changed, small_cfg, tmp_path):
    argv = [*command, "--config", small_cfg, "--runs", "40", "--output", str(tmp_path)]
    assert run_blas_child(argv, preset, preload) == {"seen": seen, "changed": changed}


@pytest.mark.parametrize("command", [["detect", "--mu0", "15"], ["contrast-scan"]],
                         ids=["detect", "contrast-scan"])
def test_blas_thread_count_changes_no_result_byte(command, tmp_path):
    outputs = []
    for preset in (None, "2"):
        out = tmp_path / str(preset)
        run_blas_child([*command, "--runs", "200", "--output", str(out)], preset)
        sidecar = out / f"{command[0]}.provenance.json"
        outputs.append(json.loads(sidecar.read_text(encoding="utf-8"))["outputs"])
    assert outputs[0] and outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# main as the process: its objects are frozen at exit, and nothing else changes


# runs argv through cli.main, as the process (main()) or in process (main(argv)),
# and prints gc's freeze count from an atexit handler registered before it
FREEZE_CHILD = """
import ast, atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count()))  # runs last: LIFO
argv, as_process = ast.literal_eval(sys.argv[1])
from rydberg_transistor import cli
sys.argv = ["rydberg-transistor", *argv]
assert (cli.main() if as_process else cli.main(argv)) == 0
"""


@pytest.mark.parametrize("as_process", [True, False], ids=["main()", "main(argv)"])
def test_only_main_as_the_process_freezes_its_objects_at_exit(as_process, small_cfg, tmp_path):
    argv = ["gain-scan", "--config", small_cfg, "--output", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", FREEZE_CHILD, repr([argv, as_process])],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    frozen = int(proc.stdout.splitlines()[-1])
    assert frozen > 0 if as_process else frozen == 0


def run_module(argv):
    """``python -m rydberg_transistor`` with ``argv``, in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "rydberg_transistor", *argv],
                          env=child_env(), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["detect", "fit-saturation"])
def test_module_run_writes_the_in_process_outputs(command, small_cfg, tmp_path):
    # detect loads numpy and OpenSSL, fit-saturation neither
    if command == "detect":
        argv = [*DETECT_ARGV, "--config", small_cfg]
    else:
        write_saturation_curve(tmp_path / "d.csv")
        argv = [command, "--input", str(tmp_path / "d.csv")]
    proc = run_module([*argv, "--output", str(tmp_path / "process")])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main([*argv, "--output", str(tmp_path / "in-process")]) == EXIT_OK
    outputs = []
    for out in (tmp_path / "process", tmp_path / "in-process"):
        side = json.loads((out / f"{command}.provenance.json").read_text(encoding="utf-8"))
        for name, digest in side["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        outputs.append(side["outputs"])
    assert outputs[0] and outputs[0] == outputs[1]


def test_module_run_keeps_each_failure_exit_and_message(tmp_path, capsys):
    bad_cfg, data, blocker = tmp_path / "bad.cfg", tmp_path / "d.csv", tmp_path / "file"
    bad_cfg.write_text("[transistor]\nod_sp = -1\n", encoding="utf-8")
    write_csv(data, ["x", "y", "sigma"], TWO_DISTINCT_X)
    blocker.write_text("x", encoding="utf-8")
    cases = [(EXIT_USAGE, ["gain-scan", "--no-such-flag"]),
             (EXIT_CONFIG, ["gain-scan", "--config", str(bad_cfg)]),
             (EXIT_NUMERIC, ["fit-saturation", "--input", str(data)]),
             (EXIT_IO, ["gain-scan", "--output", str(blocker)])]
    for code, argv in cases:
        if code != EXIT_IO:
            argv = [*argv, "--output", str(tmp_path / str(code))]
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        proc = run_module(argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stderr == err  # the first line names the failure


# ---------------------------------------------------------------------------
# Fuzz: every input ends in a documented exit code


# config edges of every schema kind: zero, the smallest subnormal, a tiny
# normal, NaN, infinity, a negative, empty (an empty list), not a boolean
FUZZ_VALUES = ["1", "2.5", "0", "5e-324", "1e-300", "nan", "inf", "-1", "", "maybe"]
FUZZ_INPUTS = [
    "x,y,sigma\n0.5,0.7,0.05\n1,0.5,0.05\n2,0.3,0.05\n3,0.2,0.05\n",
    "x,y\n0.5,0.8\n1,0.6\n",
    "x,y,sigma\n",
    "x,y,sigma\n1,2,0.1\n",
    "1,2,3\n4,5,6\n",
    "x\n1\n2\n",
    "x,y,sigma\n1,abc,0.1\n2,3,0.1\n",
    "x,y,sigma\n1,nan,0.1\n2,3,0.1\n3,4,0.1\n",
    "x,y,sigma\n1e-322,1,0.1\n2e-322,2,0.1\n3e-322,3,0.1\n4e-322,4,0.1\n",
]
# one CLI call in a fresh interpreter whose address space is capped, so that
# a runaway allocation fails the case and not the machine
FUZZ_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from rydberg_transistor.cli import main
sys.exit(main(sys.argv[1:]))
"""


@st.composite
def cli_cases(draw):
    """(argv without --config and --output, config text, --input text or None)."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    section = draw(st.sampled_from(sorted(cli.CONFIG_SCHEMA)))
    values = draw(st.dictionaries(st.sampled_from(sorted(cli.CONFIG_SCHEMA[section])),
                                  st.sampled_from(FUZZ_VALUES), max_size=2))
    text = f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
    argv = [command, "--runs", draw(st.sampled_from(["5", "40", "1", "0"])),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["7", "0", "-1", str(2**64), "x"]))]
    if command == "detect" and draw(st.booleans()):
        argv += ["--mu0", draw(st.sampled_from(["25", "3", "0.01", "1e-300", "0", "2e6",
                                                "nan", "inf"]))]
    if command == "fit-od" and draw(st.booleans()):
        argv += ["--cap", draw(st.sampled_from(["4", "1", "0", "101", "x"]))]
    data = None
    if command in ("fit-od", "fit-saturation"):
        data = draw(st.sampled_from(FUZZ_INPUTS))
    return argv, text, data


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(case=cli_cases())
def test_fuzzed_cli_calls_end_in_a_documented_exit(case):
    assert_documented_exit(*case)


# the drawn cases run a fit command on few of the inputs, so each runs with both
@pytest.mark.parametrize("data", FUZZ_INPUTS, ids=range(len(FUZZ_INPUTS)))
@pytest.mark.parametrize("command", ["fit-od", "fit-saturation"])
def test_every_fuzz_input_ends_in_a_documented_exit(command, data):
    assert_documented_exit([command, "--runs", "5", "--format", "csv"], "", data)


def assert_documented_exit(argv, text, data):
    """Run one CLI call in FUZZ_CHILD: it ends in a documented exit code with no
    traceback, after exit 0 with exactly its planned outputs and sidecar, after
    exit 4 with a diagnostics file."""
    command = argv[0]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        out = work / "out"
        (work / "c.cfg").write_text(text, encoding="utf-8")
        argv = [*argv, "--config", str(work / "c.cfg"), "--output", str(out)]
        if data is not None:
            (work / "d.csv").write_text(data, encoding="utf-8")
            argv += ["--input", str(work / "d.csv")]
        proc = subprocess.run([sys.executable, "-c", FUZZ_CHILD, *argv], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode in (EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), (
            argv, text, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, text, proc.stderr)
        if proc.returncode == EXIT_OK:
            planned = cli.planned_outputs(parse_and_validate(argv))
            sidecar = json.loads((out / f"{command}.provenance.json").read_text(encoding="utf-8"))
            assert sorted(sidecar["outputs"]) == sorted(planned)
            assert sorted(os.listdir(out)) == sorted([*planned, f"{command}.provenance.json"])
        if proc.returncode == EXIT_NUMERIC:
            assert (out / f"{command}.diagnostics.json").is_file(), (argv, text)
