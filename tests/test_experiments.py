"""Experiment-driver tests: transfer scan, gain table, detection pipeline."""

import math
import warnings

import numpy as np
import pytest

from rydberg_transistor import models
from rydberg_transistor.errors import DomainError
from rydberg_transistor.experiments import detection_experiment, fidelity_sweep
from rydberg_transistor.fitting import fit_saturation
from rydberg_transistor.models import DataSet
from rydberg_transistor.montecarlo import (
    SimConfig,
    calibrate_retention_tau,
    incoming_scan_config,
    simulate_ensemble,
    transfer_scan,
)

SAT = models.SaturationParams(46.0, 70.0)


def test_incoming_scan_config_removes_storage_losses():
    base = SimConfig(seed=1)
    cfg = incoming_scan_config(base)
    assert cfg.params.a_ge == 0.0
    assert cfg.p_store == 1.0
    assert cfg.params.od_st == base.params.od_sp


def test_gain_scan_rows_against_closed_forms():
    params = models.TransistorParams(od_sp=0.45, od_st=0.94, cap=3)
    rows = models.gain_scan_rows(params, SAT, 0.75, [70.0, 3500.0])
    row = rows[0]
    base = models.transfer(70.0, SAT)
    c = models.expected_contrast_incoming(0.75, 0.45, 3)
    assert row["no_gate_out"] == pytest.approx(base, rel=1e-12)
    assert row["with_gate_out"] == pytest.approx((1 - c) * base, rel=1e-12)
    assert row["gain_coherent"] == pytest.approx(c * base, rel=1e-12)
    # asymptotic single-stored gain approaches the paper's 28-photon level
    assert rows[1]["gain_single_stored"] == pytest.approx(
        46.0 * -math.expm1(-0.94), rel=1e-3
    )


def test_transfer_scan_with_gate_tracks_constant_contrast():
    base = SimConfig(
        n_gate_in=0.61,
        p_store=1.0,
        params=models.TransistorParams(od_st=0.94, cap=3, a_ge=0.0, eta_det=0.31),
        sat=SAT,
        t_int=90.0,
        retention_tau=math.inf,
        seed=100,
    )
    points = transfer_scan(base, [50.0, 150.0, 250.0], n_runs=3000)
    c = models.expected_contrast_stored(0.61, 0.94, 3)
    for p in points:
        expected = models.transfer(p.n_source_in, SAT)
        assert abs(p.no_gate_out - expected) <= 3.5 * p.no_gate_sigma
        sigma = math.sqrt(p.with_gate_sigma**2 + (1 - c) ** 2 * p.no_gate_sigma**2)
        assert abs(p.with_gate_out - (1 - c) * p.no_gate_out) <= 3.5 * sigma
    assert [p.n_source_in for p in points] == [50.0, 150.0, 250.0]


def test_transfer_scan_rejects_zero_input():
    with pytest.raises(DomainError):
        transfer_scan(SimConfig(seed=1), [0.0, 10.0], n_runs=10)


def test_transfer_scan_fit_recovers_saturation_params():
    base = SimConfig(
        n_gate_in=0.0,
        params=models.TransistorParams(eta_det=0.31),
        sat=SAT,
        t_int=90.0,
        retention_tau=math.inf,
        seed=200,
    )
    points = transfer_scan(base, np.linspace(25, 250, 6), n_runs=4000)
    result = fit_saturation(DataSet([p.n_source_in for p in points],
                                    [p.no_gate_out for p in points],
                                    [max(p.no_gate_sigma, 1e-12) for p in points]), n_boot=100)
    assert abs(result.params["a"] - 46.0) / 46.0 < 0.05
    assert abs(result.params["b"] - 70.0) / 70.0 < 0.10


def test_detection_experiment_report_shape():
    report = detection_experiment(mu0=15.0, n_runs=400, seed=7)
    assert report.mu0 == 15.0
    assert report.tau == report.threshold.tau
    assert 0.0 <= report.fidelity <= 1.0
    assert report.gated_hist.total == 400
    assert report.reference_hist.total == 400
    # the idealized model ignores fly-away smearing, so it is optimistic
    assert report.threshold.fidelity >= report.fidelity
    assert report.mean_stored == pytest.approx(0.61, abs=0.15)


def _scored_per_cell(joint, tau):
    """(fidelity, fidelity_balanced) of "gated iff n <= tau", one cell at a time."""
    runs, correct = [0, 0], [0, 0]
    for k in range(joint.shape[0]):
        for n in range(joint.shape[1]):
            runs[k >= 1] += int(joint[k, n])
            correct[k >= 1] += int(joint[k, n]) * ((n <= tau) == (k >= 1))
    balanced = 0.5 * sum(c / r if r else 0.0 for c, r in zip(correct, runs))
    return sum(correct) / sum(runs), balanced


@pytest.mark.parametrize("kwargs, regime", [
    (dict(mu0=20.0), "inside"),
    # od_st_model = 0: the mixture cannot discriminate, so the threshold is
    # the better trivial classifier, never (few stored) or always (many)
    (dict(mu0=5.0, n_stored=0.3, od_st_model=0.0, retention_tau=math.inf), "never"),
    (dict(mu0=5.0, n_stored=3.0, od_st_model=0.0, retention_tau=math.inf), "always"),
])
def test_detection_experiment_scores_ground_truth_per_cell(kwargs, regime):
    args = dict(n_stored=0.61, cap=3, od_st_model=0.94, od_st_instant=2.2, t_int=90.0,
                eta_det=0.31, retention_tau=None, n_runs=400, seed=7)
    args.update(kwargs)
    report = detection_experiment(**args)
    tau_fly = args["retention_tau"]
    if tau_fly is None:
        tau_fly = calibrate_retention_tau(args["od_st_instant"], args["od_st_model"],
                                          args["t_int"])
    gated = simulate_ensemble(SimConfig(
        n_gate_in=args["n_stored"], p_store=1.0,
        params=models.TransistorParams(od_sp=0.0, od_st=args["od_st_instant"],
                                       cap=args["cap"], a_ge=0.0, eta_det=args["eta_det"]),
        source_rate=args["mu0"] / (args["eta_det"] * args["t_int"]), t_int=args["t_int"],
        retention_tau=tau_fly, seed=args["seed"],
    ), args["n_runs"])
    assert report.gated_hist == gated.histogram
    width = gated.joint.shape[1]
    assert {"inside": 0 <= report.tau < width - 1, "never": report.tau == -1,
            "always": report.tau >= width}[regime]
    fidelity, balanced = _scored_per_cell(gated.joint, report.tau)
    assert report.fidelity == fidelity
    assert report.fidelity_balanced == balanced


def test_detection_experiment_ignores_od_sp():
    # detect never reads od_sp, so an instantaneous od_st below its default
    # must not trigger the od_sp > od_st warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        detection_experiment(mu0=20, od_st_instant=0.5, od_st_model=0.4, n_runs=50)


def test_detection_experiment_validates_mu0():
    with pytest.raises(DomainError):
        detection_experiment(mu0=0.0, n_runs=50)


def test_fidelity_sweep_deterministic_and_ordered():
    r1 = fidelity_sweep([10.0, 20.0], n_runs=200, seed=3)
    r2 = fidelity_sweep([10.0, 20.0], n_runs=200, seed=3)
    assert [r.mu0 for r in r1] == [10.0, 20.0]
    assert [r.fidelity for r in r1] == [r.fidelity for r in r2]
    assert [r.tau for r in r1] == [r.tau for r in r2]
