"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import os

import numpy as np
import pytest

from rydberg_transistor import models
from rydberg_transistor.cli import main
from rydberg_transistor.detection import mixture_from_params, optimal_threshold
from rydberg_transistor.detection import _threshold_fidelity
from rydberg_transistor.experiments import (
    fidelity_sweep,
    transfer_dataset,
    transfer_scan,
)
from rydberg_transistor.fitting import DataSet, fit_od, fit_saturation, saturation_curve
from rydberg_transistor.montecarlo import SimConfig, simulate_ensemble


def check(number, description, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_single_photon_fock_contrast():
    got = models.fock_contrast(1, 0.75, 3)
    check(
        1,
        f"fock_contrast(1, 0.75, 3) = {got:.4f}, expected 0.5276 within C_sp = 0.53(2)",
        abs(got - 0.5276) < 5e-5 and abs(got - 0.53) <= 0.02,
    )


@pytest.mark.oracle
def test_criterion_2_coherent_limit_and_bound():
    import mpmath

    reference = float(1 - mpmath.exp(-1))  # high-precision oracle
    got = models.coherent_limit(1.0)
    value_ok = abs(got - reference) <= 1e-9 and abs(got - 0.63212) < 5e-6

    ns = np.linspace(0.0, 4.0, 100)
    ods = np.linspace(0.0, 5.0, 100)
    bound = np.array([models.coherent_limit(float(n)) for n in ns])
    bound_ok = all(
        np.all(models.contrast_curve(ns, float(od), 3) <= bound + 1e-12) for od in ods
    )
    check(
        2,
        f"coherent_limit(1.0) = {got:.9f} (|err| <= 1e-9) and "
        "expected contrast <= coherent limit on the 100x100 grid",
        value_ok and bound_ok,
    )


def test_criterion_3_gain_consistency():
    coherent = models.gain(46.0, 46.0 * (1.0 - 0.22))
    stored = models.gain(46.0, 46.0 * math.exp(-0.94))
    check(
        3,
        f"asymptotic gain C*a = {coherent:.2f} within G = 10(1); "
        f"single-stored gain {stored:.2f} within G_st = 28(2)",
        abs(coherent - 10.12) <= 1e-9
        and abs(coherent - 10.0) <= 1.0
        and abs(stored - 46.0 * -math.expm1(-0.94)) <= 1e-12
        and abs(stored - 28.0) <= 2.0,
    )


def test_criterion_4_gated_subensemble_composition():
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    cond = model.weights[1:] / model.w_gated
    check(
        4,
        f"conditional weights at n_stored = 0.61: {cond[0]:.3f}/{cond[1]:.3f}, "
        "matching the 73%/22% composition",
        abs(cond[0] - 0.726) < 5e-4 and abs(cond[1] - 0.221) < 5e-4,
    )


def test_criterion_5_fit_round_trips():
    x = np.arange(0.25, 3.51, 0.25)
    od_ok = True
    recovered = {}
    for od_true in (0.45, 0.75, 0.94, 2.2):
        ds = DataSet(x=x, y=models.contrast_curve(x, od_true, 3),
                     sigma=np.full_like(x, 0.04))
        got = fit_od(ds, cap=3, mode="incoming").params["od_sp"]
        recovered[od_true] = got
        od_ok = od_ok and abs(got - od_true) < 1e-6

    xs = np.linspace(25.0, 250.0, 10)
    sat_ds = DataSet(x=xs, y=saturation_curve(xs, 46.0, 70.0), sigma=np.ones_like(xs))
    sat = fit_saturation(sat_ds).params
    sat_ok = abs(sat["a"] - 46.0) / 46.0 < 1e-4 and abs(sat["b"] - 70.0) / 70.0 < 1e-4
    check(
        5,
        "fit_od recovers od in {0.45, 0.75, 0.94, 2.2} within 1e-6 "
        f"(errors {[f'{abs(recovered[t]-t):.1e}' for t in recovered]}); "
        f"fit_saturation recovers (a, b) = ({sat['a']:.5f}, {sat['b']:.5f}) within 1e-4",
        od_ok and sat_ok,
    )


def test_criterion_6_monte_carlo_analytic_equivalence():
    n_runs = 100_000
    base = SimConfig(
        n_gate_in=0.0,
        p_store=1.0,
        params=models.TransistorParams(od_sp=1.0, od_st=1.0, cap=3, a_ge=0.0, eta_det=1.0),
        sat=None,
        source_rate=0.69,
        t_int=30.0,
        retention_tau=math.inf,
        seed=600,
    )
    ref = simulate_ensemble(base, n_runs)
    ok = True
    details = []
    for i, (od_st, n_mean) in enumerate([(0.94, 0.61), (2.2, 1.0), (0.5, 3.0)]):
        cfg = base._replace(
            n_gate_in=n_mean,
            params=models.TransistorParams(
                od_sp=od_st, od_st=od_st, cap=3, a_ge=0.0, eta_det=1.0
            ),
            seed=601 + i,
        )
        gated = simulate_ensemble(cfg, n_runs)
        c_hat = 1.0 - gated.mean_source_detected / ref.mean_source_detected
        c_exact = models.expected_contrast_stored(n_mean, od_st, 3)
        m0 = ref.mean_source_detected
        se = math.sqrt(
            gated.histogram.variance() / n_runs / m0**2
            + gated.mean_source_detected**2 * ref.histogram.variance() / n_runs / m0**4
        )
        pull = abs(c_hat - c_exact) / se
        details.append(f"(od={od_st}, n={n_mean}): {pull:.2f} sigma")
        ok = ok and pull <= 3.0
    check(
        6,
        "ensemble contrast matches the capped-Poisson mixture within 3 SE at 1e5 runs: "
        + "; ".join(details),
        ok,
    )


def test_criterion_7_transfer_function_reproduction():
    sat = models.SaturationParams(46.0, 70.0)
    base = SimConfig(
        n_gate_in=0.61,
        p_store=1.0,
        params=models.TransistorParams(od_st=0.94, cap=3, a_ge=0.0, eta_det=0.31),
        sat=sat,
        t_int=90.0,
        retention_tau=math.inf,
        seed=700,
    )
    n_values = np.linspace(25.0, 250.0, 10)
    points = transfer_scan(base, n_values, n_runs=10_000)

    fit = fit_saturation(transfer_dataset(points), n_boot=100).params
    fit_ok = abs(fit["a"] - 46.0) / 46.0 < 0.05 and abs(fit["b"] - 70.0) / 70.0 < 0.05

    c = models.expected_contrast_stored(0.61, 0.94, 3)
    worst = 0.0
    for p in points:
        sigma = math.sqrt(p.with_gate_sigma**2 + (1 - c) ** 2 * p.no_gate_sigma**2)
        worst = max(worst, abs(p.with_gate_out - (1 - c) * p.no_gate_out) / sigma)
    check(
        7,
        f"no-gate transfer fit gives (a, b) = ({fit['a']:.2f}, {fit['b']:.2f}) "
        f"within 5%; with-gate = (1-C) x no-gate within 3 sigma "
        f"(worst pull {worst:.2f})",
        fit_ok and worst <= 3.0,
    )


@pytest.mark.oracle
def test_criterion_8_detection_fidelity_sweep():
    from scipy.stats import poisson

    mu0_grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    reports = fidelity_sweep(mu0_grid, n_runs=3000, seed=800)

    optimality_ok = True
    for report in reports:
        model = mixture_from_params(0.61, 3, 0.94, report.mu0)
        thr = optimal_threshold(model)
        tau_max = int(poisson.ppf(0.9999, report.mu0))
        best = max(
            _threshold_fidelity(model, tau)[0] for tau in range(-1, tau_max + 1)
        )
        optimality_ok = optimality_ok and thr.fidelity >= best - 1e-12

    fidelities = {r.mu0: r.fidelity for r in reports}
    in_band = [mu0 for mu0, f in fidelities.items() if abs(f - 0.72) <= 0.05]
    check(
        8,
        "fidelity curve over mu0 in [10, 40]: "
        + ", ".join(f"{mu0:.0f}: {f:.3f}" for mu0, f in fidelities.items())
        + f"; in 0.72(5) band at mu0 = {in_band}; threshold optimality exhaustive",
        len(in_band) >= 1 and optimality_ok,
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "accept.cfg"
    cfg.write_text(
        "[simulation]\nruns = 150\nseed = 99\n[scan]\ngate_values = 0.5 1.0\n",
        encoding="utf-8",
    )
    digests = []
    for label in ("a", "b", "c"):
        sim_out = tmp_path / f"sim_{label}"
        scan_out = tmp_path / f"scan_{label}"
        assert main(["simulate", "--config", str(cfg), "--output", str(sim_out)]) == 0
        assert main(["contrast-scan", "--config", str(cfg), "--output", str(scan_out)]) == 0
        blob = {}
        for directory in (sim_out, scan_out):
            for name in sorted(os.listdir(directory)):
                if name.endswith("provenance.json"):
                    continue  # timestamps live only in the sidecar
                blob[name] = (directory / name).read_bytes()
        digests.append(blob)
    check(
        9,
        "repeated CLI executions are byte-identical",
        digests[0] == digests[1] == digests[2],
    )
