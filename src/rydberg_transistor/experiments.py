"""High-level experiment drivers used by the CLI and the scripts.

These compose the closed-form models, the Monte Carlo engine, the fitters
and the detection analysis into the scans behind the standard figures:
contrast vs gate photons, gain/transfer vs source photons, and the
single-shot detection fidelity sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .detection import (
    CountHistogram,
    DecompositionResult,
    ThresholdResult,
    decompose,
    mixture_from_params,
    optimal_threshold,
    poissonness_test,
)
from .errors import DomainError
from .models import (
    DETECTION_REF,
    MU0_MAX,  # re-exported: the bound mixture_from_params puts on mu0
    POISSONNESS_NULL,
    SWEEP_POINT,
    TRANSFER_GATE,
    TRANSFER_REF,
    TransistorParams,
    child_seed,
    gain_scan_rows,
)
from .montecarlo import SimConfig, calibrate_retention_tau, simulate_ensemble

if TYPE_CHECKING:
    from .fitting import DataSet

__all__ = [
    "incoming_scan_config",
    "gain_scan_rows",
    "transfer_scan",
    "TransferPoint",
    "DetectionReport",
    "detection_experiment",
    "fidelity_sweep",
]


def incoming_scan_config(base: SimConfig) -> SimConfig:
    """Variant of a config that attenuates per *incoming* gate photon.

    Storage losses and the od_st/od_sp distinction are folded away
    (a_ge = 0, p_store = 1, od_st := od_sp), so the measured contrast follows
    the incoming-photon contrast model directly.
    """
    params = base.params._replace(a_ge=0.0, od_st=base.params.od_sp)
    return replace(base, params=params, p_store=1.0)


@dataclass(frozen=True)
class TransferPoint:
    """One source-input setting of the simulated transfer measurement."""

    n_source_in: float
    no_gate_out: float
    no_gate_sigma: float
    with_gate_out: float
    with_gate_sigma: float


def transfer_scan(
    base: SimConfig,
    n_source_values,
    n_runs: int,
) -> list[TransferPoint]:
    """Simulate the source transfer function with and without gate input.

    The source input is swept by scaling source_rate at fixed t_int.  Outputs
    are medium-exit photon numbers (detected counts corrected by eta_det),
    with standard errors of the mean.
    """
    eta = base.params.eta_det
    points = []
    for i, n_in in enumerate(n_source_values):
        if n_in <= 0:
            raise DomainError("transfer scan needs source inputs > 0")
        rate = float(n_in) / base.t_int
        cfg_ref = replace(base, n_gate_in=0.0, source_rate=rate,
                          seed=child_seed(base.seed, TRANSFER_REF, i))
        cfg_gate = replace(base, source_rate=rate, seed=child_seed(base.seed, TRANSFER_GATE, i))
        ref = simulate_ensemble(cfg_ref, n_runs)
        gate = simulate_ensemble(cfg_gate, n_runs)
        points.append(
            TransferPoint(
                n_source_in=float(n_in),
                no_gate_out=ref.mean_source_detected / eta,
                no_gate_sigma=_mean_se(ref.histogram) / eta,
                with_gate_out=gate.mean_source_detected / eta,
                with_gate_sigma=_mean_se(gate.histogram) / eta,
            )
        )
    return points


def _mean_se(hist: CountHistogram) -> float:
    if hist.total < 2:
        return 0.0
    return math.sqrt(hist.variance() / hist.total)


def transfer_dataset(points: list[TransferPoint], label: str = "transfer") -> DataSet:
    """No-gate transfer points as a DataSet ready for fit_saturation."""
    from .fitting import DataSet

    return DataSet(
        x=np.array([p.n_source_in for p in points]),
        y=np.array([p.no_gate_out for p in points]),
        sigma=np.array([max(p.no_gate_sigma, 1e-12) for p in points]),
        label=label,
    )


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one simulate -> decompose -> threshold detection run.

    ``fidelity`` is the ground-truth fraction of simulated runs classified
    correctly at the model threshold (the simulator knows the true stored
    number per run); ``threshold.fidelity`` is the idealized mixture-model
    value, which ignores mid-window fly-away and is therefore optimistic.
    """

    mu0: float
    threshold: ThresholdResult
    fidelity: float
    fidelity_balanced: float
    gated_hist: CountHistogram
    reference_hist: CountHistogram
    decomposition: DecompositionResult
    reference_poissonness_p: float
    mean_stored: float

    @property
    def tau(self) -> int:
        return self.threshold.tau


def detection_experiment(
    mu0: float,
    n_stored: float = 0.61,
    cap: int = 3,
    od_st_model: float = 0.94,
    od_st_instant: float = 2.2,
    t_int: float = 90.0,
    eta_det: float = 0.31,
    retention_tau: float | None = None,
    n_runs: int = 250,
    seed: int = 0,
) -> DetectionReport:
    """Full single-shot detection pipeline at one no-gate mean ``mu0``.

    Simulates gated and reference ensembles with instantaneous attenuation
    ``od_st_instant`` and exponential fly-away (retention_tau defaults to the
    value that averages it down to ``od_st_model`` over the window), builds
    the Poisson mixture at the effective ``od_st_model``, decomposes the
    gated histogram against it, picks the optimal threshold, and scores the
    threshold against the simulator's per-run ground truth.  The reference
    ensemble and the Poissonness null draw from child seeds of ``seed``.
    The mixture is built first, so a ``mu0`` outside (0, MU0_MAX] raises
    DomainError before any run is drawn.
    """
    model = mixture_from_params(n_stored, cap, od_st_model, mu0)
    if retention_tau is None:
        retention_tau = calibrate_retention_tau(od_st_instant, od_st_model, t_int)
    # detect never reads od_sp; 0 keeps the od_sp > od_st warning quiet
    params = TransistorParams(od_sp=0.0, od_st=od_st_instant, cap=cap, a_ge=0.0,
                              eta_det=eta_det)
    gated_cfg = SimConfig(n_gate_in=n_stored, p_store=1.0, params=params,
                          source_rate=mu0 / (eta_det * t_int), t_int=t_int,
                          retention_tau=retention_tau, seed=seed)
    ref_cfg = replace(gated_cfg, n_gate_in=0.0, seed=child_seed(seed, DETECTION_REF, 0))

    gated = simulate_ensemble(gated_cfg, n_runs)
    ref = simulate_ensemble(ref_cfg, n_runs)

    thr = optimal_threshold(model)
    deco = decompose(gated.histogram, model)

    # runs and correctly classified runs, without and with a stored excitation:
    # a run is declared gated iff it detected at most tau photons
    joint, cut = gated.joint, thr.tau + 1
    runs = (int(joint[0].sum()), int(joint[1:].sum()))
    correct = (int(joint[0, cut:].sum()), int(joint[1:, :cut].sum()))
    balanced = 0.5 * sum(c / r if r else 0.0 for c, r in zip(correct, runs))

    return DetectionReport(
        mu0=float(mu0),
        threshold=thr,
        fidelity=sum(correct) / gated.n_runs,
        fidelity_balanced=balanced,
        gated_hist=gated.histogram,
        reference_hist=ref.histogram,
        decomposition=deco,
        reference_poissonness_p=poissonness_test(
            ref.histogram, seed=child_seed(seed, POISSONNESS_NULL, 0)
        ).p_value
        if ref.n_runs >= 30
        else float("nan"),
        mean_stored=gated.mean_stored,
    )


def fidelity_sweep(
    mu0_values,
    n_runs: int = 250,
    seed: int = 0,
    **kwargs,
) -> list[DetectionReport]:
    """Detection pipeline over a grid of no-gate means, one report per mu0.

    Point ``i`` runs with the seed ``child_seed(seed, SWEEP_POINT, i)``.
    """
    return [
        detection_experiment(
            float(mu0), n_runs=n_runs, seed=child_seed(seed, SWEEP_POINT, i), **kwargs
        )
        for i, mu0 in enumerate(mu0_values)
    ]
