"""The single-shot detection pipeline behind the CLI's `detect` command.

`detection_experiment` composes the Monte Carlo engine and the detection
analysis: it simulates gated and reference ensembles with fly-away, builds
the Poisson mixture, decomposes the gated histogram, picks the optimal
threshold and scores it against the simulator's ground truth;
`fidelity_sweep` runs it over a grid of no-gate means.  The contrast and
transfer scans live in `montecarlo`, beside the engine they drive.
"""

from __future__ import annotations

from collections import namedtuple

from .detection import decompose, mixture_from_params, optimal_threshold, poissonness_test
from .models import DETECTION_REF, POISSONNESS_NULL, SWEEP_POINT, TransistorParams, child_seed
from .montecarlo import SimConfig, calibrate_retention_tau, simulate_ensemble

__all__ = [
    "DetectionReport",
    "detection_experiment",
    "fidelity_sweep",
]


class DetectionReport(namedtuple(
        "DetectionReport", "mu0 threshold fidelity fidelity_balanced gated_hist reference_hist "
        "decomposition reference_poissonness_p mean_stored")):
    """Outcome of one simulate -> decompose -> threshold detection run.

    ``fidelity`` is the ground-truth fraction of simulated runs classified
    correctly at the model threshold (the simulator knows the true stored
    number per run); ``threshold.fidelity`` is the idealized mixture-model
    value, which ignores mid-window fly-away.  The mixture gives a run with k
    stored excitations the mean mu0 e^{-0.94 k}, 0.391 / 0.153 / 0.060 of mu0
    for k = 1 / 2 / 3, where the engine's fly-away mean is 0.620 / 0.431 /
    0.318 of it at paper90us (``test_flyaway_row_means_match_the_closed_form``).
    Across the paper90us sweep the model fidelity is 0.897-0.993 and the
    simulated one 0.744-0.791 (``--runs 3000``).
    """

    __slots__ = ()

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
    ref_cfg = gated_cfg._replace(n_gate_in=0.0, seed=child_seed(seed, DETECTION_REF, 0))

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
