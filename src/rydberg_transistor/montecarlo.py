"""Seeded stochastic simulation of the full pulse sequence.

One run draws the gate storage chain (Poisson pulse, intermediate-state
absorption, storage, blockade cap), assigns each stored excitation an
exponential fly-away lifetime, and counts the source photons detected through
the time-dependent attenuation.  Given the lifetimes, the surviving source
photons form a thinned Poisson process (Lewis & Shedler 1979), so the detected
count is a single Poisson draw with mean
``rate * p_sat * eta_det * integral_0^T exp(-od_st * k_active(t)) dt``; the
integral is a sum over the at most cap+1 segments between sorted lifetimes.
No per-photon arrivals are drawn.

Every histogram of detected counts is a `CountHistogram`, built here.  The
scans behind two of the figures run here too: `contrast_scan` (switch
contrast against gate photons, with `scan_configs` and, per incoming photon,
`incoming_scan_config`) and `transfer_scan` (source transfer with and
without gate).  Neither needs the detection analysis or the fitters, so the
commands that run them load `models` and this module alone.

Reproducibility contract: runs are drawn in blocks of ``BLOCK_RUNS`` (the last
block may be shorter), and block ``b`` of an ensemble draws from a Philox
counter-based generator keyed by ``SeedSequence((seed, b))``.  All aggregation
is over integers (event counts), so ensemble results are bit-identical for a
given (config, n_runs).  Seeds derived from a master seed come from
`child_seed`, never from seed arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, FitConvergenceError, UndefinedContrastError
# The constants, child_seed and its tags live in models, which the CLI loads
# alone; they are re-exported here, where the streams they key are drawn.
from .models import (
    BOOTSTRAP,
    DEFAULT_P_STORE,
    POISSON_LAM_MAX,
    RETENTION_TAU_BRACKET,
    SCAN_POINT,
    TRANSFER_GATE,
    TRANSFER_REF,
    DataSet,
    TransistorParams,
    _Record,
    child_seed,
    detected_mean_violations,
    retention_violations,
    saturation_thinning,
    seed_violations,
    simulation_violations,
    switch_contrast,
)

__all__ = [
    "CountHistogram",
    "SimConfig",
    "EnsembleResult",
    "calibrate_retention_tau",
    "DEFAULT_RETENTION_TAU",
    "DEFAULT_P_STORE",
    "BLOCK_RUNS",
    "POISSON_LAM_MAX",
    "child_seed",
    "simulate_ensemble",
    "contrast_scan",
    "scan_configs",
    "incoming_scan_config",
    "transfer_scan",
    "TransferPoint",
]

# Runs per random block.  Part of the reproducibility contract: changing it
# changes the samples of every seed.
BLOCK_RUNS = 8192

# Newton steps calibrate_retention_tau takes at most; it needs 35 at the
# upper edge of RETENTION_TAU_BRACKET and 5 at the paper's settings.
RETENTION_TAU_MAXITER = 100


def calibrate_retention_tau(od_instant: float, od_effective: float, t_int: float) -> float:
    """Fly-away time that averages an instantaneous od down to an effective one.

    With exponential lifetimes the window-averaged attenuation exponent per
    excitation is od_instant * (tau / t) * (1 - exp(-t / tau)); this solves
    that expression for tau on RETENTION_TAU_BRACKET = [1e-9, 1e9] * t_int, by
    Newton's method in t / tau.  Returns inf when no decay is needed, which
    includes od_effective / od_instant above about 1 - 5e-10: a fly-away time
    over 1e9 windows is no decay at this resolution.  Raises DomainError for
    t_int <= 0 and for ods models.retention_violations names, as a ratio
    below 1e-9, and FitConvergenceError after RETENTION_TAU_MAXITER steps.
    """
    if not t_int > 0:  # NaN fails too
        raise DomainError(f"need t_int > 0, got {t_int}")
    if violated := retention_violations(od_instant, od_effective):
        raise DomainError(f"od_st_instant, od_st_model = {od_instant!r}, {od_effective!r} violate "
                          f"{'; '.join(violated)}: fly-away times lie in 1e-9 to 1e9 windows")
    ratio = od_effective / od_instant
    hi = RETENTION_TAU_BRACKET[1] * t_int
    if (hi / t_int) * -math.expm1(-t_int / hi) <= ratio:
        return math.inf
    # Newton's method on g(x) = (1 - e^-x) - ratio * x for x = t_int / tau.
    # g is concave and negative at 1 / ratio, beyond the root, where g' < 0:
    # from there the iterates fall monotonically onto the root, so the first
    # one that does not decrease marks the end of the descent.
    x = 1 / ratio
    for _ in range(RETENTION_TAU_MAXITER):
        g = -math.expm1(-x) - ratio * x
        below = x - g / (math.exp(-x) - ratio)
        if not below < x:
            return t_int / x
        x = below
    raise FitConvergenceError(
        f"retention-time search failed to converge after {RETENTION_TAU_MAXITER} steps",
        diagnostics={"tau": t_int / x, "residual": g},
    )


# Makes od_st = 2.2 average down to the 0.94 seen over a 90 us window.
DEFAULT_RETENTION_TAU = calibrate_retention_tau(2.2, 0.94, 90.0)


class SimConfig(_Record, namedtuple(
        "SimConfig", "n_gate_in p_store params sat source_rate t_int retention_tau seed",
        defaults=(0.75, DEFAULT_P_STORE, TransistorParams(), None, 0.69, 30.0,
                  DEFAULT_RETENTION_TAU, 0))):
    """Inputs of one Monte Carlo experiment.

    n_gate_in : mean gate photons per pulse
    p_store : storage probability per gate photon surviving absorption
    params / sat : physical constants; sat=None disables self-blockade
    source_rate : source photons per microsecond
    t_int : detection window, microseconds
    retention_tau : mean fly-away time of a stored excitation, microseconds
    seed : 64-bit unsigned master seed

    A config that violates `models.simulation_violations` (the list the CLI
    checks [simulation] with, which bounds both Poisson means by
    POISSON_LAM_MAX), `models.detected_mean_violations` (the detected mean,
    thinned under self-blockade, which sizes the count table, within MU0_MAX)
    or the seed invariant raises one DomainError naming each.
    """

    __slots__ = ()

    @staticmethod
    def violations(n_gate_in, p_store, params, sat, source_rate, t_int, retention_tau,
                   seed) -> list[str]:
        """Names of the invariants these field values violate."""
        return [*simulation_violations(n_gate_in, p_store, source_rate, t_int, retention_tau),
                *detected_mean_violations(source_rate, t_int, params.eta_det, sat),
                *seed_violations(seed)]

    @property
    def n_source_in(self) -> float:
        return self.source_rate * self.t_int

    def saturation_thinning(self) -> float:
        """Per-photon survival factor that puts k=0 runs on the transfer curve."""
        return saturation_thinning(self.n_source_in, self.sat)


class CountHistogram:
    """Integer-binned detection events over repeated runs.

    ``runs[n]`` is the number of runs that detected n events: a read-only
    int64 row, stored without trailing zeros, so its last index is the
    largest event seen.  ``total`` is the run count.
    """

    __slots__ = ("runs",)

    def __init__(self, runs):
        runs = np.asarray(runs)
        if runs.ndim != 1 or runs.dtype.kind not in "iu" or np.any(runs < 0):
            raise DomainError(f"histogram runs must be a 1-D integer row >= 0, got {runs!r}")
        runs = np.trim_zeros(runs.astype(np.int64), "b")  # astype copies: no caller can write it
        runs.flags.writeable = False
        self.runs = runs

    def __repr__(self):
        return f"CountHistogram(runs={self.runs!r})"

    def __eq__(self, other):
        if not isinstance(other, CountHistogram):
            return NotImplemented
        return np.array_equal(self.runs, other.runs)

    @property
    def total(self) -> int:
        return int(self.runs.sum())

    @property
    def max_event(self) -> int:
        return max(len(self.runs) - 1, 0)

    def bins(self) -> list[tuple[int, int]]:
        """(events, runs) of each nonzero bin, in ascending order of events."""
        events = np.flatnonzero(self.runs)
        return list(zip(events.tolist(), self.runs[events].tolist()))

    def mean(self) -> float:
        """The exact integer event sum over the run count."""
        total = self.total
        if total == 0:
            return 0.0
        return int(self.runs @ np.arange(len(self.runs))) / total

    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two runs.  Summed bin by
        bin in ascending order, as one sequential float sum: a loop, since the
        builtin ``sum`` compensates from Python 3.12."""
        total = self.total
        if total < 2:
            return 0.0
        m = self.mean()
        squares = 0.0
        for k, v in self.bins():
            squares += v * (k - m) ** 2
        return squares / (total - 1)


class EnsembleResult(namedtuple("EnsembleResult", "n_runs joint mean_gate_detected histogram")):
    """Counts of n_runs independent runs: ``joint[k, n]`` runs stored k excitations
    and detected n source photons (read-only; a row per k up to the largest drawn <= cap),
    and ``histogram``, its detected-count marginal.  Compares by identity: a
    tuple of arrays has no truth value to compare by."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def mean_source_detected(self) -> float:
        return self.histogram.mean()

    @property
    def mean_stored(self) -> float:
        return int(self.joint.sum(axis=1) @ np.arange(self.joint.shape[0])) / self.n_runs


def _simulate_block(config: SimConfig, p_sat: float, n: int, rng: np.random.Generator):
    """(k_stored, gate_detected, source_detected) arrays of ``n`` runs."""
    p = config.params
    cap = int(p.cap)
    n_in = rng.poisson(config.n_gate_in, n)
    survivors = rng.binomial(n_in, 1.0 - p.a_ge)
    k = np.minimum(rng.binomial(survivors, config.p_store), cap)
    gate_detected = rng.binomial(survivors - k, p.eta_det)

    t = config.t_int
    # e^{-od_st j} for j = 0..cap active excitations, from math.exp: numpy's
    # SIMD exp differs from the C library's in the last bit on some CPUs
    attenuation = np.array([math.exp(-p.od_st * j) for j in range(cap + 1)])
    if math.isinf(config.retention_tau) or p.od_st == 0:
        window = t * attenuation[k]
    else:
        lifetimes = rng.exponential(config.retention_tau, (n, cap))
        lifetimes[np.arange(cap) >= k[:, None]] = 0.0  # excitations never stored
        edges = np.sort(np.minimum(lifetimes, t), axis=1)
        # between the j-th and (j+1)-th edge, cap - j excitations are still active
        widths = np.diff(edges, axis=1, prepend=0.0, append=t)
        window = (widths * attenuation[::-1]).sum(axis=1)
    detected = rng.poisson(config.source_rate * p_sat * p.eta_det * window)
    return k, gate_detected, detected


def simulate_ensemble(config: SimConfig, n_runs: int) -> EnsembleResult:
    """Run n_runs independent pulse sequences and aggregate their counts.

    Runs are drawn block by block (see the module's reproducibility contract)
    and folded into the count table ``joint``, grown to the largest stored and
    detected numbers drawn, so memory stays bounded as n_runs grows.
    """
    if n_runs < 1:
        raise DomainError(f"n_runs must be >= 1, got {n_runs}")
    p_sat = config.saturation_thinning()
    joint = np.zeros((1, 1), dtype=np.int64)  # [k_stored, detected] -> runs
    gate_sum = 0
    for b, start in enumerate(range(0, n_runs, BLOCK_RUNS)):
        block_rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((config.seed, b)))
        )
        n = min(BLOCK_RUNS, n_runs - start)
        k, gate_detected, detected = _simulate_block(config, p_sat, n, block_rng)
        rows = max(joint.shape[0], int(k.max()) + 1)
        width = max(joint.shape[1], int(detected.max()) + 1)
        if joint.shape != (rows, width):
            joint, old = np.zeros((rows, width), dtype=np.int64), joint
            joint[:old.shape[0], :old.shape[1]] = old
        joint += np.bincount(k * width + detected, minlength=rows * width).reshape(rows, width)
        # summed exactly by 32-bit halves: one int64 sum wraps at large gate means
        high, low = gate_detected >> 32, gate_detected & 0xFFFFFFFF
        gate_sum += (int(high.sum()) << 32) + int(low.sum())

    joint.flags.writeable = False
    return EnsembleResult(n_runs=n_runs, joint=joint, mean_gate_detected=gate_sum / n_runs,
                          histogram=CountHistogram(joint.sum(axis=0)))


def scan_configs(base: SimConfig, gate_values) -> list[SimConfig]:
    """Configs for a gate-photon scan: the zero-gate reference, then each value.

    Config ``i`` gets the seed ``child_seed(base.seed, SCAN_POINT, i)`` so
    points are statistically independent.
    """
    values = [0.0] + [float(v) for v in gate_values]
    return [
        base._replace(n_gate_in=v, seed=child_seed(base.seed, SCAN_POINT, i))
        for i, v in enumerate(values)
    ]


def incoming_scan_config(base: SimConfig) -> SimConfig:
    """Variant of a config that attenuates per *incoming* gate photon.

    Storage losses and the od_st/od_sp distinction are folded away
    (a_ge = 0, p_store = 1, od_st := od_sp), so the measured contrast follows
    the incoming-photon contrast model directly.
    """
    params = base.params._replace(a_ge=0.0, od_st=base.params.od_sp)
    return base._replace(params=params, p_store=1.0)


def _resampled_means(runs: np.ndarray, rng: np.random.Generator, n_boot: int):
    """Means of ``n_boot`` case resamples of a dense count row, one multinomial draw."""
    events = np.flatnonzero(runs)
    total = int(runs.sum())
    resampled = rng.multinomial(total, runs[events] / total, size=n_boot)
    return (resampled @ events) / total


def contrast_scan(
    configs: list[SimConfig],
    n_runs: int,
    n_boot: int = 200,
) -> DataSet:
    """Measure switch contrast against the zero-gate reference for each config.

    The first config with n_gate_in == 0 serves as reference; every other
    config yields one (n_gate_in, contrast, sigma) point, with sigma from a
    case-resampling bootstrap of both histograms (streams derived from the
    reference seed, so the scan is fully deterministic).  Resamples whose
    reference mean is zero are skipped.
    """
    ref_idx = next(
        (i for i, c in enumerate(configs) if c.n_gate_in == 0), None
    )
    if ref_idx is None:
        raise DomainError("contrast scan needs a zero-gate reference config")
    results = [simulate_ensemble(c, n_runs) for c in configs]
    ref = results[ref_idx]
    if ref.mean_source_detected == 0:
        raise UndefinedContrastError("zero-gate reference transmitted nothing")

    xs, ys, sigmas = [], [], []
    for i, (config, res) in enumerate(zip(configs, results)):
        if i == ref_idx:
            continue
        contrast = switch_contrast(res.mean_source_detected, ref.mean_source_detected)
        rng = np.random.Generator(
            np.random.Philox(child_seed(configs[ref_idx].seed, BOOTSTRAP, i))
        )
        m_ref = _resampled_means(ref.histogram.runs, rng, n_boot)
        m_gate = _resampled_means(res.histogram.runs, rng, n_boot)
        kept = m_ref > 0
        boot = 1.0 - m_gate[kept] / m_ref[kept]
        sigma = float(boot.std(ddof=1)) if len(boot) > 1 else 0.0
        xs.append(config.n_gate_in)
        ys.append(contrast)
        sigmas.append(max(sigma, 1e-12))
    return DataSet(x=xs, y=ys, sigma=sigmas)


TransferPoint = namedtuple(
    "TransferPoint", "n_source_in no_gate_out no_gate_sigma with_gate_out with_gate_sigma")
TransferPoint.__doc__ = "One source-input setting of the simulated transfer measurement."


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
        cfg_ref = base._replace(n_gate_in=0.0, source_rate=rate,
                                seed=child_seed(base.seed, TRANSFER_REF, i))
        cfg_gate = base._replace(source_rate=rate, seed=child_seed(base.seed, TRANSFER_GATE, i))
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
