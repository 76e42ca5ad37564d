"""Closed-form models of the photon transistor.

Everything in this module is a pure function of its arguments: switch
contrast, storage bookkeeping, the blockade-capped Poisson contrast models,
the optical gain, the self-blockade saturation transfer function and the
hard-rod capacity heuristic.  All contrasts are dimensionless reals in
(-inf, 1]; percent formatting is left to callers.

The capped Poisson law P(min(k, cap) = j) is computed in one place,
capped_poisson_weights; the contrast models here and the detection mixture
are sums over it.

The module also holds what the CLI validates against and what more than one
layer derives seeds with: the Poisson-mean and mu0 bounds, the fly-away
bracket, the default storage probability, the invariant lists of the
parameter objects (SimConfig's too) and `child_seed` with its tags.  So a
command that evaluates only closed forms or fits loads no simulation or
detection code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentMeasurementError, UndefinedContrastError

__all__ = [
    "TransistorParams",
    "SaturationParams",
    "PhotonCounts",
    "CapacityEstimate",
    "switch_contrast",
    "stored_mean",
    "coherent_limit",
    "expected_contrast_incoming",
    "expected_contrast_stored",
    "capped_poisson_weights",
    "contrast_from_weights",
    "contrast_curve",
    "fock_contrast",
    "transfer",
    "gain",
    "predicted_gain",
    "predicted_transfer_with_gate",
    "hard_rod_capacity",
    "blockade_capacity",
    "simulation_violations",
    "gain_scan_rows",
    "child_seed",
    "POISSON_LAM_MAX",
    "MU0_MAX",
    "RETENTION_TAU_BRACKET",
    "DEFAULT_P_STORE",
]

STORED_MEAN_TOL = 1e-9

# numpy's largest Poisson mean: Generator.poisson raises "lam value too large"
# above it.  Every mean the engine draws with must stay at or below it.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))
_LAM = f"{POISSON_LAM_MAX:g}"  # as invariant names spell it

# Largest no-gate mean the detection analysis accepts.  Its dense threshold and
# decomposition tables span about mu0 + 40 sqrt(mu0) counts.
MU0_MAX = 1e6

# Fly-away times montecarlo.calibrate_retention_tau searches, in units of
# t_int.  A ratio od_effective / od_instant under the lower edge has its root
# below it.
RETENTION_TAU_BRACKET = (1e-9, 1e9)

# Storage probability that puts the mean stored number at 0.61 for a gate
# pulse of 0.75 photons after 15% intermediate-state absorption.
DEFAULT_P_STORE = 0.61 / (0.85 * 0.75)

# child_seed tags, one per kind of derived stream, so no two kinds share seeds.
# New tags go at the end, so existing tags keep their values and streams.
(SCAN_POINT, BOOTSTRAP, TRANSFER_REF, TRANSFER_GATE, DETECTION_REF, SWEEP_POINT,
 POISSONNESS_NULL, FIT_BOOTSTRAP) = range(8)


def child_seed(seed: int, tag: int, i: int) -> int:
    """Seed of stream ``i`` of kind ``tag`` derived from ``seed``.

    The first 64-bit word of the state of ``SeedSequence((seed, tag, i))``.
    Unlike ``seed + i``, it gives master seeds s and s + 1 disjoint streams.
    """
    state = np.random.SeedSequence((seed, tag, i)).generate_state(1, np.uint64)
    return int(state[0])


def failed_checks(checks) -> list[str]:
    """Names of the failed (name, ok) checks.  The invariant lists of the
    parameter objects are such checks, written so that NaN fails each one."""
    return [name for name, ok in checks if not ok]


def raise_violations(obj, names: list[str]) -> None:
    """Raise one DomainError naming every violated invariant of ``obj``, if any."""
    if names:
        raise DomainError(f"{type(obj).__name__} violates " + "; ".join(names) + f": {obj!r}")


def seed_violations(seed) -> list[str]:
    """The master-seed invariant of SimConfig and the CLI."""
    ok = 0 <= seed < 2**64 and seed % 1 == 0
    return failed_checks([("seed is an unsigned 64-bit integer", ok)])


def simulation_violations(n_gate_in, p_store, source_rate, t_int, retention_tau) -> list[str]:
    """Violated invariants of montecarlo.SimConfig's simulation values.  Both
    Poisson means the engine draws with, n_gate_in and at most source_rate *
    t_int, stay within POISSON_LAM_MAX."""
    return failed_checks([
        (f"n_gate_in in [0, {_LAM}]", 0 <= n_gate_in <= POISSON_LAM_MAX),
        ("p_store in [0, 1]", 0 <= p_store <= 1),
        ("source_rate >= 0", source_rate >= 0),
        ("t_int > 0", t_int > 0),
        (f"source_rate * t_int <= {_LAM}", source_rate * t_int <= POISSON_LAM_MAX),
        ("retention_tau > 0", retention_tau > 0),
    ])


@dataclass(frozen=True)
class TransistorParams:
    """Physical constants of one transistor realization.

    od_sp : optical depth of the source beam per incoming gate photon
    od_st : optical depth of the source beam per stored gate excitation
    cap : blockade capacity, maximum number of simultaneously stored excitations
    a_ge : fraction of gate photons absorbed by the intermediate state, in [0, 1)
    eta_det : overall photon detection efficiency, in (0, 1]
    """

    od_sp: float = 0.75
    od_st: float = 2.2
    cap: int = 3
    a_ge: float = 0.15
    eta_det: float = 0.31

    @staticmethod
    def violations(od_sp, od_st, cap, a_ge, eta_det) -> list[str]:
        """Names of the invariants these field values violate."""
        return failed_checks([
            ("od_sp >= 0", od_sp >= 0),
            ("od_st >= 0", od_st >= 0),
            ("cap >= 1", cap >= 1),
            ("cap is an integer", cap % 1 == 0),
            ("a_ge in [0, 1)", 0 <= a_ge < 1),
            ("eta_det in (0, 1]", 0 < eta_det <= 1),
        ])

    def __post_init__(self):
        raise_violations(self, self.violations(**vars(self)))
        # Different conditionings, so not an error, but almost always a mix-up.
        if self.od_sp > self.od_st:
            warnings.warn(
                f"od_sp={self.od_sp} exceeds od_st={self.od_st}; per-incoming-photon "
                "attenuation is normally weaker than per-stored-excitation attenuation",
                stacklevel=3,  # the constructing line, past the generated __init__
            )


@dataclass(frozen=True)
class SaturationParams:
    """Self-blockade transfer curve N_out = a * (1 - exp(-N_in / b)).

    a : maximum photon number transmitted per detection window
    b : input photon number at which the self-nonlinear regime is reached
    """

    a: float = 46.0
    b: float = 70.0

    @staticmethod
    def violations(a, b) -> list[str]:
        """Names of the invariants these field values violate."""
        return failed_checks([("a >= 0", a >= 0), ("b > 0", b > 0)])

    def __post_init__(self):
        raise_violations(self, self.violations(**vars(self)))


@dataclass(frozen=True)
class PhotonCounts:
    """Mean photon numbers entering and leaving the medium for one beam.

    mean_out > mean_in is physically impossible for a passive medium and is
    rejected unless ``allow_excess`` marks it as a known measurement artifact.
    """

    mean_in: float
    mean_out: float
    allow_excess: bool = False

    def __post_init__(self):
        if self.mean_in < 0 or self.mean_out < 0:
            raise DomainError(
                f"photon numbers must be >= 0, got in={self.mean_in} out={self.mean_out}"
            )
        if self.mean_out > self.mean_in and not self.allow_excess:
            raise InconsistentMeasurementError(
                f"mean_out={self.mean_out} exceeds mean_in={self.mean_in}; "
                "pass allow_excess=True to keep it as a measurement artifact"
            )

    def stored_mean(self, a_ge: float) -> float:
        """Stored excitations estimated from this beam's in/out balance."""
        return stored_mean(self.mean_in, self.mean_out, a_ge)


def switch_contrast(with_gate: float, no_gate: float) -> float:
    """Switch contrast C = 1 - with_gate / no_gate.

    Parameters
    ----------
    with_gate : mean transmitted source photons when the gate was applied.
    no_gate : mean transmitted source photons without gate; must be > 0.

    Returns
    -------
    Contrast in (-inf, 1]; 0 iff the two means are equal, 1 at full extinction.
    """
    if with_gate < 0 or no_gate < 0:
        raise DomainError(
            f"photon numbers must be >= 0, got with={with_gate} no={no_gate}"
        )
    if no_gate == 0:
        raise UndefinedContrastError("no-gate transmission is zero; contrast undefined")
    return 1.0 - with_gate / no_gate


def stored_mean(n_in: float, n_out: float, a_ge: float) -> float:
    """Mean number of stored gate excitations, (1 - a_ge) * n_in - n_out.

    Small negative results (within 1e-9) are clamped to zero as measurement
    noise; anything more negative is inconsistent and raises.
    """
    if n_in < 0 or n_out < 0:
        raise DomainError(f"photon numbers must be >= 0, got in={n_in} out={n_out}")
    if not 0 <= a_ge < 1:
        raise DomainError(f"a_ge must be in [0, 1), got {a_ge}")
    value = (1.0 - a_ge) * n_in - n_out
    if value < -STORED_MEAN_TOL:
        raise InconsistentMeasurementError(
            f"stored mean {value} < 0: transmitted {n_out} exceeds surviving input "
            f"{(1.0 - a_ge) * n_in}"
        )
    return max(value, 0.0)


def coherent_limit(n_gate: float) -> float:
    """Upper bound 1 - exp(-n_gate) on contrast from a coherent gate pulse.

    A perfect switch still transmits fully whenever the Poissonian pulse
    contains zero photons, which happens with probability exp(-n_gate).
    """
    if n_gate < 0:
        raise DomainError(f"mean photon number must be >= 0, got {n_gate}")
    return -math.expm1(-n_gate)


def _checked_cap(cap: int) -> int:
    if int(cap) != cap or cap < 1:
        raise DomainError(f"cap must be an integer >= 1, got {cap}")
    return int(cap)


def _check_od(od) -> None:
    if np.any(od < 0):
        raise DomainError(f"optical depth must be >= 0, got {od}")


def _math_exp(values) -> np.ndarray:
    """exp per element by math.exp, not np.exp: numpy's SIMD exp differs from
    the C library's in the last bit for a few percent of inputs, which would
    move the closed-form outputs."""
    values = np.asarray(values, dtype=float)
    flat = np.fromiter(map(math.exp, values.ravel().tolist()), float, values.size)
    return flat.reshape(values.shape)


def capped_poisson_weights(means, cap: int) -> np.ndarray:
    """P(min(k, cap) = j) for k ~ Poisson(means), j = 0..cap, exactly.

    The result has the shape of ``means`` plus a last axis of length cap+1.
    Photon-number states k >= cap are all blockaded alike, so the cap leading
    Poisson terms come from the pmf recurrence and the last entry is the
    closed-form tail mass 1 - sum of the others.
    """
    means = np.asarray(means, dtype=float)
    if np.any(means < 0):
        raise DomainError("mean photon numbers must be >= 0")
    cap = _checked_cap(cap)
    weights = np.empty(means.shape + (cap + 1,))
    pmf = _math_exp(-means)  # k = 0 term, underflowing harmlessly for huge means
    cum = np.zeros_like(means)
    for k in range(cap):
        weights[..., k] = pmf
        cum = cum + pmf
        pmf = pmf * (means / (k + 1))
    weights[..., cap] = np.clip(1.0 - cum, 0.0, None)
    return weights


def contrast_from_weights(weights, od) -> np.ndarray:
    """Contrast 1 - E[exp(-j * od)] over capped-Poisson ``weights`` on the last axis.

    Lets a caller that evaluates many optical depths at fixed means compute
    :func:`capped_poisson_weights` once.  ``od`` is a float or an array that
    broadcasts against the leading axes of ``weights``.
    """
    od = np.asarray(od, dtype=float)
    _check_od(od)
    weights = np.asarray(weights, dtype=float)
    # summed left to right rather than by a BLAS dot, whose order depends on
    # the build, so the closed-form outputs keep their last digits
    attenuation = 0.0
    for j in range(weights.shape[-1]):
        attenuation = attenuation + weights[..., j] * _math_exp(-j * od)
    return 1.0 - attenuation


def contrast_curve(means, od: float, cap: int = 3) -> np.ndarray:
    """Expected contrast over an array of Poissonian mean photon numbers.

    Averages the Fock-state attenuation exp(-min(k, cap) * od) over the
    photon-number distribution; monotone increasing in both the mean and
    ``od`` and bounded by ``coherent_limit``.
    """
    return contrast_from_weights(capped_poisson_weights(means, cap), od)


def expected_contrast_incoming(n_gate: float, od: float, cap: int = 3) -> float:
    """Expected contrast for a coherent gate pulse of mean ``n_gate`` photons.

    ``od`` is the optical depth caused by one incoming gate photon; see
    :func:`contrast_curve`.
    """
    return float(contrast_curve(n_gate, od, cap))


def expected_contrast_stored(n_stored: float, od: float, cap: int = 3) -> float:
    """Expected contrast given a mean of ``n_stored`` stored excitations.

    Identical structure to :func:`expected_contrast_incoming` with ``od`` the
    optical depth per stored excitation.
    """
    return expected_contrast_incoming(n_stored, od, cap)


def fock_contrast(k: int, od: float, cap: int = 3) -> float:
    """Contrast caused by exactly ``k`` gate photons: 1 - exp(-min(k, cap) * od)."""
    if int(k) != k or k < 0:
        raise DomainError(f"photon number must be an integer >= 0, got {k}")
    _check_od(od)
    return -math.expm1(-min(int(k), _checked_cap(cap)) * od)


def transfer(n_source_in: float, sat: SaturationParams) -> float:
    """Transmitted source photons a * (1 - exp(-n_in / b)) under self-blockade."""
    if n_source_in < 0:
        raise DomainError(f"mean photon number must be >= 0, got {n_source_in}")
    return sat.a * -math.expm1(-n_source_in / sat.b)


def gain(no_gate_out: float, with_gate_out: float) -> float:
    """Optical gain: source photons removed by the gate, no_gate - with_gate."""
    if no_gate_out < 0 or with_gate_out < 0:
        raise DomainError(
            f"photon numbers must be >= 0, got no={no_gate_out} with={with_gate_out}"
        )
    return no_gate_out - with_gate_out


def _mode_contrast(
    n_gate: float, mode: str, params: TransistorParams, deterministic: bool
) -> float:
    if mode not in ("incoming", "stored"):
        raise DomainError(f"mode must be 'incoming' or 'stored', got {mode!r}")
    od = params.od_sp if mode == "incoming" else params.od_st
    if deterministic:
        return fock_contrast(int(round(n_gate)), od, params.cap)
    if mode == "incoming":
        return expected_contrast_incoming(n_gate, od, params.cap)
    return expected_contrast_stored(n_gate, od, params.cap)


def predicted_gain(
    n_gate: float,
    mode: str,
    params: TransistorParams,
    sat: SaturationParams,
    n_source_in: float,
    deterministic: bool = False,
) -> float:
    """Predicted gain C * transfer(n_source_in) for a given gate drive.

    ``mode`` selects the contrast model: ``"incoming"`` uses od_sp against the
    mean incoming gate photon number, ``"stored"`` uses od_st against the mean
    number of stored excitations.  ``deterministic`` treats n_gate as an exact
    photon/excitation number instead of a Poissonian mean.  The with-gate
    transfer curve is (1 - C) * transfer, so the gain saturates at C * a for
    large source input.
    """
    c = _mode_contrast(n_gate, mode, params, deterministic)
    return c * transfer(n_source_in, sat)


def predicted_transfer_with_gate(
    n_gate: float,
    mode: str,
    params: TransistorParams,
    sat: SaturationParams,
    n_source_in: float,
    deterministic: bool = False,
) -> float:
    """With-gate transfer curve (1 - C) * transfer(n_source_in)."""
    c = _mode_contrast(n_gate, mode, params, deterministic)
    return (1.0 - c) * transfer(n_source_in, sat)


def gain_scan_rows(
    params: TransistorParams,
    sat: SaturationParams,
    n_gate: float,
    n_source_values,
) -> list[dict[str, float]]:
    """Closed-form gain/transfer table over source input photon numbers.

    Each row carries the no-gate transfer, the with-gate transfer and gain
    for a coherent gate pulse of mean ``n_gate`` photons, and the predicted
    gain for a single-photon Fock gate and a single stored excitation.
    """
    rows = []
    for n_src in n_source_values:
        base = transfer(n_src, sat)
        c_coh = expected_contrast_incoming(n_gate, params.od_sp, params.cap)
        rows.append(
            {
                "n_source_in": float(n_src),
                "no_gate_out": base,
                "with_gate_out": (1.0 - c_coh) * base,
                "gain_coherent": c_coh * base,
                "gain_single_photon": fock_contrast(1, params.od_sp, params.cap) * base,
                "gain_single_stored": fock_contrast(1, params.od_st, params.cap) * base,
            }
        )
    return rows


@dataclass(frozen=True)
class CapacityEstimate:
    """Hard-rod capacity estimate next to the configured blockade cap.

    ``hard_rod`` is the raw geometric estimate; ``configured`` is the cap the
    rest of the artifact actually uses.  ``adopted`` clamps the estimate to
    the configured value, which stays authoritative unless overridden.
    """

    hard_rod: int
    configured: int

    @property
    def adopted(self) -> int:
        return min(self.hard_rod, self.configured)


def hard_rod_capacity(length: float, radius: float) -> int:
    """Maximum excitations along a segment: floor(length / radius) + 1.

    Centers of mutually blockading excitations must sit at least one blockade
    radius apart, so a segment of the given length holds at most this many.
    """
    if length <= 0 or radius <= 0:
        raise DomainError(f"lengths must be > 0, got length={length} radius={radius}")
    return int(math.floor(length / radius)) + 1


def blockade_capacity(
    cloud_length_sigma: float,
    blockade_radius: float,
    configured_cap: int = 3,
) -> CapacityEstimate:
    """Heuristic blockade capacity of a Gaussian cloud of axial size sigma.

    Uses the +-2 sigma extent (4 * sigma) as the effective hard-rod segment.
    This is a documented heuristic only; nothing else in the package consumes
    it implicitly, and the configured cap (default 3) remains authoritative.
    """
    if cloud_length_sigma <= 0 or blockade_radius <= 0:
        raise DomainError(
            "lengths must be > 0, got "
            f"sigma={cloud_length_sigma} radius={blockade_radius}"
        )
    configured = _checked_cap(configured_cap)
    raw = hard_rod_capacity(4.0 * cloud_length_sigma, blockade_radius)
    return CapacityEstimate(hard_rod=raw, configured=configured)
