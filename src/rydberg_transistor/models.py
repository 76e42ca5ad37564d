"""Closed-form models of the photon transistor.

Everything in this module is a pure function of its arguments: switch
contrast, the blockade-capped Poisson contrast models, the optical gain and
the self-blockade saturation transfer function.  All contrasts are
dimensionless reals in (-inf, 1]; percent formatting is left to callers.

The capped Poisson law P(min(k, cap) = j) is computed in one place,
capped_poisson_weights; the contrast models here and the detection mixture
are sums over it.  It and contrast_from_weights evaluate a real number in
plain `math` and fit_od's arrays of means by the same lines of code.

The module imports no numpy, so parsing, validation, every rejected input and
`gain-scan` run without it.  The commands that draw or fit (simulate,
contrast-scan, transfer-scan, detect, fit-od, fit-saturation) load numpy with
their runners; `child_seed` imports it when it is called.  Nor does it import
`dataclasses`, whose `inspect` costs a short command more than the rest of
its start: the parameter records are namedtuples that validate in `__new__`.
The numpy layers keep their dataclasses, since numpy already imports
`inspect` and `dataclasses` then costs them about 1 ms.

The module also holds what the CLI validates against and what more than one
layer derives seeds with: the Poisson-mean and mu0 bounds, the fly-away
bracket, the default storage probability, the invariant lists of the
parameter objects (SimConfig's too) and `child_seed` with its tags.  So a
command that evaluates only closed forms or fits loads no simulation or
detection code.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections import namedtuple

from .errors import DomainError, UndefinedContrastError

__all__ = [
    "TransistorParams",
    "SaturationParams",
    "switch_contrast",
    "coherent_limit",
    "expected_contrast_incoming",
    "expected_contrast_stored",
    "capped_poisson_weights",
    "contrast_from_weights",
    "contrast_curve",
    "fock_contrast",
    "transfer",
    "gain",
    "simulation_violations",
    "detected_mean_violations",
    "saturation_thinning",
    "gain_scan_rows",
    "child_seed",
    "POISSON_LAM_MAX",
    "MU0_MAX",
    "RETENTION_TAU_BRACKET",
    "DEFAULT_P_STORE",
]

# numpy's largest Poisson mean: Generator.poisson raises "lam value too large"
# above it.  Every mean the engine draws with must stay at or below it.  numpy
# computes it as int64 max - 10 sqrt(int64 max) in doubles, as here.
POISSON_LAM_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)
_LAM = f"{POISSON_LAM_MAX:g}"  # as invariant names spell it

# Largest mean detected count the package tabulates densely: the detection
# analysis' mu0, whose threshold and decomposition tables span about
# mu0 + 40 sqrt(mu0) counts, and the detected mean of a simulation, which sets
# the width of simulate_ensemble's (stored, detected) count table.
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
    Every caller draws with numpy, so it is imported here, not with the module.
    """
    import numpy as np

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


def detected_mean_violations(source_rate, t_int, eta_det, sat=None) -> list[str]:
    """The detected-count mean the engine draws with, which sizes its dense
    count table, within MU0_MAX: source_rate * t_int * eta_det, thinned by
    saturation_thinning under the self-blockade ``sat``.  It is compared in the
    form the detection analysis builds its configs in, source_rate = mu0 /
    (eta_det * t_int), so that no mu0 <= MU0_MAX fails by rounding.  A
    non-positive eta_det or t_int, which other invariants reject, does not
    fail it."""
    scale = eta_det * t_int
    rate = source_rate * saturation_thinning(source_rate * t_int, sat)
    thinned = "" if sat is None else " * saturation_thinning"
    return failed_checks([(f"source_rate * t_int * eta_det{thinned} <= {MU0_MAX:g}",
                           scale <= 0 or rate <= MU0_MAX / scale)])


class _Record:
    """A namedtuple that raises one DomainError naming every violated invariant
    when built, also by ``_make`` and ``_replace`` (namedtuple's skip ``__new__``)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        raise_violations(self, self.violations(*self))
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TransistorParams(_Record, namedtuple("TransistorParams", "od_sp od_st cap a_ge eta_det",
                                           defaults=(0.75, 2.2, 3, 0.15, 0.31))):
    """Physical constants of one transistor realization.

    od_sp : optical depth of the source beam per incoming gate photon
    od_st : optical depth of the source beam per stored gate excitation
    cap : blockade capacity, maximum number of simultaneously stored excitations
    a_ge : fraction of gate photons absorbed by the intermediate state, in [0, 1)
    eta_det : overall photon detection efficiency, in (0, 1]
    """

    __slots__ = ()

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

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Different conditionings, so not an error, but almost always a mix-up.
        if self.od_sp > self.od_st:
            warnings.warn(
                f"od_sp={self.od_sp} exceeds od_st={self.od_st}; per-incoming-photon "
                "attenuation is normally weaker than per-stored-excitation attenuation",
                stacklevel=2,  # the constructing line
            )
        return self


class SaturationParams(_Record, namedtuple("SaturationParams", "a b", defaults=(46.0, 70.0))):
    """Self-blockade transfer curve N_out = a * (1 - exp(-N_in / b)).

    a : maximum photon number transmitted per detection window
    b : input photon number at which the self-nonlinear regime is reached
    """

    __slots__ = ()

    @staticmethod
    def violations(a, b) -> list[str]:
        """Names of the invariants these field values violate."""
        return failed_checks([("a >= 0", a >= 0), ("b > 0", b > 0)])


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


def _real_or_array(values):
    """A real number as a float, anything else as a float ndarray: the two
    forms the closed forms below take.  Only an array imports numpy."""
    if isinstance(values, numbers.Real):
        return float(values)
    import numpy as np

    return np.asarray(values, dtype=float)


def _any_negative(values) -> bool:
    return values < 0 if isinstance(values, numbers.Real) else bool((values < 0).any())


def _check_od(od) -> None:
    if _any_negative(od):
        raise DomainError(f"optical depth must be >= 0, got {od}")


def _math_exp(values):
    """exp by math.exp, per element for an array, not by np.exp: numpy's SIMD
    exp differs from the C library's in the last bit for a few percent of
    inputs, which would move the closed-form outputs."""
    if isinstance(values, numbers.Real):
        return math.exp(values)
    import numpy as np

    flat = np.fromiter(map(math.exp, values.ravel().tolist()), float, values.size)
    return flat.reshape(values.shape)


def capped_poisson_weights(means, cap: int) -> tuple:
    """P(min(k, cap) = j) for k ~ Poisson(means), j = 0..cap, exactly.

    The result is a tuple of the cap+1 terms j = 0..cap, each a float for a
    real ``means`` and an array of its shape otherwise.  Photon-number states
    k >= cap are all blockaded alike, so the cap leading Poisson terms come
    from the pmf recurrence and the last is the closed-form tail mass 1 - sum
    of the others.
    """
    means = _real_or_array(means)
    if _any_negative(means):
        raise DomainError("mean photon numbers must be >= 0")
    cap = _checked_cap(cap)
    weights = []
    pmf = _math_exp(-means)  # k = 0 term, underflowing harmlessly for huge means
    cum = 0.0
    for k in range(cap):
        weights.append(pmf)
        cum = cum + pmf
        pmf = pmf * (means / (k + 1))
    tail = 1.0 - cum
    weights.append(max(tail, 0.0) if isinstance(tail, float) else tail.clip(0.0))
    return tuple(weights)


def contrast_from_weights(weights, od):
    """Contrast 1 - E[exp(-j * od)] over the capped-Poisson ``weights`` terms.

    Lets a caller that evaluates many optical depths at fixed means compute
    :func:`capped_poisson_weights` once.  ``od`` is a float or an array that
    broadcasts against the weight terms.
    """
    od = _real_or_array(od)
    _check_od(od)
    # summed left to right rather than by a BLAS dot, whose order depends on
    # the build, so the closed-form outputs keep their last digits
    attenuation = 0.0
    for j, weight in enumerate(weights):
        attenuation = attenuation + weight * _math_exp(-j * od)
    return 1.0 - attenuation


def contrast_curve(means, od: float, cap: int = 3):
    """Expected contrast at a Poissonian mean photon number, or over an array
    of them.

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


def saturation_thinning(n_source_in: float, sat: SaturationParams | None) -> float:
    """Per-photon survival factor min(transfer(n_in) / n_in, 1) under the
    self-blockade ``sat``: source photons thinned by it put the runs without
    stored excitations on the transfer curve.  1 without self-blockade (sat
    None) or without source photons."""
    if sat is None or not n_source_in > 0:
        return 1.0
    return min(transfer(n_source_in, sat) / n_source_in, 1.0)


def gain(no_gate_out: float, with_gate_out: float) -> float:
    """Optical gain: source photons removed by the gate, no_gate - with_gate."""
    if no_gate_out < 0 or with_gate_out < 0:
        raise DomainError(
            f"photon numbers must be >= 0, got no={no_gate_out} with={with_gate_out}"
        )
    return no_gate_out - with_gate_out


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

