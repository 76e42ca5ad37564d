"""Closed-form models of the photon transistor.

Everything in this module is a pure function of its arguments: switch
contrast, the blockade-capped Poisson contrast models, the optical gain and
the self-blockade saturation transfer function.  All contrasts are
dimensionless reals in (-inf, 1]; percent formatting is left to callers.

The capped Poisson law P(min(k, cap) = j) is computed in one place,
capped_poisson_weights; the contrast models here, fit_od and the detection
mixture are sums over it.  Every closed form takes real numbers and computes
in plain `math`; contrast_curve maps a sequence of means to a list, one mean
at a time.  Each domain check is written so that NaN fails it.

The module imports no numpy, so parsing, validation, every rejected input,
`gain-scan`, `fit-od` and `fit-saturation` run without it; the commands that
draw (simulate, contrast-scan, transfer-scan, detect) load it with their
runners.  `child_seed` hashes with a port of numpy's `SeedSequence`, which
keys the fit bootstrap's Philox stream too.  The package's records are
namedtuples or `__slots__` classes, whose definitions load no `inspect`,
which costs a short command more than the rest of its start; the parameter
records (SimConfig's too) validate in `__new__`, through `_Record`.

The module also holds what the CLI validates against and what more than one
layer derives seeds with: the Poisson-mean, mu0 and cap bounds, the fly-away
bracket, the default storage probability, the invariant lists of the
parameter objects (SimConfig's too), of detect's calibration and mu0, and
`child_seed` with its tags, and `DataSet`, the (x, y, sigma) record that
`contrast_scan` returns and the fitters take.  So a command that evaluates
only closed forms or fits loads no simulation or detection code, and one
that only simulates loads no fitting code.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from collections import namedtuple

from .errors import DomainError, UndefinedContrastError

__all__ = [
    "TransistorParams",
    "SaturationParams",
    "DataSet",
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
    "CAP_MAX",
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

# Largest blockade cap: the engine draws cap lifetimes per fly-away run (an
# 8192 x 100 matrix, 6.6 MB, per block here) and capped_poisson_weights loops
# cap times in Python.
CAP_MAX = 100

# Fly-away times calibrate_retention_tau searches, in units of t_int; an od
# ratio under the lower edge has its root below it (retention_violations).
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
    low, high = _seed_sequence_words((seed, tag, i), 2)
    return low | high << 32


def _seed_sequence_words(entropy, n_words: int) -> list[int]:
    """``numpy.random.SeedSequence(entropy).generate_state(n_words)`` in plain
    Python: n_words uint32 words (a uint64 is two, low word first) from a tuple
    of integers >= 0, each entering the 4-word pool as its uint32 words, low
    word first."""
    mask, hash_const = 2**32 - 1, 0x43B0D7E5
    words = [v >> s & mask for v in entropy for s in range(0, max(v.bit_length(), 1), 32)]

    def hashmix(value, multiplier=0x931E8875):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * multiplier & mask
        value = value * hash_const & mask
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & mask
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src, i_dst in itertools.permutations(range(4), 2):
        pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word, i_dst in itertools.product(words[4:], range(4)):  # entropy past the pool
        pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = 0x8B51F9DD  # the output hash: a second constant and multiplier
    return [hashmix(pool[i % 4], 0x58F38DED) for i in range(n_words)]


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


def cap_violations(name: str, cap) -> list[str]:
    """The blockade-cap invariants ``cap`` violates, each named behind ``name``:
    of TransistorParams, of every function that takes a cap, and of the CLI."""
    return failed_checks([(f"{name} >= 1", cap >= 1), (f"{name} <= {CAP_MAX}", cap <= CAP_MAX),
                          (f"{name} is an integer", cap % 1 == 0)])


def poisson_mean_ok(mean) -> bool:
    """Whether a gate mean, SimConfig's n_gate_in, lies in [0, POISSON_LAM_MAX]."""
    return 0 <= mean <= POISSON_LAM_MAX


def source_mean_ok(source_rate, t_int) -> bool:
    """Whether SimConfig's source mean, source_rate * t_int, is within POISSON_LAM_MAX."""
    return source_rate * t_int <= POISSON_LAM_MAX


def simulation_violations(n_gate_in, p_store, source_rate, t_int, retention_tau) -> list[str]:
    """Violated invariants of montecarlo.SimConfig's simulation values.  Both
    Poisson means the engine draws with, n_gate_in and at most source_rate *
    t_int, stay within POISSON_LAM_MAX."""
    return failed_checks([
        (f"n_gate_in in [0, {_LAM}]", poisson_mean_ok(n_gate_in)),
        ("p_store in [0, 1]", 0 <= p_store <= 1),
        ("source_rate >= 0", source_rate >= 0),
        ("t_int > 0", t_int > 0),
        (f"source_rate * t_int <= {_LAM}", source_mean_ok(source_rate, t_int)),
        ("retention_tau > 0", retention_tau > 0),
    ])


def mu0_in_range(mu0) -> bool:
    """Whether a detection no-gate mean lies in (0, MU0_MAX]; NaN does not."""
    return 0 < mu0 <= MU0_MAX


def mu0_violations(name, values, eta_det, t_int) -> list[str]:
    """Violated invariants of detection no-gate means, named after ``name``:
    each in (0, MU0_MAX], and its source mean, as detection_experiment builds
    it, within POISSON_LAM_MAX (unchecked where eta_det or t_int is not > 0)."""
    scale = eta_det * t_int
    return failed_checks([
        (f"{name} in (0, {MU0_MAX:g}]", all(map(mu0_in_range, values))),
        (f"{name} / transistor.eta_det <= {_LAM}",
         not (eta_det > 0 and t_int > 0)
         or all(scale > 0 and source_mean_ok(v / scale, t_int) for v in values)),
    ])


def retention_violations(od_st_instant, od_st_model) -> list[str]:
    """Violated invariants of calibrate_retention_tau's ods: positive, in
    order, and at a ratio of at least the bracket's lower edge, whatever t_int."""
    lo = RETENTION_TAU_BRACKET[0]
    return failed_checks([
        ("od_st_model > 0", od_st_model > 0),
        ("od_st_instant >= od_st_model", od_st_instant >= od_st_model),
        (f"od_st_model >= {lo:g} * od_st_instant",
         od_st_instant <= 0 or od_st_model / od_st_instant >= lo),
    ])


def detected_mean_violations(source_rate, t_int, eta_det, sat=None) -> list[str]:
    """The detected-count mean the engine draws with, which sizes its dense
    count table, within MU0_MAX: source_rate * t_int * eta_det, thinned by
    saturation_thinning under the self-blockade ``sat``.  It is compared in the
    form the detection analysis builds its configs in, source_rate = mu0 /
    (eta_det * t_int), so that no mu0 <= MU0_MAX fails by rounding.  A
    non-positive eta_det or t_int, which other invariants reject, does not
    fail it.  The values come unchecked, so a negative or NaN source_rate *
    t_int, which simulation_violations names, is left unthinned: the list is
    returned, never raised."""
    scale = eta_det * t_int
    n_in = source_rate * t_int
    rate = source_rate * (saturation_thinning(n_in, sat) if n_in >= 0 else 1.0)
    thinned = "" if sat is None else " * saturation_thinning"
    return failed_checks([(f"source_rate * t_int * eta_det{thinned} <= {MU0_MAX:g}",
                           scale <= 0 or rate <= MU0_MAX / scale)])


class _Record:
    """A namedtuple that raises one DomainError naming every violated invariant
    its ``violations`` lists when built, also by ``_make`` and ``_replace``
    (namedtuple's skip ``__new__``)."""

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
        return [*failed_checks([("od_sp >= 0", od_sp >= 0), ("od_st >= 0", od_st >= 0)]),
                *cap_violations("cap", cap),
                *failed_checks([("a_ge in [0, 1)", 0 <= a_ge < 1),
                                ("eta_det in (0, 1]", 0 < eta_det <= 1)])]

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


class DataSet:
    """(x, y, sigma) observations with strictly positive uncertainties, taken
    as arrays or sequences of reals and kept as tuples of floats: what
    `montecarlo.contrast_scan` measures and the fitters fit."""

    __slots__ = ("x", "y", "sigma")

    def __init__(self, x, y, sigma):
        self.x, self.y, self.sigma = (tuple(map(float, v)) for v in (x, y, sigma))
        n = len(self.x)
        if len(self.y) != n or len(self.sigma) != n:
            raise DomainError("x, y, sigma must have equal length")
        if n < 2:
            raise DomainError(f"need at least 2 points, got {n}")
        for row, point in enumerate(self.points, 1):
            if not all(map(math.isfinite, point)):
                raise DomainError("non-finite value in data row {}: x={}, y={}, sigma={}"
                                  .format(row, *point))
        if any(v < 0 for v in self.x):
            raise DomainError("x values must be >= 0")
        if any(v <= 0 for v in self.sigma):
            raise DomainError("sigma values must be > 0")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.x, self.y, self.sigma))

    @classmethod
    def from_points(cls, points) -> "DataSet":
        return cls(*(list(zip(*points)) or ((), (), ())))


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
    if not (with_gate >= 0 and no_gate >= 0):  # NaN fails too
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
    if not n_gate >= 0:  # NaN fails too
        raise DomainError(f"mean photon number must be >= 0, got {n_gate}")
    return -math.expm1(-n_gate)


def _checked_cap(cap: int) -> int:
    if cap_violations("cap", cap):
        raise DomainError(f"cap must be an integer in [1, {CAP_MAX}], got {cap}")
    return int(cap)


def _check_od(od) -> None:
    if not od >= 0:  # NaN fails too
        raise DomainError(f"optical depth must be >= 0, got {od}")


def capped_poisson_weights(mean: float, cap: int) -> tuple[float, ...]:
    """P(min(k, cap) = j) for k ~ Poisson(mean), j = 0..cap, exactly.

    The result is a tuple of the cap+1 terms j = 0..cap.  Photon-number states
    k >= cap are all blockaded alike, so the cap leading Poisson terms come
    from the pmf recurrence and the last is the closed-form tail mass 1 - sum
    of the others.
    """
    if not 0 <= mean < math.inf:  # NaN fails too
        raise DomainError(f"mean photon number must be finite and >= 0, got {mean}")
    cap = _checked_cap(cap)
    mean = float(mean)
    weights = []
    pmf = math.exp(-mean)  # k = 0 term, underflowing harmlessly for huge means
    cum = 0.0
    for k in range(cap):
        weights.append(pmf)
        cum += pmf
        pmf *= mean / (k + 1)
    weights.append(max(1.0 - cum, 0.0))
    return tuple(weights)


def contrast_from_weights(weights, od: float) -> float:
    """Contrast 1 - E[exp(-j * od)] over the capped-Poisson ``weights`` terms.

    Lets a caller that evaluates many optical depths at a fixed mean compute
    :func:`capped_poisson_weights` once.  The sum starts from the j = 0 weight
    itself, so an infinite ``od`` leaves exactly that weight.
    """
    _check_od(od)
    first, *rest = weights
    attenuation = first
    for j, weight in enumerate(rest, 1):
        attenuation += weight * math.exp(-j * od)
    return 1.0 - attenuation


def contrast_curve(means, od: float, cap: int = 3):
    """Expected contrast at a Poissonian mean photon number, or a list of them
    over a sequence of means, each by the same scalar code.

    Averages the Fock-state attenuation exp(-min(k, cap) * od) over the
    photon-number distribution; monotone increasing in both the mean and
    ``od`` and bounded by ``coherent_limit``.
    """
    if isinstance(means, numbers.Real):
        return contrast_from_weights(capped_poisson_weights(means, cap), od)
    return [contrast_from_weights(capped_poisson_weights(m, cap), od) for m in means]


def expected_contrast_incoming(n_gate: float, od: float, cap: int = 3) -> float:
    """Expected contrast for a coherent gate pulse of mean ``n_gate`` photons.

    ``od`` is the optical depth caused by one incoming gate photon; see
    :func:`contrast_curve`.
    """
    return contrast_from_weights(capped_poisson_weights(n_gate, cap), od)


def expected_contrast_stored(n_stored: float, od: float, cap: int = 3) -> float:
    """Expected contrast given a mean of ``n_stored`` stored excitations.

    Identical structure to :func:`expected_contrast_incoming` with ``od`` the
    optical depth per stored excitation.
    """
    return expected_contrast_incoming(n_stored, od, cap)


def fock_contrast(k: int, od: float, cap: int = 3) -> float:
    """Contrast caused by exactly ``k`` gate photons: 1 - exp(-min(k, cap) * od),
    +0.0 for k = 0 at every od."""
    if not (k >= 0 and k % 1 == 0):  # NaN and inf fail too
        raise DomainError(f"photon number must be an integer >= 0, got {k}")
    _check_od(od)
    blockaded = min(int(k), _checked_cap(cap))
    return -math.expm1(-blockaded * od) if blockaded else 0.0


def transfer(n_source_in: float, sat: SaturationParams) -> float:
    """Transmitted source photons a * (1 - exp(-n_in / b)) under self-blockade."""
    if not n_source_in >= 0:  # NaN fails too
        raise DomainError(f"mean photon number must be >= 0, got {n_source_in}")
    return sat.a * -math.expm1(-n_source_in / sat.b)


def saturation_thinning(n_source_in: float, sat: SaturationParams | None) -> float:
    """Per-photon survival factor min(transfer(n_in) / n_in, 1) under the
    self-blockade ``sat``: source photons thinned by it put the runs without
    stored excitations on the transfer curve.  1 without self-blockade (sat
    None) or without source photons."""
    if not n_source_in >= 0:  # NaN fails too
        raise DomainError(f"mean photon number must be >= 0, got {n_source_in}")
    if sat is None or n_source_in == 0:
        return 1.0
    return min(transfer(n_source_in, sat) / n_source_in, 1.0)


def gain(no_gate_out: float, with_gate_out: float) -> float:
    """Optical gain: source photons removed by the gate, no_gate - with_gate."""
    if not (no_gate_out >= 0 and with_gate_out >= 0):  # NaN fails too
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

