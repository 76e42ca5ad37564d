"""Single-shot detection analysis on photon-count histograms.

A no-gate run produces Poissonian counts; runs with k stored excitations are
Poissonian with the mean attenuated by exp(-k * od).  The tools here build
that mixture, decompose an observed histogram into gated/ungated parts, pick
the count threshold that discriminates "excitation present" with the highest
fidelity, and test a histogram for Poissonness via its index of dispersion.
Every Poisson pmf, cdf, tail and quantile, and the chi-square tail, comes
from one log-space term, ``exp(a log x - lgamma(a + 1) - x)``, evaluated
with the standard library's ``math``, each pmf only on the window of counts
where its terms can be nonzero; the module needs no scipy.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, InsufficientDataError
from .models import MU0_MAX, capped_poisson_weights, mu0_in_range
# Before numpy: where the source is compiled on import (no bytecode cache),
# montecarlo is then compiled before numpy's allocations rather than on top
# of them, which keeps about 0.07 MB off detect's peak RSS.
from .montecarlo import CountHistogram

import numpy as np

__all__ = [
    "MixtureModel",
    "ThresholdResult",
    "DecompositionResult",
    "DispersionResult",
    "mixture_from_params",
    "decompose",
    "optimal_threshold",
    "poissonness_test",
]

WEIGHT_SUM_TOL = 1e-12
THRESHOLD_TAIL_QUANTILE = 0.9999
# Integers per chunk of poissonness_test's null draws (64 KB of int64, and a
# float buffer of the same size for the variance).  A null sample is a row of
# value counts over the Poisson pmf window when that window is narrower than
# the run count, else a row of one draw per run; a chunk holds
# NULL_CHUNK_COUNTS // min(window, runs) rows, at least one.  The draws and
# every row's sum are the same at any chunk size, so the size sets only the
# memory: one test on 3000 runs peaks at about 0.3 MB under tracemalloc with
# 64 KB blocks, and at 1.2 MB with the 512 KB blocks of 2**16.
NULL_CHUNK_COUNTS = 2**13


# ---------------------------------------------------------------------------
# Poisson / chi-square kernel


def _log_space_terms(a: np.ndarray, x: float) -> np.ndarray:
    """``exp(a log x - lgamma(a + 1) - x)`` for each entry of ``a``; 0 log 0 = 0.

    For integer a this is the Poisson pmf P(N = a) at mean x; for
    half-integer a it is a term of the odd-dof chi-square tail.  Summing in
    the exponent keeps x^a, 1/Gamma(a + 1) and e^-x from overflowing or
    underflowing on their own.  ``math.exp`` takes each exponent: numpy's
    array exp differs from the C library's in the last bit on AVX-512 CPUs.
    """
    if x == 0:
        return (a == 0).astype(float)
    lgamma_a1 = np.fromiter(map(math.lgamma, (a + 1.0).tolist()), float, len(a))
    return np.fromiter(map(math.exp, (a * math.log(x) - lgamma_a1 - x).tolist()), float, len(a))


def _poisson_window(mu: float) -> tuple[int, int]:
    """(lo, hi): outside lo..hi every Poisson(mu) pmf term is exactly 0.0.

    By the Chernoff bounds P(N <= mu - t) <= exp(-t^2 / 2 mu) and
    P(N >= mu + t) <= exp(-t^2 / 2 (mu + t)), a term below lo (t > 40 sqrt(mu))
    or above hi (t > 800 + 40 sqrt(mu + 400), where t^2 = 1600 (mu + t)) is
    below e^-800, far under the smallest subnormal, e^-744.4.  The exponent
    ``_log_space_terms`` computes is off by under 1e-6 at counts up to a few
    million, so each such term already evaluates to 0.0.
    """
    lo = max(0, math.floor(mu - 40.0 * math.sqrt(mu)) - 64)
    return lo, math.ceil(mu + 800.0 + 40.0 * math.sqrt(mu + 400.0))


def _poisson_terms(n: int, mu: float, start: int = 0) -> tuple[int, np.ndarray]:
    """(lo, P(N = j) for j = lo..min(n, hi)), where (bottom, hi) is
    ``_poisson_window(mu)`` and lo = max(bottom, start): the terms from
    ``start`` to n that can be nonzero, none when the window misses them."""
    lo, hi = _poisson_window(mu)
    lo = max(lo, start)
    return lo, _log_space_terms(np.arange(lo, min(n, hi) + 1.0), mu)


def _poisson_sf(n: int, mu: float, start: int = 0) -> np.ndarray:
    """P(N > j), j = start..n: direct sums of the pmf above j, never 1 - cdf.

    Each sum runs from the top down and starts at ``_tail_end(n, mu)`` or at
    the window's top, if lower: the terms between are 0.0.  Below the window
    every entry is the whole window's sum.
    """
    lo, terms = _poisson_terms(_tail_end(n, mu), mu, start + 1)
    tail = np.cumsum(terms[::-1])[::-1]  # tail[i] = P(N > lo - 1 + i)
    sf = np.zeros(n + 1 - start)
    below = min(lo - 1 - start, len(sf))  # entries j = start..lo - 2
    sf[:below] = tail[:1]
    sf[below:below + len(tail)] = tail[:len(sf) - below]
    return sf


def _tail_end(n: int, mu: float) -> int:
    """Last pmf term of a tail sum: 64 counts past both n and mu + 40 sqrt(mu).

    There each further term is smaller by mu/(j + 1) < 1 and far out in the
    tail, so every tail above 1e-300 comes out to full double precision.  The
    end does not depend on n up to mu + 40 sqrt(mu): a shorter tail table then
    equals the start of a longer one.
    """
    return max(n, math.ceil(mu + 40.0 * math.sqrt(mu))) + 64


def _poisson_ppf(q: float, mu: float) -> int:
    """The first k with P(N <= k) >= q, for q in (0, 1]: the cdf is 0 below
    the window, then the running sum of its terms, which is non-decreasing."""
    lo, terms = _poisson_terms(_tail_end(0, mu), mu)
    return lo + int(np.searchsorted(np.cumsum(terms), q))


def _chi2_sf(s: float, dof: int) -> float:
    """P(X > s) for X ~ chi-square with integer ``dof`` >= 1.

    With x = s/2, an even dof 2m gives the Poisson cdf P(N <= m - 1 | x),
    the running sum of the pmf terms up to m - 1 (0.0 below the window); an
    odd dof 2m + 1 gives erfc(sqrt(x)) plus the half-integer terms
    a = 1/2, 3/2, ..., m - 1/2.
    """
    x = 0.5 * s
    m = dof // 2
    if dof % 2 == 0:
        _, terms = _poisson_terms(m - 1, x)
        return float(np.cumsum(terms)[-1]) if len(terms) else 0.0
    return math.erfc(math.sqrt(x)) + float(np.sum(_log_space_terms(np.arange(m) + 0.5, x)))


class MixtureModel(namedtuple("MixtureModel", "components")):
    """Poisson mixture over stored-excitation number k = 0..cap.

    ``components[k]`` is the (weight, mean-detected-counts) pair for runs with
    exactly k stored excitations (k = cap collects the blockade-capped tail).
    Weights sum to one; means are non-increasing in k (attenuation ordering).
    """

    __slots__ = ()

    def __new__(cls, components):
        if len(components) < 1:
            raise DomainError("mixture needs at least one component")
        comps = tuple((float(w), float(m)) for w, m in components)
        wsum = math.fsum(w for w, _ in comps)
        # each check written so that NaN fails it
        if not all(w >= 0 for w, _ in comps):
            raise DomainError("mixture weights must be >= 0")
        if not abs(wsum - 1.0) <= WEIGHT_SUM_TOL:
            raise DomainError(f"mixture weights sum to {wsum}, expected 1")
        if not all(m >= 0 for _, m in comps):
            raise DomainError("mixture means must be >= 0")
        means = [m for _, m in comps]
        if any(means[i] < means[i + 1] - 1e-12 for i in range(len(means) - 1)):
            raise DomainError("mixture means must be non-increasing in k")
        return super().__new__(cls, comps)

    @classmethod
    def _make(cls, iterable):  # namedtuple's, used by _replace, skips __new__
        return cls(*iterable)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])

    @property
    def means(self) -> np.ndarray:
        return np.array([m for _, m in self.components])

    @property
    def w_ungated(self) -> float:
        return self.components[0][0]

    @property
    def w_gated(self) -> float:
        return 1.0 - self.components[0][0]


def mixture_from_params(
    n_stored: float, cap: int, od_st: float, mu0: float
) -> MixtureModel:
    """Build the count mixture for Poissonian gate statistics.

    Component weights are ``models.capped_poisson_weights``: the Poisson
    distribution of stored excitations with the k >= cap tail collected into
    the cap component; component means attenuate the no-gate mean ``mu0`` by
    exp(-k * od_st).
    """
    if not od_st >= 0:  # NaN fails too
        raise DomainError(f"od_st must be >= 0, got {od_st}")
    if not mu0_in_range(mu0):
        raise DomainError(f"mu0 must lie in (0, {MU0_MAX:g}], got {mu0}")
    weights = capped_poisson_weights(n_stored, cap)
    means = [mu0 * math.exp(-k * od_st) for k in range(len(weights))]
    return MixtureModel(components=tuple(zip(weights, means)))


DecompositionResult = namedtuple(
    "DecompositionResult", "events observed model_total model_gated model_ungated chi2 dof p_value")
DecompositionResult.__doc__ = """Expected gated/ungated run counts per bin for an observed histogram:
column arrays over the bins ``events`` = 0..n_max."""


def _pooled_chi2(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-square with adjacent bins pooled to expected >= 5.

    Only bins with a nonzero observed or expected count are visited: one with
    o = 0 and e = 0.0 leaves both sums and the pooling test unchanged.
    """
    pooled_obs, pooled_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    visited = np.flatnonzero((observed != 0) | (expected != 0))
    for o, e in zip(observed[visited].tolist(), expected[visited].tolist()):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    elif acc_e > 0:
        pooled_obs.append(acc_o)
        pooled_exp.append(acc_e)
    if len(pooled_exp) < 2:
        return 0.0, 0, 1.0
    obs = np.array(pooled_obs)
    exp = np.array(pooled_exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(exp) - 1
    return stat, dof, _chi2_sf(stat, dof)


def decompose(observed: CountHistogram, model: MixtureModel) -> DecompositionResult:
    """Split an observed histogram into expected gated/ungated run counts.

    For each bin n the ungated contribution is total * w_0 * P(n | mu_0) and
    the gated one sums the k >= 1 components; together they reproduce the
    model-predicted histogram.  The upper tail beyond the covered support is
    folded into the last bin so the expected counts sum to the run total.
    Also reports a pooled chi-square goodness of fit.
    """
    if observed.total == 0:
        raise InsufficientDataError("cannot decompose an empty histogram")
    mu_max = float(model.means.max())
    n_max = max(observed.max_event, _poisson_ppf(THRESHOLD_TAIL_QUANTILE, mu_max))
    events = np.arange(n_max + 1)
    obs = np.zeros(n_max + 1, dtype=observed.runs.dtype)
    obs[:len(observed.runs)] = observed.runs
    total = observed.total

    # per component: total * w_k times its pmf over 0..n_max, with the tail
    # mass past n_max folded into the last bin, so column sums match `total`;
    # added over the pmf's window only, since the terms outside it add 0.0
    ungated, gated = np.zeros(n_max + 1), np.zeros(n_max + 1)
    for k, (w_k, mu_k) in enumerate(zip(model.weights, model.means)):
        scale = total * w_k
        lo, terms = _poisson_terms(n_max, mu_k)
        part = scale * terms
        last = scale * _poisson_sf(n_max, mu_k, n_max)[0]
        if len(part) and lo + len(part) == n_max + 1:  # the window reaches the last bin
            last = part[-1] + last
            part = part[:-1]
        column = ungated if k == 0 else gated
        column[lo:lo + len(part)] += part
        column[-1] += last
    model_total = ungated + gated

    chi2, dof, p_value = _pooled_chi2(obs.astype(float), model_total)
    return DecompositionResult(
        events=events,
        observed=obs,
        model_total=model_total,
        model_gated=gated,
        model_ungated=ungated,
        chi2=chi2,
        dof=dof,
        p_value=p_value,
    )


ThresholdResult = namedtuple(
    "ThresholdResult", "tau fidelity p_detect_given_gated p_reject_given_ungated non_discriminating",
    defaults=(False,))
ThresholdResult.__doc__ = """Optimal discrimination threshold and its fidelity.

A run is declared "excitation present" iff its detected counts are <= tau
(gated runs are attenuated).  tau = -1 encodes the degenerate classifier
that never declares presence.  ``fidelity`` is the prior-weighted success
probability."""


def _threshold_scores(
    model: MixtureModel, tau_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fidelity, p_detect|gated, p_reject|ungated) for tau = -1..tau_max.

    Reads one cdf table over the gated components and one tail row of the
    ungated one; index ``tau + 1`` holds threshold tau.  Each entry does not
    depend on ``tau_max``.  A component's cdf is 0 below its pmf window and
    constant above it, so it is added over the window, and its constant as
    one slice add past the top.
    """
    w = model.weights
    mus = model.means
    w_gated = model.w_gated
    gated_cdf = np.zeros(tau_max + 2)
    cdf = gated_cdf[1:]  # cdf[tau] is threshold tau's
    for w_k, mu_k in zip(w[1:], mus[1:]):
        lo, terms = _poisson_terms(tau_max, mu_k)
        if len(terms):
            window = np.cumsum(terms)
            cdf[lo:lo + len(terms)] += w_k * window
            cdf[lo + len(terms):] += w_k * window[-1]
    p_detect = gated_cdf / w_gated
    p_reject = np.concatenate(([1.0], _poisson_sf(tau_max, mus[0])))
    fidelity = w_gated * p_detect + w[0] * p_reject
    return fidelity, p_detect, p_reject


def optimal_threshold(model: MixtureModel) -> ThresholdResult:
    """Scan integer thresholds for the highest single-shot fidelity.

    fidelity(tau) = w_gated * P(n <= tau | gated) + w_0 * P(n > tau | ungated),
    maximized over tau in [-1, q0.9999(mu_max)] with ties broken toward the
    smaller tau.  Every tau is scored at once from one cumulative sum per
    component.  Models whose components all share one mean cannot
    discriminate; they return the better trivial classifier, flagged.
    """
    if model.w_gated <= 0:
        raise DomainError("model has no gated component with positive weight")
    mus = model.means
    w0 = model.w_ungated
    w_gated = model.w_gated
    tau_max = _poisson_ppf(THRESHOLD_TAIL_QUANTILE, float(mus.max()))

    if float(mus.max() - mus.min()) <= 1e-12 * max(float(mus.max()), 1.0):
        # all components identical: no threshold beats trivial guessing, so
        # declare presence never (tau = -1) or always (tau = tau_max)
        never = w0 >= w_gated
        return ThresholdResult(
            tau=-1 if never else tau_max,
            fidelity=max(w0, w_gated),
            p_detect_given_gated=float(not never),
            p_reject_given_ungated=float(never),
            non_discriminating=True,
        )

    fidelities, p_detects, p_rejects = _threshold_scores(model, tau_max)
    best = int(np.argmax(fidelities))  # the first maximum: ties go to the smaller tau
    fidelity = float(fidelities[best])
    return ThresholdResult(
        tau=best - 1,
        fidelity=fidelity,
        p_detect_given_gated=float(p_detects[best]),
        p_reject_given_ungated=float(p_rejects[best]),
        non_discriminating=fidelity <= max(w0, w_gated) + 1e-12,
    )


DispersionResult = namedtuple("DispersionResult", "index p_value passed")
DispersionResult.__doc__ = "Index-of-dispersion test outcome against a Poisson null."


def poissonness_test(
    hist: CountHistogram, n_null: int = 500, seed: int = 0
) -> DispersionResult:
    """Test whether a count histogram is consistent with a Poisson law.

    The statistic is the index of dispersion (sample variance over mean,
    Fisher 1950); its null distribution is calibrated by ``n_null`` Poisson
    samples of the same size N and mean m, drawn from
    ``Philox(SeedSequence((seed,)))``.  The index depends on a sample only
    through its value counts, and the value counts of N i.i.d. Poisson(m)
    draws are multinomial over the pmf.  So when the pmf window -- the
    counts from a lower edge with under 1e-300 of mass below it up to
    ``_tail_end(0, m)`` -- is narrower than N, each null sample is one
    multinomial row of N over the window's pmf, renormalized to sum to 1;
    otherwise it is N Poisson draws.  The choice depends only on (m, N), so
    results are deterministic.  Either way the rows are drawn in chunks of
    at most ``NULL_CHUNK_COUNTS`` integers, so memory stays bounded as N
    grows, and the draws equal those of one ``n_null``-row matrix.

    Two-sided Monte Carlo p-value; fails at 5%.  An all-zero histogram is
    vacuously consistent with Poisson(0); an all-zero null sample counts as
    maximally underdispersed (index 0).
    """
    if hist.total < 30:
        raise InsufficientDataError(
            f"need at least 30 runs for the dispersion test, got {hist.total}"
        )
    mean = hist.mean()
    if mean == 0.0:
        return DispersionResult(index=0.0, p_value=1.0, passed=True)
    index = hist.variance() / mean

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed,))))
    null_index = _null_indices(mean, hist.total, n_null, rng)
    n_low = int(np.sum(null_index <= index))
    n_high = int(np.sum(null_index >= index))
    p_value = min(1.0, 2.0 * min(n_low + 1, n_high + 1) / (n_null + 1))
    return DispersionResult(
        index=float(index),
        p_value=float(p_value),
        passed=p_value >= 0.05,
    )


def _null_indices(
    mean: float, total: int, n_null: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of dispersion of ``n_null`` samples of ``total`` Poisson(mean)
    draws: the null of ``poissonness_test``, drawn as its docstring says."""
    lo, _ = _poisson_window(mean)
    width = _tail_end(0, mean) + 1 - lo
    by_counts = width < total
    if by_counts:  # the pmf over lo.._tail_end(0, mean), below the window's top
        values = np.arange(lo, lo + width, dtype=float)
        pmf = _log_space_terms(values, mean)
        pmf /= pmf.sum()
    rows = max(1, NULL_CHUNK_COUNTS // min(width, total))
    null_index = np.empty(n_null)
    for start in range(0, n_null, rows):
        size = min(rows, n_null - start)
        if by_counts:
            counts = rng.multinomial(total, pmf, size=size)
            null_mean = counts @ values / total
            dev = values - null_mean[:, None]
            np.square(dev, out=dev)
            dev *= counts
            null_var = dev.sum(axis=1) / (total - 1)
        else:
            draws = rng.poisson(mean, size=(size, total))
            null_mean = draws.mean(axis=1)
            null_var = draws.var(axis=1, ddof=1)
        null_index[start:start + size] = np.where(
            null_mean > 0, null_var / np.where(null_mean > 0, null_mean, 1.0), 0.0
        )
    return null_index
