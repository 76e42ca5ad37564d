"""Monte Carlo engine tests: distribution oracles, determinism, calibration."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rydberg_transistor import models, montecarlo
from rydberg_transistor.detection import _pooled_chi2, mixture_from_params
from rydberg_transistor.errors import DomainError, FitConvergenceError, UndefinedContrastError
from rydberg_transistor.montecarlo import (
    BLOCK_RUNS,
    POISSON_LAM_MAX,
    DEFAULT_P_STORE,
    DEFAULT_RETENTION_TAU,
    SimConfig,
    calibrate_retention_tau,
    child_seed,
    contrast_scan,
    simulate_ensemble,
)

INF = math.inf


def lossless_params(od_st, cap=3, eta=1.0):
    return models.TransistorParams(od_sp=od_st, od_st=od_st, cap=cap, a_ge=0.0, eta_det=eta)


def lossless_config(n_gate, od_st, cap=3, eta=1.0, rate=0.69, t_int=30.0, seed=0):
    """Storage without losses: stored number is the capped Poisson of n_gate."""
    return SimConfig(
        n_gate_in=n_gate,
        p_store=1.0,
        params=lossless_params(od_st, cap, eta),
        sat=None,
        source_rate=rate,
        t_int=t_int,
        retention_tau=INF,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# oracles


def simulate_run(config, rng):
    """Reference engine: one run, photon by photon.

    Returns (k_stored, gate_detected, source_detected).  Source photons arrive
    as a homogeneous Poisson process over the window; a photon at time t
    survives with probability p_sat * exp(-k_active(t) * od_st), where
    k_active counts excitations whose exponential lifetime exceeds t.
    Surviving photons are detected with probability eta_det.
    """
    p = config.params
    n_in = int(rng.poisson(config.n_gate_in))
    survivors = int(rng.binomial(n_in, 1.0 - p.a_ge))
    k_stored = min(int(rng.binomial(survivors, config.p_store)), int(p.cap))
    gate_detected = int(rng.binomial(survivors - k_stored, p.eta_det))

    n_source = int(rng.poisson(config.n_source_in))
    p_sat = config.saturation_thinning()
    if k_stored == 0 or p.od_st == 0 or math.isinf(config.retention_tau):
        transmitted = int(rng.binomial(n_source, p_sat * math.exp(-k_stored * p.od_st)))
    else:
        arrivals = rng.uniform(0.0, config.t_int, n_source)
        lifetimes = rng.exponential(config.retention_tau, k_stored)
        k_active = (arrivals[:, None] < lifetimes[None, :]).sum(axis=1)
        survive = p_sat * np.exp(-p.od_st * k_active)
        transmitted = int((rng.random(n_source) < survive).sum())
    return k_stored, gate_detected, int(rng.binomial(transmitted, p.eta_det))


def pool_bins(expected, minimum=5.0):
    """Group boundaries of adjacent bins, each group with expected >= minimum.

    Bins are pooled left to right; a leftover tail joins the last group.
    """
    cuts, acc = [0], 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= minimum:
            cuts.append(i + 1)
            acc = 0.0
    if len(cuts) == 1:
        cuts.append(len(expected))
    cuts[-1] = len(expected)
    return cuts


def pooled_sums(values, cuts):
    return np.add.reduceat(np.asarray(values, dtype=float), cuts[:-1])


def homogeneity_chi2(a, b):
    """(statistic, dof) of the two-sample chi-square test of count arrays a, b.

    Columns are pooled until every expected count is >= 5.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n_a, n_b = a.sum(), b.sum()
    cuts = pool_bins((a + b) * min(n_a, n_b) / (n_a + n_b))
    a, b = pooled_sums(a, cuts), pooled_sums(b, cuts)
    cols = a + b
    e_a, e_b = cols * n_a / (n_a + n_b), cols * n_b / (n_a + n_b)
    stat = float(np.sum((a - e_a) ** 2 / e_a + (b - e_b) ** 2 / e_b))
    return stat, len(cols) - 1


def capped_poisson_moments(lam, cap, k_max=200):
    """(E[min(k, cap)], Var[min(k, cap)]) by direct series summation."""
    e1 = e2 = 0.0
    for k in range(k_max + 1):
        if lam == 0:
            pmf = 1.0 if k == 0 else 0.0
        else:
            pmf = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
        capped = min(k, cap)
        e1 += pmf * capped
        e2 += pmf * capped * capped
    return e1, e2 - e1 * e1


# ---------------------------------------------------------------------------
# retention-time calibration


def _exact_tau(od_instant, od_effective, t_int):
    """tau at which od_instant * (tau / t_int) * (1 - exp(-t_int / tau)) equals
    od_effective exactly, for these doubles, as a 50-digit Decimal.

    x = t_int / tau solves (1 - e^-x) / x = od_effective / od_instant.  The left
    side falls from 1 at x = 0 to below the ratio at x = 1 / ratio; the root is
    bisected to a width of 2^-170 of that bracket.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ratio = Decimal(od_effective) / Decimal(od_instant)
        lo, hi = Decimal(0), 1 / ratio
        for _ in range(170):
            mid = (lo + hi) / 2
            if (1 - (-mid).exp()) / mid > ratio:
                lo = mid
            else:
                hi = mid
        return Decimal(t_int) / ((lo + hi) / 2)


@pytest.mark.oracle
def test_calibrate_retention_tau_matches_quadrature():
    from scipy.integrate import quad

    tau = calibrate_retention_tau(2.2, 0.94, 90.0)
    # independent check: window-averaged exponent via numerical quadrature
    integral, _ = quad(lambda t: 2.2 * math.exp(-t / tau), 0.0, 90.0)
    assert integral / 90.0 == pytest.approx(0.94, abs=1e-9)
    # the correctly rounded root for the inputs 2.2, 0.94 and 90.0
    assert tau == 44.23927475313881 == float(_exact_tau(2.2, 0.94, 90.0))
    assert DEFAULT_RETENTION_TAU == tau


def test_calibrate_retention_tau_edges():
    assert calibrate_retention_tau(2.2, 2.2, 90.0) == INF
    with pytest.raises(DomainError):
        calibrate_retention_tau(2.2, 2.3, 90.0)
    with pytest.raises(DomainError):
        calibrate_retention_tau(2.2, 0.0, 90.0)
    with pytest.raises(DomainError):
        calibrate_retention_tau(0.0, 0.5, 90.0)


def test_calibrate_retention_tau_beyond_the_bracket():
    # a ratio within 5e-10 of 1 needs a fly-away time over 1e9 windows: no decay
    assert calibrate_retention_tau(0.9400000001, 0.94, 90.0) == INF
    assert calibrate_retention_tau(1.0, 1.0 - 4e-10, 1.0) == INF
    assert math.isfinite(calibrate_retention_tau(1.0, 1.0 - 1e-8, 1.0))
    # a ratio under 1e-9 needs one below 1e-9 windows
    with pytest.raises(DomainError, match="1e-9"):
        calibrate_retention_tau(2.2, 1e-12, 90.0)


def test_calibrate_retention_tau_matches_exact_oracle():
    # Against the exact root for the ratio the function solves, od_effective /
    # od_instant rounded once: that rounding is the input's, not the search's.
    # Near ratio 1 the double-precision residual cancels, so the bound there is
    # relative.
    for od_instant in (0.05, 1.0, 2.2, 7.5, 40.0):
        for fraction in (1e-8, 1e-4, 0.01, 0.2, 0.427, 0.5, 0.9, 0.999, 1 - 1e-7):
            for t_int in (1e-3, 1.0, 30.0, 90.0, 1e4):
                od_effective = od_instant * fraction
                tau = calibrate_retention_tau(od_instant, od_effective, t_int)
                exact = _exact_tau(1.0, od_effective / od_instant, t_int)
                error = abs(Decimal(tau) - exact)
                if fraction <= 0.9:
                    assert error <= 3 * Decimal(math.ulp(float(exact))), \
                        (od_instant, fraction, t_int)
                else:
                    bound = 1e-12 if fraction == 0.999 else 2e-9
                    assert error <= Decimal(bound) * exact, (od_instant, fraction, t_int)


def test_calibrate_retention_tau_iteration_cap(monkeypatch):
    # five Newton steps at the paper's settings; one fewer does not converge
    monkeypatch.setattr(montecarlo, "RETENTION_TAU_MAXITER", 4)
    with pytest.raises(FitConvergenceError):
        calibrate_retention_tau(2.2, 0.94, 90.0)
    monkeypatch.setattr(montecarlo, "RETENTION_TAU_MAXITER", 5)
    assert calibrate_retention_tau(2.2, 0.94, 90.0) == DEFAULT_RETENTION_TAU


def test_poisson_lam_max_is_numpys_limit():
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(POISSON_LAM_MAX, INF))


# ---------------------------------------------------------------------------
# config and per-run stream plumbing


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(n_gate_in=-1.0)
    with pytest.raises(DomainError):
        SimConfig(p_store=1.5)
    with pytest.raises(DomainError):
        SimConfig(t_int=0.0)
    with pytest.raises(DomainError):
        SimConfig(retention_tau=0.0)
    with pytest.raises(DomainError):
        SimConfig(seed=-1)


LAM = "9.22337e+18"  # POISSON_LAM_MAX as invariant names spell it
NAN = math.nan


@pytest.mark.parametrize("call, names", [
    (lambda: simulate_ensemble(SimConfig(n_gate_in=1e300), 10), [f"n_gate_in in [0, {LAM}]"]),
    (lambda: SimConfig(source_rate=1e300), [f"source_rate * t_int <= {LAM}"]),
    (lambda: SimConfig(source_rate=1e12), ["source_rate * t_int * eta_det <= 1e+06"]),
    (lambda: SimConfig(t_int=NAN), ["t_int > 0"]),
    (lambda: SimConfig(n_gate_in=NAN), [f"n_gate_in in [0, {LAM}]"]),
    (lambda: models.TransistorParams(od_sp=NAN), ["od_sp >= 0"]),
    (lambda: models.SaturationParams(a=NAN, b=NAN), ["a >= 0", "b > 0"]),
    (lambda: models.TransistorParams(cap=NAN), ["cap >= 1"]),
    # two bad fields, both listed in one error
    (lambda: models.TransistorParams(od_st=-1.0, eta_det=0.0), ["od_st >= 0", "eta_det in (0, 1]"]),
    (lambda: SimConfig(p_store=1.5, seed=-1),
     ["p_store in [0, 1]", "seed is an unsigned 64-bit integer"]),
], ids=["n_gate_in-1e300", "source_rate-1e300", "source_rate-1e12", "t_int-nan",
        "n_gate_in-nan", "od_sp-nan", "a-b-nan", "cap-nan", "od_st-eta_det", "p_store-seed"])
def test_parameter_objects_raise_one_domain_error_naming_each_invariant(call, names):
    with pytest.raises(DomainError) as err:
        call()
    for name in names:
        assert name in str(err.value)


def test_default_p_store_anchors_stored_mean():
    # E[stored] before capping at the 0.75-photon operating point is 0.61
    assert 0.75 * 0.85 * DEFAULT_P_STORE == pytest.approx(0.61, abs=1e-12)


def test_block_streams():
    cfg = lossless_config(0.61, od_st=0.94, seed=42)
    one_block = simulate_ensemble(cfg, BLOCK_RUNS)
    longer = simulate_ensemble(cfg, BLOCK_RUNS + 100)
    # block 0 draws the same runs whatever blocks follow it
    head = longer.histogram.runs[:len(one_block.histogram.runs)]
    assert np.all(head >= one_block.histogram.runs)
    assert not np.array_equal(simulate_ensemble(cfg._replace(seed=43), BLOCK_RUNS).joint,
                              one_block.joint)


def test_child_seed():
    assert child_seed(5, 0, 1) == child_seed(5, 0, 1)
    seeds = {child_seed(s, tag, i) for s in (5, 6) for tag in range(3) for i in range(50)}
    assert len(seeds) == 2 * 3 * 50
    assert all(0 <= s < 2**64 for s in seeds)


def test_seed_sequence_port_matches_numpy():
    # entropy of 1-5 integers, each 0, below 2**32, at or above 2**32 (two
    # words) or 2**64 (three), so the pool of 4 words is under- and overfull
    rng = np.random.default_rng(64)
    values = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 3]
    for _ in range(400):
        entropy = tuple(int(rng.choice(values)) if rng.random() < 0.5
                        else int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63))
                        for _ in range(rng.integers(1, 6)))
        n_words = int(rng.integers(1, 9))
        expected = np.random.SeedSequence(entropy).generate_state(n_words).tolist()
        assert models._seed_sequence_words(entropy, n_words) == expected, entropy
        if len(entropy) == 3 and max(entropy) < 2**64:
            state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
            assert child_seed(*entropy) == int(state[0])


# ---------------------------------------------------------------------------
# stored-excitation draws (the gate chain of simulate_ensemble)


def stored_config(n_gate, a_ge, cap, seed):
    params = models.TransistorParams(od_sp=0.94, od_st=0.94, cap=cap, a_ge=a_ge, eta_det=1.0)
    return SimConfig(n_gate_in=n_gate, p_store=1.0, params=params, sat=None,
                     source_rate=0.69, t_int=30.0, retention_tau=INF, seed=seed)


def test_draw_stored_zero_gate():
    res = simulate_ensemble(stored_config(0.0, 0.15, 3, seed=1), 200)
    assert res.mean_stored == 0.0
    assert np.flatnonzero(res.joint.sum(axis=1)).tolist() == [0]


def test_draw_stored_full_blockade():
    res = simulate_ensemble(stored_config(50.0, 0.0, 1, seed=2), 200)
    assert res.mean_stored == 1.0
    assert np.flatnonzero(res.joint.sum(axis=1)).tolist() == [1]


def test_draw_stored_capped_expectation():
    lam = 1.04 * (1.0 - 0.15) * 1.0
    expect, variance = capped_poisson_moments(lam, 3)
    assert expect == pytest.approx(0.8687896932518069, abs=1e-12)  # frozen oracle
    n = 100_000
    res = simulate_ensemble(stored_config(1.04, 0.15, 3, seed=3), n)
    se = math.sqrt(variance / n)
    assert abs(res.mean_stored - expect) <= 3 * se


def test_draw_stored_respects_cap():
    res = simulate_ensemble(stored_config(10.0, 0.0, 3, seed=4), 500)
    assert res.joint.shape[0] == 4  # one row per stored number 0..cap
    assert np.flatnonzero(res.joint.sum(axis=1)).max() == 3


def test_joint_rows_grow_to_the_largest_k_drawn():
    # the table has a row for each k up to the largest drawn, not cap + 1
    ref = simulate_ensemble(stored_config(0.0, 0.15, 100, seed=5), 500)
    assert ref.joint.shape[0] == 1
    # three blocks: the stored numbers drawn block by block, as the engine does
    cfg = stored_config(2.0, 0.15, 100, seed=6)
    n_runs = 2 * BLOCK_RUNS + 100
    res = simulate_ensemble(cfg, n_runs)
    k = np.concatenate([
        montecarlo._simulate_block(
            cfg, cfg.saturation_thinning(), min(BLOCK_RUNS, n_runs - start),
            np.random.Generator(np.random.Philox(np.random.SeedSequence((6, b)))))[0]
        for b, start in enumerate(range(0, n_runs, BLOCK_RUNS))
    ])
    assert res.joint.shape[0] == k.max() + 1 < 101
    assert np.array_equal(res.joint.sum(axis=1), np.bincount(k))


# ---------------------------------------------------------------------------
# detected counts


def test_simulate_run_poisson_process_oracle():
    # no gate, no thinning: detected counts follow Poisson(rate * t) = 20.7
    cfg = lossless_config(0.0, od_st=0.94)
    res = simulate_ensemble(cfg, 30_000)
    mean = 0.69 * 30.0
    se = math.sqrt(mean / res.n_runs)  # Poisson variance = mean
    assert abs(res.mean_source_detected - mean) <= 3 * se
    var = res.histogram.variance()
    assert abs(var - mean) <= 4 * math.sqrt(2 * mean**2 / res.n_runs)


def test_simulate_run_single_excitation_thinning_oracle():
    # cap=1 with a huge gate pulse pins k=1; constant attenuation e^-od
    cfg = lossless_config(50.0, od_st=0.94, cap=1, seed=11)
    res = simulate_ensemble(cfg, 30_000)
    mean = 0.69 * 30.0 * math.exp(-0.94)
    se = math.sqrt(mean / res.n_runs)
    assert res.mean_stored == 1.0
    assert abs(res.mean_source_detected - mean) <= 3 * se


def test_simulate_run_zero_window_returns_zero_counts():
    cfg = lossless_config(0.5, od_st=1.0)._replace(source_rate=0.0)
    res = simulate_ensemble(cfg, 50)
    assert res.histogram.runs.tolist() == [50]
    assert res.mean_stored > 0


def test_simulate_run_od_zero_gate_has_no_effect():
    gated = simulate_ensemble(lossless_config(1.0, od_st=0.0, seed=21), 100_000)
    ungated = simulate_ensemble(lossless_config(0.0, od_st=0.0, seed=22), 100_000)
    m = 0.69 * 30.0
    se = math.sqrt(2 * m / 100_000)
    assert abs(gated.mean_source_detected - ungated.mean_source_detected) <= 3 * se


def test_simulate_run_detection_thinning():
    cfg = lossless_config(0.0, od_st=0.94, eta=0.31, seed=31)
    res = simulate_ensemble(cfg, 30_000)
    mean = 0.69 * 30.0 * 0.31
    se = math.sqrt(mean / res.n_runs)
    assert abs(res.mean_source_detected - mean) <= 3 * se


def test_gate_detection_consistent_with_storage_balance():
    # detected gate photons / eta estimates the transmitted gate beam; the
    # storage estimate from the in/out balance must then match mean_stored
    cfg = SimConfig(
        n_gate_in=0.75,
        p_store=DEFAULT_P_STORE,
        params=models.TransistorParams(eta_det=0.31),
        sat=None,
        source_rate=0.0001,
        t_int=30.0,
        retention_tau=INF,
        seed=41,
    )
    res = simulate_ensemble(cfg, 200_000)
    n_out = res.mean_gate_detected / 0.31
    est = (1 - 0.15) * 0.75 - n_out  # stored = surviving input - transmitted
    # capping losses are < 1e-3 at this operating point
    assert est == pytest.approx(res.mean_stored, abs=0.02)
    assert est == pytest.approx(0.61, abs=0.02)


def test_detected_mean_takes_the_c_librarys_exp():
    # numpy's exp of an array is its own AVX-512 routine on CPUs that have one;
    # there e^{-0.94 * 3} differs from math.exp's in the last bit
    class Recorder:
        def __init__(self, rng):
            self.rng, self.poisson_means = rng, []

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def poisson(self, lam, size=None):
            self.poisson_means.append(lam)
            return self.rng.poisson(lam, size)

    cfg = lossless_config(3.0, od_st=0.94, eta=0.31)
    rng = Recorder(np.random.Generator(np.random.Philox(np.random.SeedSequence((0, 0)))))
    k, _, _ = montecarlo._simulate_block(cfg, 1.0, 2000, rng)
    assert 3 in k.tolist()
    expected = [0.69 * 1.0 * 0.31 * (30.0 * math.exp(-0.94 * j)) for j in k.tolist()]
    assert rng.poisson_means[-1].tolist() == expected


def test_gate_count_is_summed_exactly_at_large_means():
    # about 2.6e17 detected gate photons per run: an int64 sum of 100 runs wraps
    cfg = SimConfig(n_gate_in=1e18, seed=1)
    res = simulate_ensemble(cfg, 100)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 0))))
    _, gate_detected, _ = montecarlo._simulate_block(cfg, 1.0, 100, rng)
    assert res.mean_gate_detected == sum(gate_detected.tolist()) / 100
    assert res.mean_gate_detected == pytest.approx(1e18 * 0.85 * 0.31, rel=1e-6)


# ---------------------------------------------------------------------------
# ensembles


def test_simulate_ensemble_deterministic():
    cfg = lossless_config(0.61, od_st=0.94, seed=5)
    r1 = simulate_ensemble(cfg, 500)
    r2 = simulate_ensemble(cfg, 500)
    assert np.array_equal(r1.joint, r2.joint)
    assert r1.mean_gate_detected == r2.mean_gate_detected


def test_simulate_ensemble_single_run_histogram():
    res = simulate_ensemble(lossless_config(0.0, od_st=1.0, seed=7), 1)
    assert res.histogram.total == 1
    assert np.count_nonzero(res.histogram.runs) == 1


def test_simulate_ensemble_histogram_mass_and_breakdown():
    res = simulate_ensemble(lossless_config(0.61, od_st=0.94, seed=8), 2000)
    assert res.histogram.total == res.joint.sum() == 2000
    # the histogram and the means are the joint table's marginals
    assert np.array_equal(res.histogram.runs, res.joint.sum(axis=0))
    assert res.mean_source_detected == res.histogram.mean()
    rows = range(res.joint.shape[0])
    assert res.mean_stored == sum(k * res.joint[k].sum() for k in rows) / 2000
    assert res.joint.shape[0] == 4  # k = cap = 3 is drawn; no row past the cap
    assert not res.joint.flags.writeable


def test_simulate_ensemble_reproduces_histogram_shift():
    # paper-like 250-run pair: stored excitations shift counts toward zero
    gated = simulate_ensemble(lossless_config(0.61, od_st=0.94, eta=0.31, seed=9), 250)
    ref = simulate_ensemble(lossless_config(0.0, od_st=0.94, eta=0.31, seed=10), 250)
    assert gated.mean_source_detected < ref.mean_source_detected
    low = gated.histogram.runs[:3].sum()
    high = ref.histogram.runs[:3].sum()
    assert low > high  # mass redistributed toward zero events


def test_ensemble_matches_capped_mixture_prediction():
    # quick version of the analytic-equivalence contract (full one in acceptance)
    n_runs = 20_000
    gated = simulate_ensemble(lossless_config(1.0, od_st=2.2, seed=12), n_runs)
    ref = simulate_ensemble(lossless_config(0.0, od_st=2.2, seed=13), n_runs)
    c_hat = 1.0 - gated.mean_source_detected / ref.mean_source_detected
    c_exact = models.expected_contrast_stored(1.0, 2.2, 3)
    m0 = ref.mean_source_detected
    se = math.sqrt(
        gated.histogram.variance() / n_runs / m0**2
        + gated.mean_source_detected**2 * ref.histogram.variance() / n_runs / m0**4
    )
    assert abs(c_hat - c_exact) <= 3.5 * se


def test_self_blockade_thinning_lands_on_transfer_curve():
    sat = models.SaturationParams(46.0, 70.0)
    n_in = 100.0
    cfg = SimConfig(
        n_gate_in=0.0,
        p_store=1.0,
        params=lossless_params(0.94, eta=1.0),
        sat=sat,
        source_rate=n_in / 30.0,
        t_int=30.0,
        retention_tau=INF,
        seed=14,
    )
    res = simulate_ensemble(cfg, 10_000)
    expected = models.transfer(n_in, sat)
    se = math.sqrt(res.histogram.variance() / res.n_runs)
    assert abs(res.mean_source_detected - expected) <= 3 * se


def test_increasing_od_stochastically_decreases_counts():
    lo = simulate_ensemble(lossless_config(50.0, od_st=0.5, cap=1, seed=15), 30_000)
    hi = simulate_ensemble(lossless_config(50.0, od_st=1.5, cap=1, seed=16), 30_000)
    assert hi.mean_source_detected < lo.mean_source_detected
    # empirical CDF dominance at every count level, with sampling slack
    n_max = max(lo.histogram.max_event, hi.histogram.max_event)
    lo_runs, hi_runs = (np.pad(r.histogram.runs, (0, n_max + 1 - len(r.histogram.runs)))
                        for r in (lo, hi))
    cdf_lo = np.cumsum(lo_runs) / lo.n_runs
    cdf_hi = np.cumsum(hi_runs) / hi.n_runs
    assert np.all(cdf_hi >= cdf_lo - 0.02)


def test_flyaway_halving_retention_increases_transmission():
    base = lossless_config(50.0, od_st=2.2, cap=1, t_int=90.0, seed=17)._replace(
        retention_tau=44.0,
    )
    halved = base._replace(retention_tau=22.0)
    full = simulate_ensemble(base, 5000)
    half = simulate_ensemble(halved, 5000)
    assert half.mean_source_detected > full.mean_source_detected


@pytest.mark.oracle
def test_flyaway_matches_per_photon_reference():
    from scipy.stats import chi2 as chi2_dist

    # detection settings: od_st 2.2 decaying to an effective 0.94 over 90 us
    cfg = SimConfig(
        n_gate_in=0.61,
        p_store=1.0,
        params=models.TransistorParams(od_st=2.2, cap=3, a_ge=0.0, eta_det=0.31),
        sat=None,
        source_rate=20.0 / (0.31 * 90.0),
        t_int=90.0,
        retention_tau=DEFAULT_RETENTION_TAU,
        seed=51,
    )
    n_runs = 20_000
    fast = simulate_ensemble(cfg, n_runs)
    rng = np.random.Generator(np.random.Philox(52))
    reference = np.array([simulate_run(cfg, rng) for _ in range(n_runs)])
    ref_k, ref_detected = reference[:, 0], reference[:, 2]

    n_max = max(fast.joint.shape[1] - 1, int(ref_detected.max()))
    joint = np.pad(fast.joint, ((0, 0), (0, n_max + 1 - fast.joint.shape[1])))
    stat, dof = homogeneity_chi2(joint.sum(axis=1), np.bincount(ref_k, minlength=4))
    for k, fast_runs in enumerate(joint):
        if not fast_runs.any():
            continue
        k_stat, k_dof = homogeneity_chi2(
            fast_runs, np.bincount(ref_detected[ref_k == k], minlength=n_max + 1)
        )
        stat += k_stat
        dof += k_dof
    assert dof > 30
    assert chi2_dist.sf(stat, dof) > 0.01


def flyaway_mean_ratio(k, od, t_int, tau):
    """E[detected | k stored] / mu0 on the fly-away path, exactly.

    Each of the k excitations is still stored at time t with probability
    p = e^{-t/tau}, so the transmission averages to (1 - p(1 - e^{-od}))^k;
    expanded binomially, the j-th term integrates e^{-jt/tau} over the window.
    """
    integrals = [t_int, *((tau / j) * -math.expm1(-j * t_int / tau) for j in range(1, k + 1))]
    return sum(math.comb(k, j) * math.expm1(-od) ** j * integrals[j]
               for j in range(k + 1)) / t_int


def flyaway_count_pmf(k, od, t_int, tau, mu0):
    """P(N = n | k stored) for n = 0, 1, ... on the fly-away path, exactly.

    The active number is a pure death process j -> j - 1 at rate j / tau,
    started at k, and photons arrive at rate (mu0 / t_int) e^{-od j}: a
    Markov-modulated Poisson process.  Uniformized at a rate lam no state's
    total rate exceeds (Jensen 1953), the process takes Poisson(lam t_int)
    steps, each a death, a photon or neither; v[j, n] is the chance that m
    steps end with j active and n photons.  Steps are summed until their
    Poisson tail is far below 1e-16, and m steps hold at most m photons.
    """
    deaths = np.arange(k + 1) / tau
    photons = mu0 / t_int * np.array([math.exp(-od * j) for j in range(k + 1)])
    lam = float(np.max(deaths + photons))
    steps = lam * t_int
    m_max = int(steps + 15 * math.sqrt(steps) + 30)
    stay = 1.0 - (deaths + photons) / lam
    v = np.zeros((k + 1, m_max + 1))
    v[k, 0] = 1.0
    pmf, weight = np.zeros(m_max + 1), math.exp(-steps)
    for m in range(m_max + 1):
        pmf += weight * v.sum(axis=0)
        weight *= steps / (m + 1)
        step = v * stay[:, None]
        step[:-1] += v[1:] * (deaths[1:] / lam)[:, None]
        step[:, 1:] += v[:, :-1] * (photons / lam)[:, None]
        v = step
    return pmf


def test_flyaway_row_means_match_the_closed_form():
    # detection settings at paper90us: od_st 2.2 decaying to an effective
    # 0.94 over 90 us; every stored number 0..cap gets tens of thousands of runs
    od, t_int, mu0 = 2.2, 90.0, 20.0
    tau = calibrate_retention_tau(od, 0.94, t_int)
    cfg = SimConfig(n_gate_in=1.5, p_store=1.0, params=lossless_params(od, cap=3), sat=None,
                    source_rate=mu0 / t_int, t_int=t_int, retention_tau=tau, seed=7)
    res = simulate_ensemble(cfg, 200_000)
    ratios = [flyaway_mean_ratio(k, od, t_int, tau) for k in range(4)]
    assert [round(r, 3) for r in ratios] == [1.0, 0.620, 0.431, 0.318]
    counts = np.arange(res.joint.shape[1])
    assert res.joint.shape[0] == 4
    for k, row in enumerate(res.joint):
        runs = row.sum()
        mean = row @ counts / runs
        se = math.sqrt(row @ (counts - mean) ** 2 / (runs - 1) / runs)
        assert runs > 30_000
        assert abs(mean - mu0 * ratios[k]) < 4 * se, (k, (mean - mu0 * ratios[k]) / se)
        # each row's counts follow the exact law, whose mean is the closed form;
        # the tail past the last bin is folded into it
        pmf = flyaway_count_pmf(k, od, t_int, tau, mu0)
        assert len(pmf) > len(row) and abs(pmf.sum() - 1.0) < 1e-12
        assert abs(pmf @ np.arange(len(pmf)) / mu0 - ratios[k]) < 1e-12
        expected = runs * pmf[:len(row)]
        expected[-1] += runs * pmf[len(row):].sum()
        _, dof, p = _pooled_chi2(row, expected)
        assert dof > 20 and p > 0.01, (k, dof, p)


@pytest.mark.oracle
def test_constant_attenuation_matches_exact_capped_mixture():
    from scipy.stats import chi2 as chi2_dist
    from scipy.stats import poisson

    # tau = inf: counts follow sum_k w_k Poisson(mu0 e^{-k od_st}) exactly,
    # w_k the capped Poisson weights of the stored number
    sat = models.SaturationParams(46.0, 70.0)
    cfg = SimConfig(
        n_gate_in=0.75,
        p_store=DEFAULT_P_STORE,
        params=models.TransistorParams(od_st=2.2, cap=3, a_ge=0.15, eta_det=0.31),
        sat=sat,
        source_rate=0.69,
        t_int=30.0,
        retention_tau=INF,
        seed=53,
    )
    n_runs = 50_000
    res = simulate_ensemble(cfg, n_runs)
    mu0 = models.transfer(0.69 * 30.0, sat) * 0.31
    model = mixture_from_params(0.61, 3, 2.2, mu0)
    n_max = max(res.histogram.max_event, int(poisson.ppf(1 - 1e-9, mu0)))
    events = np.arange(n_max + 1)
    observed, expected = [], []
    joint = np.pad(res.joint, ((0, 0), (0, n_max + 1 - res.joint.shape[1])))
    for (weight, mean), runs in zip(model.components, joint, strict=True):
        pmf = poisson.pmf(events, mean)
        pmf[-1] += poisson.sf(n_max, mean)
        cuts = pool_bins(n_runs * weight * pmf)
        observed.append(pooled_sums(runs, cuts))
        expected.append(pooled_sums(n_runs * weight * pmf, cuts))
    observed, expected = np.concatenate(observed), np.concatenate(expected)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert len(expected) > 20
    assert chi2_dist.sf(stat, len(expected) - 1) > 0.01


# ---------------------------------------------------------------------------
# contrast scans


def test_contrast_scan_reference_zero_rate():
    base = lossless_config(0.0, od_st=0.75)._replace(source_rate=0.0)
    with pytest.raises(UndefinedContrastError):
        contrast_scan(base, [0.5], 50)


def test_contrast_scan_zero_od_gives_zero_contrast():
    ds = contrast_scan(lossless_config(0.0, od_st=0.0, seed=18), [0.5, 1.0, 2.0], 4000)
    for _, contrast, sigma in ds.points:
        assert abs(contrast) <= 4 * sigma


def test_contrast_scan_follows_capped_poisson_curve():
    gate_values = [0.5, 1.04, 2.0]
    ds = contrast_scan(lossless_config(0.0, od_st=0.75, seed=19), gate_values, 20_000)
    for x, contrast, sigma in ds.points:
        model = models.expected_contrast_incoming(x, 0.75, 3)
        assert abs(contrast - model) <= 3.5 * sigma
    # the one-photon-level point is compatible with the measured 0.39(4)
    x, contrast, sigma = ds.points[1]
    assert abs(contrast - 0.39) <= 0.04 + 3 * sigma


def test_contrast_scan_deterministic():
    base = lossless_config(0.0, od_st=0.75, seed=20)
    d1 = contrast_scan(base, [0.5, 1.5], 300)
    d2 = contrast_scan(base, [0.5, 1.5], 300)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.sigma, d2.sigma)
