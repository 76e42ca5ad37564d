"""Detection analysis tests: mixtures, decomposition, thresholds, dispersion."""

import csv
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydberg_transistor import cli, detection
from rydberg_transistor.detection import (
    THRESHOLD_TAIL_QUANTILE,
    CountHistogram,
    MixtureModel,
    decompose,
    mixture_from_params,
    optimal_threshold,
    poissonness_test,
)
from rydberg_transistor.errors import DomainError, InsufficientDataError
from rydberg_transistor.models import TransistorParams
from rydberg_transistor.montecarlo import SimConfig, simulate_ensemble

INF = math.inf


def output_writer(directory, fmt="csv"):
    """The CLI's result-file writer, writing into ``directory`` in ``fmt``."""
    return cli.OutputWriter(cli.RunManifest(
        command="detect", config_path="", seed=0, runs=1, output_dir=str(directory),
        format=fmt, force=False))


def mixture_matched_config(n_stored, od_st, mu0, cap=3, seed=0):
    """Simulator settings whose detected counts follow the mixture exactly."""
    return SimConfig(
        n_gate_in=n_stored,
        p_store=1.0,
        params=TransistorParams(od_st=od_st, cap=cap, a_ge=0.0, eta_det=1.0),
        sat=None,
        source_rate=mu0 / 30.0,
        t_int=30.0,
        retention_tau=INF,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the Poisson / chi-square kernel against scipy.stats


def _assert_rel(mine, ref, rtol):
    """Relative agreement wherever scipy is above 1e-300; ~0 where it is not."""
    mine, ref = np.asarray(mine), np.asarray(ref)
    big = ref > 1e-300
    assert np.all(np.abs(mine[big] - ref[big]) <= rtol * ref[big])
    assert np.all(mine[~big] <= 1e-290)


def _pmf_table(n, mu):
    """P(N = j), j = 0..n: ``_poisson_terms``' window, zero outside it."""
    lo, terms = detection._poisson_terms(n, mu)
    pmf = np.zeros(n + 1)
    pmf[lo:lo + len(terms)] = terms
    return pmf


@pytest.mark.oracle
@pytest.mark.parametrize("mu, rtol", [
    (0.0, 1e-12), (1e-12, 1e-12), (0.5, 1e-12), (10.0, 1e-12), (40.0, 1e-12),
    (100.0, 1e-12), (300.0, 1e-9), (1e3, 1e-9), (3e3, 1e-9), (1e4, 1e-9),
])
def test_poisson_kernel_against_scipy(mu, rtol):
    from scipy.stats import poisson

    # out to where the sf falls below 1e-300 (k ~ 290 at mu = 10, ~660 at 100)
    n = max(800, math.ceil(mu + 60 * math.sqrt(mu)))
    k = np.arange(n + 1)
    _assert_rel(_pmf_table(n, mu), poisson.pmf(k, mu), rtol)
    _assert_rel(np.cumsum(_pmf_table(n, mu)), poisson.cdf(k, mu), rtol)
    sf = detection._poisson_sf(n, mu)
    _assert_rel(sf, poisson.sf(k, mu), rtol)
    # the one entry decompose reads: the tail past its last bin, summed from
    # that bin's own tail end; at n and at counts where the tail is not tiny
    _assert_rel(detection._poisson_sf(n, mu, n)[0], poisson.sf(n, mu), rtol)
    last_bins = np.unique(np.linspace(0, mu + 20 * math.sqrt(mu) + 20, 40).astype(int))
    _assert_rel([detection._poisson_sf(j, mu, j)[0] for j in last_bins],
                poisson.sf(last_bins, mu), rtol)
    if mu > 0:  # a direct tail sum, so it reaches down to 1e-300
        assert 0 < sf[poisson.sf(k, mu) > 1e-300].min() < 1e-250


@pytest.mark.oracle
def test_poisson_ppf_against_scipy():
    from scipy.stats import poisson

    mus = np.logspace(-6.0, 4.0, 10_000)
    mine = [detection._poisson_ppf(THRESHOLD_TAIL_QUANTILE, mu) for mu in mus]
    assert np.array_equal(mine, poisson.ppf(THRESHOLD_TAIL_QUANTILE, mus))


@pytest.mark.oracle
def test_chi2_sf_against_scipy():
    from scipy.stats import chi2 as chi2_dist

    for dof in range(1, 501):
        s = np.concatenate([np.linspace(0.0, 3.0 * dof + 100.0, 40),
                            [1490.0, 2000.0, 3000.0, 5000.0, 6.0 * dof]])
        mine = [detection._chi2_sf(float(v), dof) for v in s]
        _assert_rel(mine, chi2_dist.sf(s, dof), 1e-12)
    # e^{-s/2} alone underflows here, the tail does not
    assert detection._chi2_sf(2000.0, 499) == pytest.approx(chi2_dist.sf(2000.0, 499), rel=1e-12)
    assert chi2_dist.sf(2000.0, 499) > 1e-300 and math.exp(-1000.0) == 0.0


def _libm_exp(exponents):
    """math.exp of each entry: the C library's exp, whatever numpy's SIMD set."""
    return np.array([math.exp(v) for v in exponents.tolist()])


def _unwindowed_pmf(n, mu, lgamma_table):
    """P(N = j) on every j = 0..n, from lgamma(j + 1) = lgamma_table[j]."""
    a = np.arange(n + 1.0)
    if mu == 0:
        return (a == 0).astype(float)
    return _libm_exp(a * math.log(mu) - lgamma_table[: n + 1] - mu)


def test_log_space_terms_take_the_c_librarys_exp():
    # numpy's exp of an array is its own AVX-512 routine on CPUs that have
    # one; there it differs from math.exp in the last bit for 90 of these
    # 2000 pmf and chi-square terms, so a pmf would depend on the CPU
    for a, x in itertools.product((np.arange(200.0), np.arange(200.0) + 0.5),
                                  (0.5, 3.7, 20.0, 123.4, 1e3)):
        exponents = a * math.log(x) - np.array([math.lgamma(v + 1.0) for v in a]) - x
        mine = detection._log_space_terms(a, x)
        assert np.array_equal(mine.view(np.int64), _libm_exp(exponents).view(np.int64)), x


def test_windowed_kernel_is_bit_identical_to_every_count():
    # the pmf, cdf, sf and ppf evaluated on _poisson_window only equal, as
    # int64 views, the same sums over terms evaluated at every count; the
    # window's lower edge first leaves 0 at mu = 1727.75
    rng = np.random.default_rng(16)
    mus = [0.0, 5e-324, 1e-300, 1719.0, 1720.0, 1721.0, 1727.5, 1727.75, 1728.0,
           1e5, 1e6, *(10.0 ** rng.uniform(-6.0, 6.0, 12)).tolist()]
    top = detection._tail_end(detection._poisson_window(1e6)[1] + 5, 1e6)
    lgamma_table = np.array([math.lgamma(j + 1) for j in range(top + 1)])

    def same_bits(mine, ref):
        assert np.array_equal(np.asarray(mine).view(np.int64), np.asarray(ref).view(np.int64))

    for mu in mus:
        lo, hi = detection._poisson_window(mu)
        end = detection._tail_end(0, mu)
        ref_cdf = np.cumsum(_unwindowed_pmf(end, mu, lgamma_table))
        q = THRESHOLD_TAIL_QUANTILE
        assert detection._poisson_ppf(q, mu) == int(np.searchsorted(ref_cdf, q))
        for n in sorted({max(lo - 1, 0), (lo + end) // 2, end, hi + 5}):
            ref = _unwindowed_pmf(detection._tail_end(n, mu), mu, lgamma_table)
            same_bits(_pmf_table(n, mu), ref[: n + 1])
            # the even-dof chi-square tail is the Poisson cdf at n
            same_bits(detection._chi2_sf(2 * mu, 2 * (n + 1)), np.cumsum(ref[: n + 1])[-1])
            ref_sf = np.cumsum(ref[:0:-1])[::-1][: n + 1]
            same_bits(detection._poisson_sf(n, mu), ref_sf)
            # a table from `start` is the same table's end, down to one entry
            for start in sorted({max(lo - 2, 0), lo, n // 2, n}):
                same_bits(detection._poisson_sf(n, mu, start), ref_sf[start:])
        # every term outside the window is 0.0: its Chernoff exponents reach 800
        full = _unwindowed_pmf(hi + 5, mu, lgamma_table)
        assert not full[:lo].any() and not full[hi + 1:].any()
        assert lo == 0 or (mu - lo + 1) ** 2 / (2 * mu) >= 800
        assert (hi + 1 - mu) ** 2 / (2 * (hi + 1)) >= 800


def test_decompose_and_threshold_evaluate_only_the_window(monkeypatch):
    # at mu0 = 1e6 every integer lgamma(j + 1) lies in some component's
    # window, the lowest starting at the smallest mean's; the fit's
    # chi-square tail, which evaluates its own window at s / 2, is stubbed
    calls = []

    def counting_lgamma(x, lgamma=math.lgamma):
        calls.append(x)
        return lgamma(x)

    model = mixture_from_params(0.61, 3, 0.94, 1e6)
    hist = simulate_ensemble(mixture_matched_config(0.61, 0.94, 1e6, seed=2), 300).histogram
    lo, _ = detection._poisson_window(float(model.means.min()))
    monkeypatch.setattr(detection, "_chi2_sf", lambda s, dof: 1.0)
    monkeypatch.setattr(math, "lgamma", counting_lgamma)
    decompose(hist, model)
    optimal_threshold(model)
    integer = [x for x in calls if x % 1 == 0]
    assert lo == 49_776
    assert min(integer) == lo + 1


def test_running_sums_stop_at_each_component_window(monkeypatch):
    # at mu0 = 1e6 and cap 100 the count range is about 1e6 wide, while most
    # of the 101 component means lie far below 1: each cdf and tail sum runs
    # over its own component's window, never past its top, and no component
    # gets a tail table over the whole count range
    model = mixture_from_params(0.61, 100, 0.94, 1e6)
    hist = CountHistogram(np.bincount(np.random.default_rng(2).poisson(1e6, 300)))
    means, sums, tables = [], [], []
    real_terms, real_sf, real_cumsum = detection._poisson_terms, detection._poisson_sf, np.cumsum

    def recording_terms(n, mu, start=0):
        means.append(mu)
        return real_terms(n, mu, start)

    def recording_sf(n, mu, start=0):
        if n > start:
            tables.append(mu)
        return real_sf(n, mu, start)

    def recording_cumsum(a):  # every running sum is over the terms made last
        sums.append((len(a), detection._poisson_window(means[-1])[1] + 1))
        return real_cumsum(a)

    monkeypatch.setattr(detection, "_poisson_terms", recording_terms)
    monkeypatch.setattr(detection, "_poisson_sf", recording_sf)
    monkeypatch.setattr(np, "cumsum", recording_cumsum)
    decompose(hist, model)
    optimal_threshold(model)
    assert set(model.means.tolist()) <= set(means)
    assert len(sums) >= len(model.components)
    assert all(length <= top for length, top in sums), max(sums)
    # a whole table only for the ungated tail row, none per component
    assert len(tables) <= 1, tables


# ---------------------------------------------------------------------------
# CountHistogram


def test_histogram_construction_and_stats():
    samples = [3, 3, 5, 0, 0, 0]
    hist = CountHistogram(np.bincount(samples, minlength=9))  # trailing zeros dropped
    assert hist.total == 6
    assert hist.runs.tolist() == [3, 0, 0, 2, 0, 1]
    assert hist.max_event == 5
    assert hist.runs.dtype == np.int64 and not hist.runs.flags.writeable
    assert hist.mean() == 11 / 6
    assert hist.variance() == pytest.approx(np.var(samples, ddof=1), rel=1e-15)


def test_histogram_variance_is_one_sequential_sum():
    # the same bits on every Python: a left-to-right loop, not the builtin
    # sum, which compensates from 3.12 and here would round differently
    hist = CountHistogram(np.random.default_rng(0).integers(0, 50, 34))
    m = hist.mean()
    terms = [v * (k - m) ** 2 for k, v in hist.bins()]
    sequential = 0.0
    for term in terms:
        sequential += term
    assert sequential != math.fsum(terms)
    assert hist.variance() == sequential / (hist.total - 1)


def test_histogram_validation():
    with pytest.raises(DomainError):
        CountHistogram(np.array([2, -1]))
    with pytest.raises(DomainError):
        CountHistogram(np.ones((2, 2), dtype=int))
    with pytest.raises(DomainError):
        CountHistogram(np.array([1.0, 2.0]))


def _nonzero_bins(hist):
    return {int(k): int(hist.runs[k]) for k in np.flatnonzero(hist.runs)}


def test_histogram_csv_round_trip(tmp_path):
    hist = CountHistogram(np.bincount([0] * 12 + [3] * 5 + [17]))
    assert output_writer(tmp_path).histogram("hist", hist) == "hist.csv"
    path = tmp_path / "hist.csv"
    assert path.read_text(encoding="utf-8") == "events,runs\n0,12\n3,5\n17,1\n"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert {int(k): int(v) for k, v in rows} == _nonzero_bins(hist)


def test_histogram_json_round_trip(tmp_path):
    hist = CountHistogram(np.bincount([2] * 7 + [9] * 3 + [10]))
    assert output_writer(tmp_path, "json").histogram("hist", hist) == "hist.json"
    path = tmp_path / "hist.json"
    # keys sort as strings
    assert path.read_text(encoding="utf-8") == '{\n  "10": 1,\n  "2": 7,\n  "9": 3\n}\n'
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert {int(k): v for k, v in obj.items()} == _nonzero_bins(hist)


# ---------------------------------------------------------------------------
# MixtureModel / mixture_from_params


def test_mixture_validation():
    with pytest.raises(DomainError):
        MixtureModel(components=((0.5, 10.0), (0.4, 3.0)))  # weights don't sum to 1
    with pytest.raises(DomainError):
        MixtureModel(components=((0.5, 3.0), (0.5, 10.0)))  # increasing means
    with pytest.raises(DomainError):
        MixtureModel(components=((1.5, 3.0), (-0.5, 1.0)))


def test_mixture_from_params_zero_stored():
    model = mixture_from_params(0.0, 3, 0.94, 20.0)
    assert model.weights[0] == 1.0
    assert np.all(model.weights[1:] == 0.0)
    assert model.means[0] == 20.0


def test_mixture_from_params_weights_and_means():
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    w = model.weights
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
    # Poisson head + blockade tail
    for k in range(3):
        assert w[k] == pytest.approx(math.exp(-0.61) * 0.61**k / math.factorial(k), abs=1e-14)
    assert w[3] == pytest.approx(1.0 - sum(w[:3]), abs=1e-14)
    for k in range(4):
        assert model.means[k] == pytest.approx(20.0 * math.exp(-0.94 * k), abs=1e-12)


def test_gated_composition_matches_paper_rounding():
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    w = model.weights
    cond = w[1:] / model.w_gated
    # frozen exact arithmetic; the paper rounds these to 73% and 22%
    assert cond[0] == pytest.approx(0.725817718000909, abs=1e-12)
    assert cond[1] == pytest.approx(0.221374403990277, abs=1e-12)
    assert cond[2] == pytest.approx(0.052807878008814, abs=1e-12)
    assert round(cond[0], 2) == 0.73
    assert round(cond[1], 2) == 0.22


def test_mixture_od_zero_all_means_equal():
    model = mixture_from_params(0.61, 3, 0.0, 20.0)
    assert np.all(model.means == 20.0)


def test_gated_mass_fraction():
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    assert model.w_gated == pytest.approx(-math.expm1(-0.61), abs=1e-12)
    assert model.w_gated == pytest.approx(0.457, abs=5e-4)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_pure_ungated_model():
    model = mixture_from_params(0.0, 3, 0.94, 10.0)
    observed = CountHistogram(np.bincount(np.random.default_rng(0).poisson(10.0, 200)))
    deco = decompose(observed, model)
    assert np.all(deco.model_gated == 0.0)
    assert np.sum(deco.model_ungated) == pytest.approx(observed.total, rel=1e-9)


def test_decompose_bins_sum_to_total():
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    res = simulate_ensemble(mixture_matched_config(0.61, 0.94, 20.0, seed=2), 250)
    deco = decompose(res.histogram, model)
    assert np.sum(deco.model_total) == pytest.approx(250.0, rel=1e-9)
    assert np.allclose(deco.model_gated + deco.model_ungated, deco.model_total, rtol=1e-12)
    assert np.array_equal(deco.observed[:len(res.histogram.runs)], res.histogram.runs)
    assert not deco.observed[len(res.histogram.runs):].any()


def test_decompose_empty_histogram_errors():
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    with pytest.raises(InsufficientDataError):
        decompose(CountHistogram(np.zeros(5, dtype=np.int64)), model)


def test_decompose_gated_mass_against_simulation_truth():
    # the simulator knows the true stored number per run
    n_runs = 5000
    res = simulate_ensemble(mixture_matched_config(0.61, 0.94, 20.0, seed=3), n_runs)
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    deco = decompose(res.histogram, model)
    true_gated = int(res.joint[1:].sum())
    gated_runs = n_runs * model.w_gated  # model-expected number of gated runs
    assert np.sum(deco.model_gated) == pytest.approx(gated_runs, rel=1e-9)
    sigma = math.sqrt(n_runs * model.w_gated * (1.0 - model.w_gated))
    assert abs(gated_runs - true_gated) <= 3 * sigma


def test_decompose_csv_columns(tmp_path):
    model = mixture_from_params(0.61, 3, 0.94, 15.0)
    res = simulate_ensemble(mixture_matched_config(0.61, 0.94, 15.0, seed=4), 250)
    deco = decompose(res.histogram, model)
    # CSV in either format
    assert output_writer(tmp_path, "json").csv_table(
        "decomposition", *cli.decomposition_table(deco)) == "decomposition.csv"
    path = tmp_path / "decomposition.csv"
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "events,observed,model_total,model_gated,model_ungated"


@pytest.mark.parametrize("mu0", [15.0, 1e5])
def test_decompose_csv_bytes_match_csv_writer(mu0, tmp_path):
    # 15: 32 bins; 1e5: about 1e5 bins, nearly all of them empty
    model = mixture_from_params(0.61, 3, 0.94, mu0)
    observed = CountHistogram(np.bincount(np.random.default_rng(6).poisson(mu0, 300)))
    deco = decompose(observed, model)
    output_writer(tmp_path).csv_table("decomposition", *cli.decomposition_table(deco))
    path = tmp_path / "decomposition.csv"
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["events", "observed", "model_total", "model_gated", "model_ungated"])
        for i, n in enumerate(deco.events):
            writer.writerow([int(n), int(deco.observed[i]), repr(float(deco.model_total[i])),
                             repr(float(deco.model_gated[i])), repr(float(deco.model_ungated[i]))])
    assert path.read_bytes() == reference.read_bytes()


def test_decomposition_rows_stream_in_chunks(monkeypatch, tmp_path):
    # zero cells are written as str(0) and repr(0.0), and -0.0 and the
    # smallest subnormal with repr too; rows are converted from the columns in
    # chunks, and the chunk size does not show in the bytes
    deco = detection.DecompositionResult(
        events=np.arange(5), observed=np.array([0, 2, 0, 0, 1]),
        model_total=np.array([0.0, 2.5, 1e-300, 5e-324, 0.0]),
        model_gated=np.array([0.0, -0.0, 0.0, 0.0, 0.0]),
        model_ungated=np.array([0.0, 2.5, 1e-300, 5e-324, 0.0]),
        chi2=0.0, dof=0, p_value=1.0)
    expected = ("events,observed,model_total,model_gated,model_ungated\n"
                "0,0,0.0,0.0,0.0\n1,2,2.5,-0.0,2.5\n2,0,1e-300,0.0,1e-300\n"
                "3,0,5e-324,0.0,5e-324\n4,1,0.0,0.0,0.0\n")
    for chunk, directory in [(cli.ROW_CHUNK, tmp_path / "one"), (2, tmp_path / "three")]:
        monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
        directory.mkdir()
        output_writer(directory).csv_table("decomposition", *cli.decomposition_table(deco))
        assert (directory / "decomposition.csv").read_text(encoding="utf-8") == expected


def _pooled_chi2_every_bin(observed, expected):
    """detection._pooled_chi2 as it was before 0.8.0: it visits every bin."""
    pooled_obs, pooled_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed, expected):
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
    return stat, dof, detection._chi2_sf(stat, dof)


def test_pooled_chi2_skips_only_empty_bins():
    # a bin with o = 0 and e = 0.0 leaves the sums alone, so skipping such
    # bins gives the same chi2, dof and p-value bit for bit
    cases = []
    for mu0 in (15.0, 1e5):  # 1e5: nearly every bin is empty
        observed = CountHistogram(np.bincount(np.random.default_rng(6).poisson(mu0, 300)))
        deco = decompose(observed, mixture_from_params(0.61, 3, 0.94, mu0))
        cases.append((deco.observed.astype(float), deco.model_total))
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        keep = rng.random(n) < rng.random()
        cases.append((np.where(keep, rng.poisson(3.0, n), 0).astype(float),
                      np.where(keep | (rng.random(n) < 0.2), rng.exponential(3.0, n), 0.0)))
    for observed, expected in cases:
        assert detection._pooled_chi2(observed, expected) == \
            _pooled_chi2_every_bin(observed, expected)


def test_decompose_calibration_on_exact_model():
    # goodness of fit is honest: simulated-from-model histograms pass p > 0.01
    ok = 0
    seeds = 200
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    for s in range(seeds):
        res = simulate_ensemble(mixture_matched_config(0.61, 0.94, 20.0, seed=10_000 + s), 250)
        ok += decompose(res.histogram, model).p_value > 0.01
    assert ok / seeds >= 0.95


# ---------------------------------------------------------------------------
# optimal_threshold


def test_threshold_requires_gated_weight():
    with pytest.raises(DomainError):
        optimal_threshold(mixture_from_params(0.0, 3, 0.94, 20.0))


@pytest.mark.oracle
def test_threshold_exhaustive_optimality():
    from scipy.stats import poisson

    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    thr = optimal_threshold(model)
    tau_max = int(poisson.ppf(0.9999, 20.0))
    scores = detection._threshold_scores(model, tau_max)[0]
    fidelities = {tau: float(scores[tau + 1]) for tau in range(-1, tau_max + 1)}
    assert thr.fidelity == max(fidelities.values())
    best = [tau for tau, f in fidelities.items() if f == thr.fidelity]
    assert thr.tau == min(best)  # ties break toward the smaller threshold
    assert thr.fidelity == pytest.approx(
        model.w_gated * thr.p_detect_given_gated
        + model.w_ungated * thr.p_reject_given_ungated,
        abs=1e-12,
    )


def _scipy_threshold_scan(model):
    """The per-tau scipy.stats threshold scan the table replaced."""
    from scipy.stats import poisson

    w, mus = model.weights, model.means
    best = None
    for tau in range(-1, int(poisson.ppf(THRESHOLD_TAIL_QUANTILE, mus.max())) + 1):
        p_detect = (sum(w[k] * poisson.cdf(tau, mus[k]) for k in range(1, len(w)))
                    / model.w_gated if tau >= 0 else 0.0)
        p_reject = poisson.sf(tau, mus[0]) if tau >= 0 else 1.0
        fidelity = model.w_gated * p_detect + w[0] * p_reject
        if best is None or fidelity > best[0]:
            best = (fidelity, tau, p_detect, p_reject)
    return best


@pytest.mark.oracle
def test_threshold_and_decomposition_match_scipy():
    from scipy.stats import chi2 as chi2_dist
    from scipy.stats import poisson

    rng = np.random.default_rng(72)
    for n_stored, od, mu0 in [(0.61, 0.94, 10.0), (0.61, 0.94, 40.0), (0.61, 2.2, 25.0),
                              (2.5, 0.3, 1e3), (0.05, 5.0, 0.7), (0.61, 0.94, 1e4)]:
        model = mixture_from_params(n_stored, 3, od, mu0)
        thr = optimal_threshold(model)
        fidelity, tau, p_detect, p_reject = _scipy_threshold_scan(model)
        rtol = 1e-12 if mu0 <= 100 else 1e-9
        assert thr.fidelity == pytest.approx(fidelity, rel=rtol)
        if mu0 <= 100:  # larger means separate fully: fidelity 1 on a plateau of tau
            assert thr.tau == tau
            assert thr.p_detect_given_gated == pytest.approx(p_detect, rel=rtol)
            assert thr.p_reject_given_ungated == pytest.approx(p_reject, rel=rtol)

        observed = CountHistogram(np.bincount(rng.poisson(mu0 * np.exp(
            -od * np.minimum(rng.poisson(n_stored, 400), 3)))))
        deco = decompose(observed, model)
        n_max = max(observed.max_event, int(poisson.ppf(THRESHOLD_TAIL_QUANTILE, mu0)))
        assert deco.events[-1] == n_max
        for column, ks in ((deco.model_ungated, [0]), (deco.model_gated, [1, 2, 3])):
            ref = sum(observed.total * model.weights[k] * poisson.pmf(deco.events,
                                                                     model.means[k])
                      for k in ks)
            ref[-1] += sum(observed.total * model.weights[k] * poisson.sf(n_max, model.means[k])
                           for k in ks)
            np.testing.assert_allclose(column, ref, rtol=rtol, atol=1e-290)
        assert deco.p_value == pytest.approx(chi2_dist.sf(deco.chi2, deco.dof), rel=1e-12)


def test_threshold_scores_do_not_depend_on_table_length():
    # so any table that reaches a threshold scores it as optimal_threshold does
    model = mixture_from_params(0.61, 3, 0.94, 20.0)
    short = detection._threshold_scores(model, 40)
    long = detection._threshold_scores(model, 90)
    for a, b in zip(short, long):
        assert np.array_equal(a, b[:len(a)])


def test_threshold_ties_break_toward_smaller_tau(monkeypatch):
    # exact ties are rare in real models, so feed the scorer's output directly
    scores = (np.array([0.5, 0.8, 0.9, 0.9, 0.9, 0.2]), np.linspace(0.0, 1.0, 6),
              np.linspace(1.0, 0.0, 6))
    monkeypatch.setattr(detection, "_threshold_scores", lambda model, tau_max: scores)
    thr = optimal_threshold(mixture_from_params(0.61, 3, 0.94, 20.0))
    assert thr.tau == 1 and thr.fidelity == 0.9
    assert (thr.p_detect_given_gated, thr.p_reject_given_ungated) == (0.4, 0.6)


def test_threshold_perfect_separation_limit():
    model = mixture_from_params(0.61, 3, 50.0, 30.0)
    thr = optimal_threshold(model)
    assert thr.fidelity > 0.999
    assert thr.p_detect_given_gated > 0.999
    assert not thr.non_discriminating


def test_threshold_degenerate_od_zero():
    model = mixture_from_params(0.61, 3, 0.0, 20.0)
    thr = optimal_threshold(model)
    assert thr.non_discriminating
    assert thr.fidelity == pytest.approx(max(model.w_ungated, model.w_gated), abs=1e-12)
    assert thr.tau == -1  # ungated majority: never declare presence


def test_threshold_degenerate_gated_majority():
    model = mixture_from_params(3.0, 3, 0.0, 20.0)  # w_gated = 1 - e^-3 > 1/2
    thr = optimal_threshold(model)
    assert thr.non_discriminating
    assert thr.fidelity == pytest.approx(model.w_gated, abs=1e-12)
    assert thr.p_detect_given_gated == 1.0


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=5.0, max_value=40.0),
)
@settings(max_examples=30, deadline=None)
def test_threshold_fidelity_not_decreasing_in_od(n_stored, od, mu0):
    lo = optimal_threshold(mixture_from_params(n_stored, 3, od, mu0))
    hi = optimal_threshold(mixture_from_params(n_stored, 3, od + 0.5, mu0))
    assert hi.fidelity >= lo.fidelity - 1e-9


def test_threshold_scaling_invariance_only_when_degenerate():
    # scaling mu0 moves the fidelity for any discriminating model, but the
    # degenerate od = 0 model pins it at the trivial-classifier value
    f1 = optimal_threshold(mixture_from_params(0.61, 3, 0.94, 10.0)).fidelity
    f2 = optimal_threshold(mixture_from_params(0.61, 3, 0.94, 40.0)).fidelity
    assert abs(f1 - f2) > 1e-3
    g1 = optimal_threshold(mixture_from_params(0.61, 3, 0.0, 10.0)).fidelity
    g2 = optimal_threshold(mixture_from_params(0.61, 3, 0.0, 40.0)).fidelity
    assert g1 == g2


# ---------------------------------------------------------------------------
# poissonness_test


def test_poissonness_requires_data():
    with pytest.raises(InsufficientDataError):
        poissonness_test(CountHistogram(np.bincount([3] * 29)))


def test_poissonness_single_bin_underdispersed():
    hist = CountHistogram(np.bincount([7] * 50))
    res = poissonness_test(hist, seed=1)
    assert res.index == 0.0
    assert not res.passed


def test_poissonness_all_zero_vacuous():
    res = poissonness_test(CountHistogram(np.bincount([0] * 100)), seed=1)
    assert res.index == 0.0
    assert res.passed


def test_poissonness_pass_rate_on_exact_poisson():
    rng = np.random.default_rng(77)
    trials = 60
    passes = sum(
        poissonness_test(
            CountHistogram(np.bincount(rng.poisson(20, 10_000))),
            n_null=300,
            seed=1000 + t,
        ).passed
        for t in range(trials)
    )
    assert 0.90 <= passes / trials <= 1.0  # nominal rate is 95%
    assert passes < trials  # the 5% rejections do occur


def test_poissonness_rejects_gated_mixture():
    fails = 0
    seeds = 40
    for s in range(seeds):
        res = simulate_ensemble(mixture_matched_config(0.61, 0.94, 20.0, seed=500 + s), 250)
        fails += not poissonness_test(res.histogram, seed=s).passed
    assert fails / seeds > 0.5  # overdispersed/bimodal fails in the majority


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed,))))


def _two_sided_p(null_index, index):
    n_low, n_high = np.sum(null_index <= index), np.sum(null_index >= index)
    return min(1.0, 2.0 * min(n_low + 1, n_high + 1) / (len(null_index) + 1))


@pytest.mark.parametrize("chunk_counts", [1, 2**13, 2**16])
def test_poissonness_chunked_null_matches_one_shot_matrix(chunk_counts, monkeypatch):
    # the per-sample path: at mean 1e4 the pmf window (8129 bins) is wider
    # than the 2000 runs; 1: one null row per chunk; 2**13 (the default): 4
    # rows per chunk; 2**16: 32 rows per chunk, the last one partial
    monkeypatch.setattr(detection, "NULL_CHUNK_COUNTS", chunk_counts)
    hist = CountHistogram(np.bincount(np.random.default_rng(5).poisson(1e4, 2000)))
    res = poissonness_test(hist, n_null=200, seed=4)
    # reference: the whole n_null x total null matrix drawn at once
    draws = _philox(4).poisson(hist.mean(), size=(200, hist.total))
    null_index = draws.var(axis=1, ddof=1) / draws.mean(axis=1)
    assert res.p_value == _two_sided_p(null_index, hist.variance() / hist.mean())


@pytest.mark.parametrize("chunk_counts", [1, 2**13, 2**16])
def test_poissonness_chunked_histogram_null_matches_one_shot_matrix(chunk_counts, monkeypatch):
    # the value-count path: at mean 12 the pmf window (0..215) is narrower
    # than the 2000 runs; 1: one null row per chunk; 2**13 (the default): 37
    # rows per chunk; 2**16: 303 rows per chunk; the last one partial
    monkeypatch.setattr(detection, "NULL_CHUNK_COUNTS", chunk_counts)
    hist = CountHistogram(np.bincount(np.random.default_rng(5).poisson(12, 2000)))
    mean = hist.mean()
    res = poissonness_test(hist, n_null=500, seed=4)
    # reference: the whole n_null x window value-count matrix drawn at once
    values = np.arange(0.0, detection._tail_end(0, mean) + 1)
    assert len(values) == 216
    pmf = np.exp(values * math.log(mean) - mean - np.array([math.lgamma(v + 1) for v in values]))
    counts = _philox(4).multinomial(hist.total, pmf / pmf.sum(), size=500)
    samples = [np.repeat(values, row) for row in counts]
    null_index = np.array([x.var(ddof=1) / x.mean() for x in samples])
    assert res.p_value == _two_sided_p(null_index, hist.variance() / mean)


def _one_shot_null_indices(mean, total, n_null, rng):
    """The null as one n_null-row matrix, in the unchunked formulas of 0.15.0."""
    lo, pmf = detection._poisson_terms(detection._tail_end(0, mean), mean)
    values = np.arange(lo, lo + len(pmf), dtype=float)
    by_counts = len(values) < total
    if by_counts:
        counts = rng.multinomial(total, pmf / pmf.sum(), size=n_null)
        m = counts @ values / total
        v = np.sum(counts * (values - m[:, None]) ** 2, axis=1) / (total - 1)
    else:
        draws = rng.poisson(mean, size=(n_null, total))
        m, v = draws.mean(axis=1), draws.var(axis=1, ddof=1)
    return by_counts, np.where(m > 0, v / np.where(m > 0, m, 1.0), 0.0)


@pytest.mark.parametrize("chunk_counts", [1, None, 2**16], ids=["1", "default", "2**16"])
def test_null_indices_bit_identical_to_one_shot_formula(chunk_counts, monkeypatch):
    # chunking and the in-place variance change no bit of any null index, on
    # both paths; the default block is at most 64 KB of int64
    if chunk_counts is None:
        assert detection.NULL_CHUNK_COUNTS * np.dtype(np.int64).itemsize <= 2**16
    else:
        monkeypatch.setattr(detection, "NULL_CHUNK_COUNTS", chunk_counts)
    branches = set()
    for mean, total, seed in itertools.product(
            (0.05, 1.3, 12.0, 40.0, 1e3, 1e4), (30, 200, 3000), (0, 1)):
        by_counts, ref = _one_shot_null_indices(mean, total, 61, _philox(seed))
        got = detection._null_indices(mean, total, 61, _philox(seed))
        assert got.tobytes() == ref.tobytes(), (mean, total, seed)
        branches.add(by_counts)
    assert branches == {True, False}


def test_detect_sweep_draws_every_null_by_value_counts(monkeypatch, tmp_path):
    # detect at 3000 runs, more than the pmf window of every mean of the
    # default sweep (at most 358 counts, at mu0 = 40): every point's null is
    # drawn as value-count rows
    real_null_indices = detection._null_indices
    by_counts = []

    def recording(mean, total, n_null, rng):
        lo, _ = detection._poisson_window(mean)
        by_counts.append(detection._tail_end(0, mean) + 1 - lo < total)
        return real_null_indices(mean, total, n_null, rng)

    monkeypatch.setattr(detection, "_null_indices", recording)
    assert cli.main(["detect", "--runs", "3000", "--output", str(tmp_path)]) == cli.EXIT_OK
    assert by_counts == [True] * 7


@pytest.mark.parametrize("mean", [40.0, 1e4], ids=["value-counts", "per-run"])
def test_poissonness_test_peak_memory_is_bounded(mean):
    # one test on a 3000-run histogram allocates under 0.6 MiB at its peak:
    # 64 KB null blocks, not 512 KB ones (which peaked at 1.1 and 1.2 MiB)
    hist = CountHistogram(np.bincount(np.random.default_rng(3).poisson(mean, 3000)))
    poissonness_test(hist, seed=1)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        poissonness_test(hist, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2**20


def test_per_run_null_builds_no_pmf():
    # at mean 1e4 the pmf window (8129 counts) is wider than 3000 runs, so the
    # null is drawn run by run and needs no pmf: the null peaks at 0.19 MiB
    # (0.48 MiB when it built the pmf over 0..14065 and sliced off its window)
    detection._null_indices(1e4, 3000, 500, _philox(1))
    tracemalloc.start()
    try:
        detection._null_indices(1e4, 3000, 500, _philox(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


@pytest.mark.oracle
def test_poissonness_histogram_null_matches_per_sample_null():
    from scipy.stats import ks_2samp

    # 8 x 500 null indices at mean 10, 3000 runs (window 0..201): value-count
    # rows against per-sample Poisson draws, by a two-sample KS test
    by_counts = np.concatenate(
        [detection._null_indices(10.0, 3000, 500, _philox(s)) for s in range(8)]
    )
    per_sample = []
    for s in range(8):
        draws = _philox(100 + s).poisson(10.0, size=(500, 3000))
        per_sample.append(draws.var(axis=1, ddof=1) / draws.mean(axis=1))
    assert ks_2samp(by_counts, np.concatenate(per_sample)).pvalue > 0.01


@pytest.mark.parametrize("mu", [2.0, 20.0])
def test_poissonness_p_value_matches_fisher_chi2_at_large_n(mu):
    # Fisher's dispersion statistic (N - 1) * index is close to chi-square with
    # N - 1 dof at large N, so the Monte Carlo p-value must agree with the
    # two-sided chi-square one within its binomial standard error
    n_null = 2000
    for s in range(6):
        x = np.random.default_rng(s).poisson(mu, 30_000)
        hist = CountHistogram(np.bincount(x))
        res = poissonness_test(hist, n_null=n_null, seed=s)
        sf = detection._chi2_sf((hist.total - 1) * res.index, hist.total - 1)
        q = min(sf, 1.0 - sf)
        se = 2.0 * math.sqrt(q * (1.0 - q) / n_null)
        assert abs(res.p_value - min(1.0, 2.0 * q)) <= 4.0 * se + 2.0 / (n_null + 1)


def test_poissonness_deterministic():
    hist = CountHistogram(np.bincount(np.random.default_rng(3).poisson(20, 1000)))
    r1 = poissonness_test(hist, seed=9)
    r2 = poissonness_test(hist, seed=9)
    assert r1 == r2
