"""Closed-form model tests: frozen oracle values + algebraic properties."""

import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from rydberg_transistor import models
from rydberg_transistor.detection import MixtureModel, mixture_from_params
from rydberg_transistor.errors import DomainError, UndefinedContrastError


# ---------------------------------------------------------------------------
# independent oracles


def contrast_by_truncated_sum(mean, od, cap, k_max=200):
    """Term-by-term Poisson summation, independent of the closed-form split."""
    total = 0.0
    for k in range(k_max + 1):
        if mean == 0:
            pmf = 1.0 if k == 0 else 0.0
        else:
            pmf = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        total += pmf * math.exp(-min(k, cap) * od)
    return 1.0 - total


def invert_contrast_for_od(target, n_gate, cap, lo=0.0, hi=50.0):
    """Bisection on the truncated-sum oracle: od giving the target contrast."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if contrast_by_truncated_sum(n_gate, mid, cap) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# switch_contrast


def test_switch_contrast_trivial_cases():
    assert models.switch_contrast(0.0, 5.0) == 1.0
    assert models.switch_contrast(5.0, 5.0) == 0.0


@pytest.mark.parametrize("no_gate", [1.0, 5.0, 20.7])
def test_switch_contrast_inverts_paper_value(no_gate):
    # with = 0.61 * no_gate corresponds to the measured contrast 0.39
    assert models.switch_contrast(0.61 * no_gate, no_gate) == pytest.approx(
        0.39, abs=1e-12
    )


def test_switch_contrast_errors():
    with pytest.raises(UndefinedContrastError):
        models.switch_contrast(1.0, 0.0)
    with pytest.raises(DomainError):
        models.switch_contrast(-1.0, 5.0)
    with pytest.raises(DomainError):
        models.switch_contrast(1.0, -5.0)


# ---------------------------------------------------------------------------
# coherent limit


def test_coherent_limit_values():
    assert models.coherent_limit(0.0) == 0.0
    # frozen from high-precision evaluation of 1 - e^-1 and 1 - e^-0.75
    assert models.coherent_limit(1.0) == pytest.approx(0.6321205588285577, abs=1e-12)
    assert models.coherent_limit(0.75) == pytest.approx(0.5276334472589853, abs=1e-12)
    with pytest.raises(DomainError):
        models.coherent_limit(-0.1)


@given(st.floats(min_value=0.0, max_value=50.0))
def test_coherent_limit_bounded(n):
    assert 0.0 <= models.coherent_limit(n) <= 1.0


@given(st.floats(min_value=0.0, max_value=33.0))
def test_coherent_limit_strictly_increasing(n):
    # above ~36 the step is below double resolution, so test the strict
    # increase only where it is representable
    assert models.coherent_limit(n + 0.5) > models.coherent_limit(n)


# ---------------------------------------------------------------------------
# blockade-capped contrast models


def test_expected_contrast_incoming_against_oracle():
    assert models.expected_contrast_incoming(0.0, 0.75, 3) == 0.0
    got = models.expected_contrast_incoming(1.04, 0.75, 3)
    assert got == pytest.approx(contrast_by_truncated_sum(1.04, 0.75, 3), abs=1e-12)
    assert got == pytest.approx(0.421, abs=5e-4)
    # consistent with the measured 0.39(4)
    assert abs(got - 0.39) <= 0.04


def test_expected_contrast_incoming_saturates_at_cap():
    limit = -math.expm1(-3 * 0.75)  # 1 - e^-2.25
    assert models.expected_contrast_incoming(100.0, 0.75, 3) == pytest.approx(
        limit, abs=1e-9
    )
    assert limit == pytest.approx(0.8946007754381357, abs=1e-12)


def test_expected_contrast_stored_against_oracle():
    assert models.expected_contrast_stored(0.0, 2.2, 3) == 0.0
    got = models.expected_contrast_stored(0.61, 0.94, 3)
    assert got == pytest.approx(contrast_by_truncated_sum(0.61, 0.94, 3), abs=1e-12)


def test_expected_contrast_stored_linear_regime():
    # first-order Taylor: C(eps) ~ (1 - e^-od) * eps
    for od in (0.4, 0.94, 2.2):
        got = models.expected_contrast_stored(1e-12, od, 3)
        assert got == pytest.approx(-math.expm1(-od) * 1e-12, rel=1e-6)


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150)
def test_closed_form_matches_truncated_sum(n, od, cap):
    closed = models.expected_contrast_incoming(n, od, cap)
    assert abs(closed - contrast_by_truncated_sum(n, od, cap)) <= 1e-12


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=1, max_value=6),
)
def test_contrast_bounded_by_coherent_limit(n, od, cap):
    assert models.expected_contrast_incoming(n, od, cap) <= (
        models.coherent_limit(n) + 1e-12
    )


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=1, max_value=5),
)
def test_contrast_monotone_in_mean_and_od(n, dn, od, dod, cap):
    base = models.expected_contrast_incoming(n, od, cap)
    assert models.expected_contrast_incoming(n + dn, od, cap) >= base - 1e-12
    assert models.expected_contrast_incoming(n, od + dod, cap) >= base - 1e-12


def test_contrast_curve_matches_scalar():
    ns = np.array([0.0, 0.3, 1.04, 5.0, 17.0])
    curve = models.contrast_curve(ns, 0.75, 3)
    assert type(curve) is list and len(curve) == len(ns)
    for n, c in zip(ns, curve):
        assert type(c) is float
        assert c == models.expected_contrast_incoming(float(n), 0.75, 3)


@pytest.mark.parametrize("cap", range(1, 7))
def test_capped_poisson_weights_against_scipy(cap):
    means = [0.0, 1e-12, 0.61, 50.0, 1e3]
    ods = [0.0, 0.75, 2.2, 40.0]
    curves = [models.contrast_curve(means, od, cap) for od in ods]
    for i, mean in enumerate(means):
        weights = models.capped_poisson_weights(mean, cap)
        assert len(weights) == cap + 1
        assert all(type(w) is float for w in weights)
        oracle = np.append(poisson.pmf(np.arange(cap), mean), poisson.sf(cap - 1, mean))
        np.testing.assert_allclose(weights, oracle, rtol=1e-12, atol=1e-15)
        assert weights[-1] >= 0
        assert abs(sum(weights) - 1.0) <= 1e-12
        for j, od in enumerate(ods):
            contrast = models.contrast_from_weights(weights, od)
            assert type(contrast) is float
            # one recurrence and one sum, for a mean alone or in a sequence
            assert contrast == models.contrast_curve(mean, od, cap) == curves[j][i]
            attenuation = np.dot(oracle, np.exp(-od * np.arange(cap + 1)))
            assert contrast == pytest.approx(1.0 - attenuation, abs=1e-12)
    with pytest.raises(DomainError):
        models.contrast_curve([0.5, -1e-9], 0.75, cap)
    with pytest.raises(DomainError):
        models.capped_poisson_weights(-1e-9, cap)
    with pytest.raises(DomainError):
        models.capped_poisson_weights(0.5, cap + 0.5)


# every closed form, in an interpreter where importing numpy fails
CLOSED_FORMS_WITHOUT_NUMPY = """
import math, sys
sys.modules["numpy"] = None
from rydberg_transistor import models
params, sat = models.TransistorParams(), models.SaturationParams()
weights = models.capped_poisson_weights(0.61, 3)
values = [
    models.switch_contrast(0.6, 1.0), models.coherent_limit(1.0),
    models.expected_contrast_incoming(0.75, 0.75), models.expected_contrast_stored(0.61, 0.94),
    *weights, models.contrast_from_weights(weights, 0.94), models.contrast_curve(1.0, 0.75),
    *models.contrast_curve([0.25, 1.0, 3.5], 0.75), *models.contrast_curve((0.5,), 2.2, 1),
    models.fock_contrast(1, 0.75), models.transfer(25.0, sat), models.gain(46.0, 36.0),
    models.saturation_thinning(25.0, sat),
    *(v for row in models.gain_scan_rows(params, sat, 0.75, [25.0, 250.0]) for v in row.values()),
]
assert all(type(v) is float and math.isfinite(v) for v in values), values
assert models.simulation_violations(0.75, 0.5, 1.0, 1.0, math.inf) == []
assert models.detected_mean_violations(1.0, 1.0, 0.5, sat) == []
assert models.child_seed(7, models.SCAN_POINT, 0) == models.child_seed(7, 0, 0)
assert sys.modules["numpy"] is None
"""


def test_closed_forms_load_no_numpy():
    src = str(Path(models.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CLOSED_FORMS_WITHOUT_NUMPY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", [0.0, 1e-9, 0.61, 1.0, 4.0, 800.0])
def test_infinite_od_reaches_the_coherent_limit(n):
    # only the j = 0 weight, the photon-free pulse, transmits
    limit = models.coherent_limit(n)
    for cap in (1, 3, 100):
        assert models.contrast_curve(n, math.inf, cap) == pytest.approx(limit, abs=1e-15)
        assert models.contrast_curve([n], math.inf, cap)[0] == pytest.approx(limit, abs=1e-15)
    assert models.expected_contrast_incoming(n, math.inf) == pytest.approx(limit, abs=1e-15)
    assert models.expected_contrast_stored(n, math.inf) == pytest.approx(limit, abs=1e-15)


def test_fock_contrast_at_zero_photons_and_infinite_od():
    for od in (0.0, 0.75, math.inf):
        zero = models.fock_contrast(0, od, 3)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    for k in (1, 2, 3, 30):
        assert models.fock_contrast(k, math.inf, 3) == 1.0


@pytest.mark.parametrize("call", [
    lambda: models.capped_poisson_weights(math.nan, 3),
    lambda: models.capped_poisson_weights(math.inf, 3),
    lambda: models.contrast_curve(math.nan, 0.75),
    lambda: models.contrast_curve(1.0, math.nan),
    lambda: models.contrast_from_weights((0.5, 0.5), math.nan),
    lambda: models.coherent_limit(math.nan),
    lambda: models.fock_contrast(math.nan, 0.75),
    lambda: models.fock_contrast(math.inf, 0.75),
    lambda: models.fock_contrast(1, math.nan),
    lambda: models.transfer(math.nan, models.SaturationParams()),
    lambda: models.saturation_thinning(math.nan, models.SaturationParams()),
    lambda: models.switch_contrast(math.nan, 1.0),
    lambda: models.switch_contrast(1.0, math.nan),
    lambda: models.gain(math.nan, 1.0),
    lambda: mixture_from_params(math.nan, 3, 0.94, 20.0),
    lambda: mixture_from_params(0.61, 3, math.nan, 20.0),
    lambda: MixtureModel(((0.5, 20.0), (math.nan, 5.0))),
    lambda: MixtureModel(((1.0, math.nan),)),
], ids=["weights-nan-mean", "weights-inf-mean", "curve-nan-mean", "curve-nan-od",
        "from-weights-nan-od", "coherent-nan", "fock-nan-k", "fock-inf-k", "fock-nan-od",
        "transfer-nan", "thinning-nan", "contrast-nan-with", "contrast-nan-no", "gain-nan",
        "mixture-nan-mean", "mixture-nan-od", "mixture-nan-weight",
        "mixture-nan-component-mean"])
def test_nan_fails_every_domain_check(call):
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# Fock contrast


def test_fock_contrast_values():
    assert models.fock_contrast(0, 0.75, 3) == 0.0
    single = models.fock_contrast(1, 0.75, 3)
    assert single == pytest.approx(0.5276334472589853, abs=1e-12)
    assert abs(single - 0.53) <= 0.02  # measured single-photon contrast
    assert models.fock_contrast(5, 0.75, 3) == pytest.approx(
        -math.expm1(-2.25), abs=1e-15
    )


@given(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=1, max_value=6),
)
def test_fock_contrast_cap_saturation(k, od, cap):
    if k >= cap:
        assert models.fock_contrast(k, od, cap) == models.fock_contrast(cap, od, cap)


def test_cap_is_bounded_by_cap_max():
    # one bound for the records and the closed forms, and through them for the
    # engine, the contrast fit and the detection mixture
    from rydberg_transistor.fitting import DataSet, fit_od

    cap_max = models.CAP_MAX
    assert cap_max == 100
    assert models.TransistorParams(cap=cap_max).cap == cap_max
    assert len(models.capped_poisson_weights(0.5, cap_max)) == cap_max + 1
    data = DataSet(x=[0.5, 1.0, 2.0], y=[0.3, 0.5, 0.7], sigma=[0.05, 0.05, 0.05])
    for cap in (cap_max + 1, 1e12, math.inf, math.nan):
        with pytest.raises(DomainError, match=f"; cap <= {cap_max}; "):
            models.TransistorParams(od_sp=-1.0, cap=cap, eta_det=0.0)
        for call in (lambda: models.capped_poisson_weights(0.5, cap),
                     lambda: models.fock_contrast(1, 0.5, cap),
                     lambda: mixture_from_params(0.61, cap, 0.94, 20.0),
                     lambda: fit_od(data, cap=cap)):
            with pytest.raises(DomainError, match=r"cap must be an integer in \[1, 100\]"):
                call()


# ---------------------------------------------------------------------------
# transfer function and gain


SAT = models.SaturationParams(a=46.0, b=70.0)


def test_transfer_values():
    assert models.transfer(0.0, SAT) == 0.0
    assert models.transfer(70.0, SAT) == pytest.approx(29.077545706113654, abs=1e-12)
    assert models.transfer(1e7, SAT) == pytest.approx(46.0, rel=1e-12)
    with pytest.raises(DomainError):
        models.transfer(-1.0, SAT)


@given(
    st.floats(min_value=0.1, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=120.0),
)
def test_transfer_strictly_increasing(a, u, v, b):
    sat = models.SaturationParams(a=a, b=b)
    x, y = sorted((u, v))
    x, y = 12.0 * b * x, 12.0 * b * y
    if y - x < 1e-6 * b:
        y = x + 1e-6 * b
    assert models.transfer(x, sat) < models.transfer(y, sat)


@given(
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=1.0, max_value=120.0),
)
def test_transfer_concave(x, y, b):
    sat = models.SaturationParams(a=46.0, b=b)
    mid = models.transfer(0.5 * (x + y), sat)
    chord = 0.5 * (models.transfer(x, sat) + models.transfer(y, sat))
    assert mid >= chord - 1e-12 * sat.a


def test_gain_values():
    assert models.gain(46.0, 46.0) == 0.0
    assert models.gain(46.0, 46.0 * (1 - 0.22)) == pytest.approx(10.12, abs=1e-12)
    stored = models.gain(46.0, 46.0 * math.exp(-0.94))
    assert stored == pytest.approx(28.03111957350803, abs=1e-12)
    assert abs(stored - 28.0) <= 2.0  # paper band for the single-excitation gain
    with pytest.raises(DomainError):
        models.gain(-1.0, 0.0)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.5, max_value=3000.0))
def test_contrast_constant_across_source_inputs(c, n_src):
    # algebraic identity behind the constant-contrast observation
    t = models.transfer(n_src, SAT)
    if t == 0.0:
        return
    assert models.switch_contrast(t * (1.0 - c), t) == pytest.approx(c, abs=1e-12)


# ---------------------------------------------------------------------------
# predicted gain: gain_scan_rows, the one place C * transfer is computed


def _gain_row(params, n_gate, n_src):
    return models.gain_scan_rows(params, SAT, n_gate, [n_src])[0]


def test_predicted_gain_zero_gate():
    params = models.TransistorParams()
    for n_src in (0.0, 10.0, 500.0):
        assert _gain_row(params, 0.0, n_src)["gain_coherent"] == 0.0


def test_predicted_gain_matches_paper_composition():
    # invert the oracle for the od that gives the measured 90us contrast 0.22
    od = invert_contrast_for_od(0.22, 0.75, 3)
    params = models.TransistorParams(od_sp=od, od_st=0.94, cap=3)
    got = _gain_row(params, 0.75, 50.0 * SAT.b)["gain_coherent"]
    assert got == pytest.approx(0.22 * 46.0, rel=1e-6)
    assert abs(got - 10.0) <= 1.0  # paper G = 10(1)


def test_predicted_gain_single_stored_excitation():
    params = models.TransistorParams(od_st=0.94, cap=3)
    got = _gain_row(params, 0.75, 50.0 * SAT.b)["gain_single_stored"]
    assert got == pytest.approx(46.0 * -math.expm1(-0.94), rel=1e-6)
    assert abs(got - 28.0) <= 2.0  # paper G_st = 28(2)


@given(st.floats(min_value=0.05, max_value=4.0), st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=60)
def test_predicted_gain_saturates_at_c_times_a(n_gate, od):
    # the coherent gain approaches C * a and the single-stored gain
    # (1 - exp(-od_st)) * a, both from below
    params = models.TransistorParams(od_sp=od, od_st=od, cap=3)
    near, far = models.gain_scan_rows(params, SAT, n_gate, [2.0 * SAT.b, 50.0 * SAT.b])
    asymptotes = {"gain_coherent": models.expected_contrast_incoming(n_gate, od, 3) * SAT.a,
                  "gain_single_stored": -math.expm1(-od) * SAT.a}
    for column, asymptote in asymptotes.items():
        assert far[column] == pytest.approx(asymptote, rel=1e-6)
        assert near[column] <= far[column] <= asymptote


def test_predicted_transfer_with_gate_complements_gain():
    params = models.TransistorParams()
    for row in models.gain_scan_rows(params, SAT, 0.75, (5.0, 70.0, 400.0)):
        assert row["with_gate_out"] + row["gain_coherent"] == pytest.approx(
            models.transfer(row["n_source_in"], SAT), rel=1e-12)


# ---------------------------------------------------------------------------
# the detected-mean bound


@given(st.floats(min_value=1e-6, max_value=models.MU0_MAX),
       st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1e-3, max_value=1e6))
@example(models.MU0_MAX, 0.31, 90.0)
def test_detected_mean_bound_passes_every_detection_config(mu0, eta_det, t_int):
    # detection runs at source_rate = mu0 / (eta_det * t_int): no mu0 <= MU0_MAX
    # fails by rounding, and the next double above the bound fails
    assert models.detected_mean_violations(mu0 / (eta_det * t_int), t_int, eta_det) == []
    over = math.nextafter(models.MU0_MAX / (eta_det * t_int), math.inf)
    assert models.detected_mean_violations(over, t_int, eta_det) == [
        "source_rate * t_int * eta_det <= 1e+06"]


# ---------------------------------------------------------------------------
# parameter containers


def test_transistor_params_validation():
    with pytest.raises(DomainError):
        models.TransistorParams(od_sp=-0.1)
    with pytest.raises(DomainError):
        models.TransistorParams(cap=0)
    with pytest.raises(DomainError):
        models.TransistorParams(a_ge=1.0)
    with pytest.raises(DomainError):
        models.TransistorParams(eta_det=0.0)


def test_transistor_params_warns_on_od_ordering():
    with pytest.warns(UserWarning, match="od_sp"):
        models.TransistorParams(od_sp=2.5, od_st=1.0)


def test_od_ordering_warning_names_the_constructing_line():
    with pytest.warns(UserWarning, match="od_sp=2 exceeds") as record:
        models.TransistorParams(od_sp=2, od_st=1)
    here = inspect.currentframe().f_lineno
    assert (record[0].filename, record[0].lineno) == (__file__, here - 1)


def test_saturation_params_validation():
    with pytest.raises(DomainError):
        models.SaturationParams(a=-1.0)
    with pytest.raises(DomainError):
        models.SaturationParams(b=0.0)


TP_BAD = ("TransistorParams violates od_sp >= 0; cap >= 1; cap is an integer; "
          "eta_det in (0, 1]: TransistorParams(od_sp=-1.0, od_st=2.2, cap=0.5, "
          "a_ge=0.15, eta_det=0.0)")


def test_records_validate_on_construction_and_on_every_replace():
    # one DomainError naming every violated invariant, however the record is
    # built: namedtuple's _make and _replace would otherwise skip __new__
    good = models.TransistorParams()
    builds = [
        lambda: models.TransistorParams(-1.0, 2.2, 0.5, 0.15, 0.0),
        lambda: models.TransistorParams(od_sp=-1.0, cap=0.5, eta_det=0.0),
        lambda: good._replace(od_sp=-1.0, cap=0.5, eta_det=0.0),
        lambda: models.TransistorParams._make([-1.0, 2.2, 0.5, 0.15, 0.0]),
    ]
    for build in builds:
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == TP_BAD
    sat = models.SaturationParams()
    for build in (lambda: models.SaturationParams(-1.0, 0.0),
                  lambda: sat._replace(a=-1.0, b=0.0),
                  lambda: models.SaturationParams._make([-1.0, 0.0])):
        with pytest.raises(DomainError, match=r"^SaturationParams violates a >= 0; b > 0: "
                                              r"SaturationParams\(a=-1.0, b=0.0\)$"):
            build()
    from rydberg_transistor.montecarlo import SimConfig

    cfg = SimConfig()
    for build in (lambda: SimConfig(p_store=1.5, seed=-1),
                  lambda: cfg._replace(p_store=1.5, seed=-1),
                  lambda: SimConfig._make([*cfg[:1], 1.5, *cfg[2:7], -1])):
        with pytest.raises(DomainError, match=r"^SimConfig violates p_store in \[0, 1\]; seed is "
                                              r"an unsigned 64-bit integer: SimConfig\(n_gate_in="):
            build()
    # a replaced record keeps the fields it was not given
    assert good._replace(a_ge=0.0) == models.TransistorParams(a_ge=0.0)
    with pytest.raises(ValueError, match="unexpected field"):
        good._replace(od=1.0)


def test_simconfig_replace_validates_with_its_record():
    # _replace on a SimConfig that holds the records: its checks
    # read the records' fields, and a bad record never reaches it
    from rydberg_transistor.montecarlo import SimConfig

    cfg = SimConfig(params=models.TransistorParams(eta_det=0.5))
    with pytest.raises(DomainError) as err:
        cfg._replace(source_rate=1e12, seed=-1)
    assert str(err.value).startswith(
        "SimConfig violates source_rate * t_int * eta_det <= 1e+06; "
        "seed is an unsigned 64-bit integer: SimConfig(n_gate_in=0.75, p_store=")
    assert "params=TransistorParams(od_sp=0.75, od_st=2.2, cap=3, a_ge=0.15, eta_det=0.5)" \
        in str(err.value)
    assert cfg._replace(params=cfg.params._replace(eta_det=0.31)).params.eta_det == 0.31
    with pytest.raises(DomainError) as err:
        cfg._replace(params=cfg.params._replace(od_sp=-1.0, cap=0.5, eta_det=0.0))
    assert str(err.value).startswith("TransistorParams violates od_sp >= 0; cap >= 1")


def test_record_repr_and_pickle():
    # DomainError and exit-3 messages embed the repr
    params = models.TransistorParams(od_sp=0.45, od_st=0.94)
    sat = models.SaturationParams()
    assert repr(params) == ("TransistorParams(od_sp=0.45, od_st=0.94, cap=3, a_ge=0.15, "
                            "eta_det=0.31)")
    assert repr(sat) == "SaturationParams(a=46.0, b=70.0)"
    for record in (params, sat):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
