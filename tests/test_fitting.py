"""Fitting tests: zero-noise round trips, boundary flags, bootstrap behavior."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydberg_transistor import cli, fitting, models
from rydberg_transistor.errors import (
    ConfigError,
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
)
from rydberg_transistor.fitting import (
    DataSet,
    bootstrap_ci,
    fit_od,
    fit_saturation,
    _minimize_1d,
    _od_rows,
    _saturation_rows,
)

GATE_GRID = np.arange(0.25, 3.51, 0.25)


def exact_contrast_data(od, cap=3, sigma=0.04):
    y = models.contrast_curve(GATE_GRID, od, cap)
    return DataSet(x=GATE_GRID, y=y, sigma=np.full_like(GATE_GRID, sigma))


def _fit_point(rows, data):
    """The row fitter ``rows`` on the point row (0, ..., n-1) alone."""
    params, _, (error,) = rows(data, [tuple(range(len(data)))])
    assert error is None
    return {name: values[0] for name, values in params.items()}


def _fit_od_point(data, cap):
    return _fit_point(lambda d, rows: _od_rows(d, rows, cap), data)["od"]


def _fit_saturation_point(data):
    params = _fit_point(_saturation_rows, data)
    return params["a"], params["b"]


def _od_rows_cap3(data, rows):
    return _od_rows(data, rows, 3)


def _no_bootstrap(fit, data, **kwargs):
    """bootstrap_ci's (intervals, resamples used), as zero-width intervals
    without a search: for fits whose point estimate alone is checked."""
    return {name: (0.0, 0.0) for name in ("a", "b", "od")}, 0


def transfer_curve(x, a, b):
    """``models.transfer`` at each input: the curve ``fit_saturation`` fits."""
    sat = models.SaturationParams(a, b)
    return [models.transfer(v, sat) for v in x]


def exact_saturation_data(a=46.0, b=70.0, n=10):
    x = np.linspace(25.0, 250.0, n)
    return DataSet(x=x, y=transfer_curve(x, a, b), sigma=np.ones(n))


def _sse(data, model):
    y, sigma = np.asarray(data.y), np.asarray(data.sigma)
    return np.sum(((y - model) / sigma) ** 2)


# ---------------------------------------------------------------------------
# DataSet


def test_dataset_validation():
    with pytest.raises(DomainError, match="need at least 1 point, got 0"):
        DataSet(x=[], y=[], sigma=[])
    with pytest.raises(DomainError, match="need at least 1 point, got 0"):
        DataSet.from_points([])
    with pytest.raises(DomainError):
        DataSet(x=[1.0, 2.0], y=[1.0, 2.0], sigma=[1.0, 0.0])
    with pytest.raises(DomainError):
        DataSet(x=[-1.0, 2.0], y=[1.0, 2.0], sigma=[1.0, 1.0])
    with pytest.raises(DomainError):
        DataSet(x=[1.0, 2.0], y=[1.0], sigma=[1.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match=f"row 2: x=2.0, y={bad}, sigma=1.0$"):
            DataSet(x=[1.0, 2.0, 3.0], y=[1.0, bad, 3.0], sigma=[1.0, 1.0, 1.0])
    # arrays and lists alike become tuples of Python floats
    from_array = DataSet(x=np.arange(3.0), y=np.ones(3, np.float32), sigma=[1, 2, 3])
    assert from_array.x == (0.0, 1.0, 2.0) and from_array.sigma == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in (*from_array.x, *from_array.y, *from_array.sigma))
    assert len(from_array) == 3
    assert DataSet.from_points(from_array.points).points == from_array.points


def test_fitters_refuse_one_point():
    # a one-point DataSet is valid data (a one-point contrast scan returns
    # one); each fitter names the points it needs
    one = DataSet(x=[1.0], y=[0.4], sigma=[0.05])
    with pytest.raises(InsufficientDataError):
        fit_od(one)
    with pytest.raises(InsufficientDataError):
        fit_saturation(one)
    with pytest.raises(InsufficientDataError):
        bootstrap_ci(_od_rows_cap3, one)


def test_dataset_csv_round_trip(tmp_path):
    # the CLI's writer and dataset loader: repr floats read back exactly
    ds = exact_contrast_data(0.75)
    path = tmp_path / "data.csv"
    cli.write_csv(path, ["x", "y", "sigma"], ds.points)
    back = cli._load_dataset(str(path))
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.sigma, ds.sigma)


def test_dataset_csv_requires_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.5,0.2,0.04\n1.0,0.4,0.04\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="missing header row"):
        cli._load_dataset(str(path))
    assert cli.main(["fit-od", "--input", str(path),
                     "--output", str(tmp_path / "o")]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# fit_od


@pytest.mark.parametrize("od_true", [0.45, 0.75, 0.94, 2.2])
def test_fit_od_round_trip_zero_noise(od_true):
    result = fit_od(exact_contrast_data(od_true), cap=3, mode="incoming")
    assert abs(result.params["od_sp"] - od_true) < 1e-6
    assert result.converged
    assert result.sse < 1e-12
    lo, hi = result.ci_68["od_sp"]
    assert hi - lo < 1e-6  # degenerate resampling on exact data
    assert lo <= result.params["od_sp"] <= hi


def test_fit_od_stored_mode_parameter_name():
    result = fit_od(exact_contrast_data(0.94), cap=3, mode="stored")
    assert abs(result.params["od_st"] - 0.94) < 1e-6


def test_fit_od_zero_boundary_flagged():
    data = DataSet(
        x=GATE_GRID, y=np.zeros_like(GATE_GRID), sigma=np.full_like(GATE_GRID, 0.04)
    )
    with pytest.warns(UserWarning, match="boundary"):
        result = fit_od(data)
    assert "boundary_od_zero" in result.flags
    assert result.params["od_sp"] <= 1e-6


def test_fit_od_flat_top_flagged():
    # y = 1 everywhere: above od ~ 36 the SSE is flat to float resolution, so
    # the search stops anywhere on the plateau and od is not bounded above
    x = np.linspace(0.5, 3.0, 4)
    data = DataSet(x=x, y=np.ones(4), sigma=np.full(4, 0.01))
    with pytest.warns(UserWarning, match="not bound od from above"):
        result = fit_od(data)
    assert result.flags == ("boundary_od_max",)
    assert result.params["od_sp"] > 30.0
    assert fit_od(exact_contrast_data(2.2)).flags == ()


def test_fit_od_rejects_bad_contrasts():
    with pytest.raises(DomainError):
        fit_od(DataSet(x=[1.0, 2.0], y=[0.5, 1.5], sigma=[0.1, 0.1]))
    with pytest.raises(DomainError):
        fit_od(exact_contrast_data(0.75), mode="diagonal")


@given(st.floats(min_value=0.05, max_value=3.0), st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_fit_od_round_trip_property(od_true, cap):
    data = exact_contrast_data(od_true, cap=cap)
    assert abs(_fit_od_point(data, cap) - od_true) < 1e-6


def test_fit_od_objective_unimodal_grid_scan():
    for od_true in (0.3, 0.75, 1.7, 2.9):
        data = exact_contrast_data(od_true)
        grid = np.linspace(0.0, 5.0, 1000)
        sse = np.array(
            [
                np.sum((np.subtract(data.y, models.contrast_curve(data.x, od, 3))
                        / data.sigma) ** 2)
                for od in grid
            ]
        )
        argmin = grid[int(np.argmin(sse))]
        spacing = grid[1] - grid[0]
        assert abs(_fit_od_point(data, 3) - argmin) <= spacing
        # monotone decrease then increase (unimodal) up to float noise
        k = int(np.argmin(sse))
        assert np.all(np.diff(sse[: k + 1]) <= 1e-9)
        assert np.all(np.diff(sse[k:]) >= -1e-9)


def test_fit_od_local_optimality_against_probes():
    rng = np.random.default_rng(5)
    data = exact_contrast_data(0.75)
    noisy = DataSet(
        x=data.x, y=np.clip(data.y + 0.04 * rng.standard_normal(len(data.x)), -0.99, 1.0),
        sigma=data.sigma,
    )
    od_hat = _fit_od_point(noisy, 3)
    def sse(od):
        residual = np.subtract(noisy.y, models.contrast_curve(noisy.x, od, 3))
        return np.sum((residual / noisy.sigma) ** 2)

    best = sse(od_hat)
    for od in rng.uniform(0.0, 50.0, 100):
        probe = sse(od)
        assert best <= probe + 1e-9


# ---------------------------------------------------------------------------
# fit_saturation


def test_fit_saturation_round_trip_zero_noise():
    result = fit_saturation(exact_saturation_data())
    assert abs(result.params["a"] - 46.0) / 46.0 < 1e-4
    assert abs(result.params["b"] - 70.0) / 70.0 < 1e-4
    assert result.converged
    for name in ("a", "b"):
        lo, hi = result.ci_68[name]
        assert lo <= result.params[name] <= hi


def test_fit_saturation_requires_three_points():
    # three distinct x values: the closed-form a divides by sum(w g^2), which
    # is 0 when every x is 0
    for x in ([1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [0.0, 5.0, 5.0, 0.0]):
        n = len(x)
        with pytest.raises(InsufficientDataError):
            fit_saturation(DataSet(x=x, y=np.arange(1.0, n + 1), sigma=np.ones(n)))


def test_fit_saturation_linear_data_warns():
    x = np.linspace(1.0, 10.0, 10)
    data = DataSet(x=x, y=x.copy(), sigma=np.ones_like(x))
    with pytest.warns(UserWarning, match="slope"):
        result = fit_saturation(data, n_boot=100)
    assert "linear_regime" in result.flags
    assert "b_ci_unbounded" in result.flags
    assert result.params["b"] >= x.max()


def test_fit_saturation_noisy_repeated_study():
    # 5% relative noise: the estimator stays unbiased at the 5% level
    truth_a, truth_b = 46.0, 70.0
    clean = exact_saturation_data(truth_a, truth_b)
    estimates = []
    for s in range(10):
        rng = np.random.default_rng(s)
        y = clean.y * (1.0 + 0.05 * rng.standard_normal(len(clean.x)))
        noisy = DataSet(x=clean.x, y=y, sigma=0.05 * np.asarray(clean.y))
        a, b = _fit_saturation_point(noisy)
        estimates.append((a, b))
    a_arr = np.array([e[0] for e in estimates])
    b_arr = np.array([e[1] for e in estimates])
    assert abs(np.median(a_arr) - truth_a) / truth_a < 0.05
    assert abs(np.median(b_arr) - truth_b) / truth_b < 0.05
    assert np.all(np.abs(a_arr - truth_a) / truth_a < 0.15)
    assert np.all(np.abs(b_arr - truth_b) / truth_b < 0.30)


@given(
    st.floats(min_value=5.0, max_value=100.0),
    st.floats(min_value=10.0, max_value=100.0),
)
@settings(max_examples=20, deadline=None)
def test_fit_saturation_round_trip_property(a, b):
    x = np.linspace(0.5 * b, 5.0 * b, 12)
    data = DataSet(x=x, y=transfer_curve(x, a, b), sigma=np.ones_like(x))
    a_hat, b_hat = _fit_saturation_point(data)
    assert abs(a_hat - a) / a < 1e-4
    assert abs(b_hat - b) / b < 1e-4


def test_fit_saturation_optimality_against_probes_and_grid():
    rng = np.random.default_rng(11)
    clean = exact_saturation_data()
    sigma = np.full(len(clean.x), 0.5)
    noisy = DataSet(x=clean.x, y=clean.y + 0.5 * rng.standard_normal(len(clean.x)),
                    sigma=sigma)

    def sse(a, b):
        return _sse(noisy, transfer_curve(noisy.x, a, b))

    a_hat, b_hat = _fit_saturation_point(noisy)
    best = sse(a_hat, b_hat)
    far = zip(rng.uniform(0.0, 100.0, 100), np.exp(rng.uniform(0.0, 7.0, 100)))
    near = zip(a_hat * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, 100)),
               b_hat * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, 100)))
    for a, b in [*far, *near]:
        assert best <= sse(a, b) + 1e-9
    # profile over a log-b grid, with a from an independent linear least squares
    log_grid = np.linspace(np.log(1.0), np.log(1000.0), 2000)
    profile = []
    for log_b in log_grid:
        g = -np.expm1(-np.asarray(noisy.x) / np.exp(log_b))
        (a,), *_ = np.linalg.lstsq((g / sigma)[:, None], noisy.y / sigma, rcond=None)
        profile.append(sse(a, np.exp(log_b)))
    argmin = log_grid[int(np.argmin(profile))]
    assert abs(np.log(b_hat) - argmin) <= log_grid[1] - log_grid[0]


# ---------------------------------------------------------------------------
# bounded Brent against scipy's minimize_scalar(method="bounded")


def _scipy_bounded(objective, lo, hi, maxiter=500):
    """(evaluated points, result) of scipy's bounded Brent at fitting.XATOL."""
    from scipy.optimize import minimize_scalar

    points = []

    def recorded(x):
        points.append(float(x))
        return objective(float(x))

    res = minimize_scalar(recorded, bounds=(lo, hi), method="bounded",
                          options={"xatol": fitting.XATOL, "maxiter": maxiter})
    return points, res


def _port_bounded(objective, lo, hi):
    """(evaluated points, argmin or FitConvergenceError) of fitting._minimize_1d."""
    points = []

    def recorded(x):
        points.append(x)
        return objective(x)

    x, fx, error = _minimize_1d(recorded, lo, hi)
    if error is None:
        assert fx == objective(x)
    return points, x if error is None else error


def _assert_same_search(objective, lo, hi):
    ref_points, res = _scipy_bounded(objective, lo, hi)
    points, out = _port_bounded(objective, lo, hi)
    assert points == ref_points  # every iterate, bit for bit
    if res.success and np.isfinite(res.fun):
        assert out == float(res.x)
    else:
        assert isinstance(out, FitConvergenceError)
        assert out.diagnostics["message"] == res.message
    return len(points)


def _random_objective(rng):
    """A seeded smooth, kinked, piecewise-flat or partly NaN scalar objective."""
    c, s, amp, w, phi = rng.uniform(-5, 5), rng.uniform(0.1, 10), rng.uniform(0, 3), \
        rng.uniform(0.1, 20), rng.uniform(0, 2 * np.pi)
    p = rng.uniform(0.3, 1.5)
    kind = rng.integers(6)
    if kind == 0:
        return lambda x: s * (x - c) ** 2 + amp * math.sin(w * x + phi)
    if kind == 1:
        return lambda x: abs(x - c) ** p
    if kind == 2:
        return lambda x: max(s * (x - c), -(x - c) / s) + amp * abs(x - phi)
    if kind == 3:  # plateaus: ties in every comparison of function values
        return lambda x: math.floor(w * abs(x - c)) / w
    if kind == 4:  # few wide plateaus
        return lambda x: float(round(s * math.tanh((x - c) / (w * s))))
    return lambda x: (x - c) ** 2 if x < c - phi else math.nan  # min at the NaN edge


@pytest.mark.oracle
def test_minimize_1d_matches_scipy_on_random_objectives():
    rng = np.random.default_rng(20140721)
    for _ in range(400):
        objective = _random_objective(rng)
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + 10.0 ** rng.uniform(-6.0, 3.0)
        _assert_same_search(objective, lo, hi)


def _fit_objective_searches(monkeypatch):
    """(objective, lo, hi) of every search the row fitters make on benchmark-shaped
    data: a contrast scan with 1-2% scatter, and saturated (x 25-250) and
    linear-regime (x 2-20) transfer curves with sd 0.1, each on the data as they
    are and on resamples."""
    rng = np.random.default_rng(5)
    datasets = []
    for _ in range(5):
        y = models.contrast_curve(GATE_GRID, 0.75, 3) + 0.015 * rng.standard_normal(14)
        datasets.append(("od", DataSet(x=GATE_GRID, y=y, sigma=np.full(14, 0.015))))
        for x in (np.linspace(25.0, 250.0, 10), np.linspace(2.0, 20.0, 10)):
            y = transfer_curve(x, 46.0, 70.0) + 0.1 * rng.standard_normal(10)
            datasets.append(("sat", DataSet(x=x, y=y, sigma=np.full(10, 0.1))))
    searches = []
    real_minimize = fitting._minimize_1d

    def record(f, lo, hi):
        searches.append((f, lo, hi))
        return real_minimize(f, lo, hi)

    monkeypatch.setattr(fitting, "_minimize_1d", record)
    for kind, data in datasets:
        rows = [tuple(range(len(data)))] + [tuple(rng.integers(0, len(data), len(data)))
                                            for _ in range(3)]
        if kind == "od":
            _od_rows(data, rows, 3)
        else:
            _saturation_rows(data, [r for r in rows if len({data.x[i] for i in r}) >= 3])
    monkeypatch.undo()
    return searches


@pytest.mark.oracle
def test_minimize_1d_matches_scipy_on_fit_objectives(monkeypatch):
    searches = _fit_objective_searches(monkeypatch)
    assert len(searches) >= 40
    for objective, lo, hi in searches:
        _assert_same_search(objective, lo, hi)


@pytest.mark.parametrize("cap", [1, 2, 3, 5])
def test_od_objective_is_the_numpy_contrast_sum(cap):
    # fit_od's objective sums models.contrast_from_weights' terms per point in
    # its order, and the squares as np.sum does, also above its 128-term block
    for n in (14, 129, 300):
        rng = np.random.default_rng(cap)
        x = np.sort(rng.uniform(0.0, 4.0, n))
        data = DataSet(x=x, y=rng.uniform(-0.5, 1.0, n), sigma=rng.uniform(0.01, 0.1, n))
        sse = fitting._od_sse(data, cap)
        weights = [models.capped_poisson_weights(v, cap) for v in data.x]
        for row in [tuple(range(n)), tuple(rng.integers(0, n, n))]:
            idx = list(row)
            objective = sse(row)
            y, sigma = np.asarray(data.y)[idx], np.asarray(data.sigma)[idx]
            for od in [0.0, 1e-9, 0.75, 2.2, 37.0, fitting.OD_SEARCH_MAX]:
                contrast = np.array([models.contrast_from_weights(weights[i], od) for i in idx])
                assert objective(od) == float(np.sum(((y - contrast) / sigma) ** 2, axis=-1)), n
        # the reported sse is the objective at the reported estimate, bit for bit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitting, "bootstrap_ci", _no_bootstrap)
            fitted = fit_od(data, cap=cap)
        assert fitted.sse == sse(tuple(range(n)))(fitted.params["od_sp"]), n


@pytest.mark.parametrize("n", [3, 7, 8, 10, 14, 128, 129, 300])
def test_saturation_objective_is_the_numpy_profile(n):
    # fit_saturation's objective profiles a = sum(w y g) / sum(w g^2), then
    # sums the weighted squares, each sum as np.sum makes it; the a it reports
    # is that profile at the argmin
    rng = np.random.default_rng(n)
    x = rng.uniform(1.0, 250.0, n)
    data = DataSet(x=x, y=transfer_curve(x, 46.0, 70.0) + rng.normal(0.0, 0.5, n),
                   sigma=rng.uniform(0.1, 1.0, n))
    searched = []  # per row: {log b: objective there}, at probes and at the argmin
    argmins = []

    def record(objective, lo, hi):
        found = _minimize_1d(objective, lo, hi)
        searched.append({v: objective(v) for v in (found[0], 0.0, 3.7, 4.25, 6.0, lo, hi)})
        argmins.append(found[0])
        return found

    rows = [tuple(range(n)), tuple(rng.integers(0, n, n))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_minimize_1d", record)
        mp.setattr(fitting, "bootstrap_ci", _no_bootstrap)
        params, sses, errors = _saturation_rows(data, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a linear-regime fit warns
            fitted = fit_saturation(data)  # its point row's search, once more
    assert errors == [None, None]
    # the reported sse is the objective at the reported estimate, bit for bit
    assert fitted.params == {"a": params["a"][0], "b": params["b"][0]}
    assert fitted.sse == searched[-1][argmins[-1]]
    del searched[-1]
    assert sses == [values[log_b] for values, log_b in zip(searched, argmins)]
    for row, values, a_hat, b_hat in zip(rows, searched, params["a"], params["b"]):
        idx = list(row)
        y, sigma = np.asarray(data.y)[idx], np.asarray(data.sigma)[idx]
        w = np.array([s ** -2.0 for s in sigma])

        def profile(b):
            g = np.array([-math.expm1(-v / b) for v in np.asarray(data.x)[idx]])
            return float(np.sum(w * y * g) / np.sum(w * g * g)), g

        for log_b, value in values.items():
            a, g = profile(math.exp(log_b))
            assert value == float(np.sum(((y - a * g) / sigma) ** 2)), log_b
        assert a_hat == profile(b_hat)[0]


@pytest.mark.oracle
def test_minimize_1d_failures_match_scipy(monkeypatch):
    # NaN everywhere; +inf everywhere; finite minimum but a NaN last evaluation
    for objective in (lambda x: math.nan, lambda x: math.inf,
                      lambda x: -x if x < 0.5 else math.nan):
        _, out = _port_bounded(objective, 0.0, 1.0)
        assert isinstance(out, FitConvergenceError)
        assert set(out.diagnostics) == {"message", "x", "sse"}
        _assert_same_search(objective, 0.0, 1.0)
    # the evaluation cap: scipy's maxiter is the port's MAXFUN
    monkeypatch.setattr(fitting, "MAXFUN", 4)
    quadratic = lambda x: (x - 0.3) ** 2
    ref_points, res = _scipy_bounded(quadratic, 0.0, 1.0, maxiter=4)
    points, out = _port_bounded(quadratic, 0.0, 1.0)
    assert points == ref_points and res.status == 1
    assert isinstance(out, FitConvergenceError)
    assert out.diagnostics["message"] == res.message
    assert set(out.diagnostics) == {"message", "x", "sse"}


def test_minimize_1d_rows_converging_at_different_iterations(monkeypatch):
    # a row fitter searches each row on its own: a row comes out as it does
    # alone, whichever rows share the call and however long they search
    searches = _fit_objective_searches(monkeypatch)
    assert len({len(_port_bounded(f, lo, hi)[0]) for f, lo, hi in searches}) > 5
    contrast, transfer = _noisy_fit_data(4)
    rng = np.random.default_rng(4)
    for data, fitter in ((contrast, _od_rows_cap3), (transfer, _saturation_rows)):
        rows = [tuple(range(len(data)))[::-1]] + [
            tuple(rng.integers(0, len(data), len(data))) for _ in range(30)]
        params, sses, errors = fitter(data, rows)
        assert errors == [None] * len(rows)
        for i, row in enumerate(rows):
            alone, (sse,), _ = fitter(data, [row])
            assert {name: values[i] for name, values in params.items()} == \
                {name: values[0] for name, values in alone.items()}
            assert sses[i] == sse


def test_minimize_1d_nan_row_beside_normal_rows():
    # points with sigma = 1e200 have weight 1 / sigma^2 = 0: a row of them
    # alone profiles a = 0 / 0 = NaN and fails, as numpy's division did,
    # while the rows beside it fit as they do alone
    x = [25.0, 50.0, 100.0, 150.0, 250.0, 25.0, 75.0, 200.0]
    sigma = [1.0] * 5 + [1e200] * 3
    data = DataSet(x=x, y=transfer_curve(x, 46.0, 70.0), sigma=sigma)
    rows = [(0, 1, 2, 3, 4), (5, 6, 7, 5, 6), (0, 2, 4, 4, 1)]
    params, sses, errors = _saturation_rows(data, rows)
    assert errors[0] is None and errors[2] is None
    assert errors[1].diagnostics["message"] == "NaN result encountered."
    assert math.isnan(params["a"][1])
    for i in (0, 2):
        alone, (sse,), _ = _saturation_rows(data, [rows[i]])
        assert (params["a"][i], params["b"][i], sses[i]) == (alone["a"][0], alone["b"][0], sse)
    assert abs(params["b"][0] - 70.0) < 1e-3


@pytest.mark.oracle
def test_minimize_1d_maxfun_row_beside_normal_rows(monkeypatch):
    # the evaluation cap holds per row: the rows that need more evaluations
    # than it fail with scipy's message, the others converge as in scipy
    contrast, _ = _noisy_fit_data(3)
    rows = [tuple(range(14))] + [tuple(r) for r in
                                 np.random.default_rng(3).integers(0, 14, (20, 14))]
    sse = fitting._od_sse(contrast, 3)
    lengths = [len(_port_bounded(sse(row), 0.0, fitting.OD_SEARCH_MAX)[0]) for row in rows]
    cap = max(lengths)  # 19-21 evaluations: the longest searches hit it
    monkeypatch.setattr(fitting, "MAXFUN", cap)
    _, _, errors = _od_rows(contrast, rows, 3)
    for row, length, error in zip(rows, lengths, errors):
        _, res = _scipy_bounded(sse(row), 0.0, fitting.OD_SEARCH_MAX, maxiter=cap)
        assert (error is None) == res.success == (length < cap)
        if error is not None:
            assert error.diagnostics["message"] == res.message
            assert res.message == "Maximum number of function calls reached."
    assert None in errors and any(e is not None for e in errors)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_requires_minimum_resamples():
    with pytest.raises(DomainError):
        bootstrap_ci(_od_rows_cap3, exact_contrast_data(0.75), n_boot=50)


def test_bootstrap_deterministic_under_seed():
    data = exact_contrast_data(0.75)
    rng = np.random.default_rng(9)
    noisy = DataSet(
        x=data.x, y=np.clip(data.y + 0.04 * rng.standard_normal(len(data.x)), -0.99, 1.0),
        sigma=data.sigma,
    )
    ci1, n1 = bootstrap_ci(_od_rows_cap3, noisy, n_boot=1000, seed=4)
    ci2, n2 = bootstrap_ci(_od_rows_cap3, noisy, n_boot=1000, seed=4)
    assert ci1 == ci2
    assert n1 == n2
    ci3, _ = bootstrap_ci(_od_rows_cap3, noisy, n_boot=1000, seed=5)
    assert ci1 != ci3


def test_bootstrap_index_matrix_stream():
    # the n_boot rows are one (n_boot, n) integers draw from the FIT_BOOTSTRAP
    # child stream's Philox generator, not the stream of a simulate block
    data = exact_contrast_data(0.75)
    seen = []

    def rows(d, idx):
        seen.append(idx)
        return _od_rows_cap3(d, idx)

    bootstrap_ci(rows, data, n_boot=150, seed=7)
    assert models.FIT_BOOTSTRAP == models.POISSONNESS_NULL + 1
    stream = np.random.SeedSequence((models.child_seed(7, models.FIT_BOOTSTRAP, 0),))
    expected = np.random.Generator(np.random.Philox(stream)).integers(0, 14, (150, 14))
    assert seen == [[tuple(row) for row in expected.tolist()]]


def test_philox_draws_match_numpy():
    # Generator(Philox(SeedSequence((s,)))).integers(0, n, (m, n)), call after
    # call on one generator, as the bootstrap's redraw loop continues its stream
    for s in (0, 1, 7, 2**32 + 5, 2**64 - 1):
        for n in range(2, 65):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((s,))))
            stream = fitting._philox_uint32(s)
            for m in (1, 3, 200 if n in (2, 3, 14, 64) else 5):
                expected = rng.integers(0, n, (m, n)).ravel().tolist()
                assert fitting._integers(stream, n, m * n) == expected, (s, n, m)


def test_pairwise_sum_matches_numpy():
    # np.sum(a, axis=-1) on (m, n) rows, and on one row, bit for bit;
    # the builtin sum compensates from Python 3.12 and would not.  The
    # expression fitting._pairwise writes sums up to 128 terms; a longer sum
    # is the sum of its halves, split at a multiple of 8, as _row_kernel splits
    def pairwise_sum(v):
        if len(v) > 128:
            half = len(v) // 2 - len(v) // 2 % 8
            return pairwise_sum(v[:half]) + pairwise_sum(v[half:])
        return eval(fitting._pairwise("v[{0}]", len(v)), {"v": v})

    rng = np.random.default_rng(18)
    for n in range(1, 301):
        a = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-8, 8, (4, n))
        expected = np.sum(a, axis=-1).tolist()
        assert [pairwise_sum(row) for row in a.tolist()] == expected, n
        assert pairwise_sum(a[0].tolist()) == float(np.sum(a[0]))


def test_no_generated_kernel_spans_more_than_128_points(monkeypatch):
    # kernels are compiled per block size (and cap) from those integers alone,
    # never for more than numpy's 128-term pairwise block; rows of the same
    # length share one kernel whatever their values
    monkeypatch.setattr(fitting, "_KERNELS", {})
    rng = np.random.default_rng(23)
    for n in (10, 129, 300, 1000):
        x = rng.uniform(1.0, 250.0, n)
        y = transfer_curve(x, 46.0, 70.0) + rng.normal(0.0, 0.5, n)
        data = DataSet(x=x, y=y, sigma=np.full(n, 0.5))
        fitting._od_sse(DataSet(x=x / 100.0, y=y / 100.0, sigma=np.full(n, 0.5)), 3)(range(n))
        _saturation_rows(data, [tuple(range(n)), tuple(rng.integers(0, n, n))])
    keys = list(fitting._KERNELS)
    assert all(type(v) is int for key in keys for v in key[1:])
    assert max(key[1] for key in keys) == 128
    # ten points: one kernel each for fit_od (cap 3) and fit_saturation (two
    # rows of different points)
    assert sorted((key[0].__name__, key[1:]) for key in keys if key[1] == 10) == [
        ("_od_source", (10, 3)), ("_saturation_source", (10,))]


def test_bootstrap_skips_degenerate_resamples():
    # two-point data: ~half of the resamples collapse onto one x value
    data = DataSet(x=[1.0, 2.0], y=[0.3, 0.5], sigma=[0.1, 0.1])
    with pytest.raises(InsufficientDataError, match="skipped"):
        bootstrap_ci(_od_rows_cap3, data, n_boot=200, seed=0)


def test_bootstrap_redraws_unfittable_resamples():
    # three points: a ninth of the resamples hold one x value and cannot be
    # fitted; later draws replace them instead of counting against the 10%
    # budget, which used to fail about two seeds in three
    data = DataSet(x=[0.5, 1.0, 2.0], y=[0.23, 0.40, 0.64], sigma=[0.01, 0.01, 0.007])
    seen = []

    def rows(d, idx):
        seen.append(idx)
        return _od_rows_cap3(d, idx)

    for seed in range(30):
        assert bootstrap_ci(rows, data, n_boot=200, seed=seed)[1] == 200
    for idx in seen:
        assert len(idx) == 200 and {len(row) for row in idx} == {3}
        assert all(len(set(row)) >= 2 for row in idx)


def test_percentiles_match_numpy_bit_for_bit():
    rng = np.random.default_rng(16)
    samples = [rng.standard_normal(n) for n in (1, 2, 3, 90, 181, 200)]
    samples += [np.round(rng.standard_normal(150), 1), np.full(100, 0.75),
                0.75 + 1e-3 * rng.standard_normal(199)]
    qs = (0.0, 16.0, 50.0, 84.0, 99.9, 100.0)
    for values in samples:
        got = fitting._percentiles(values.tolist(), qs)
        assert [repr(v) for v in got] == [repr(float(v)) for v in np.percentile(values, qs)]


def _noisy_fit_data(seed):
    rng = np.random.default_rng(seed)
    y = models.contrast_curve(GATE_GRID, 0.75, 3) + 0.015 * rng.standard_normal(14)
    contrast = DataSet(x=GATE_GRID, y=y, sigma=np.full(14, 0.015))
    x = np.linspace(25.0, 250.0, 10)
    transfer = DataSet(x=x, y=transfer_curve(x, 46.0, 70.0) + 0.1 * rng.standard_normal(10),
                       sigma=np.full(10, 0.1))
    return contrast, transfer


def test_point_row_runs_before_the_bootstrap_rows(monkeypatch):
    # the row fitter runs on the point row alone, then on the n_boot rows of
    # the bootstrap: the estimate is the one-row fit, the intervals are the
    # bootstrap's, widened to bracket it
    calls = []
    for name in ("_od_rows", "_saturation_rows"):
        real = getattr(fitting, name)
        monkeypatch.setattr(fitting, name, lambda d, idx, *a, real=real:
                            calls.append(list(idx)) or real(d, idx, *a))
    for seed in (3, 8):
        contrast, transfer = _noisy_fit_data(seed)
        del calls[:]
        od = fit_od(contrast, cap=3, n_boot=150, seed=seed)
        assert [len(rows) for rows in calls] == [1, 150]
        assert calls[0] == [tuple(range(14))]
        assert od.params["od_sp"] == _fit_od_point(contrast, 3)
        ci, n_used = bootstrap_ci(_od_rows_cap3, contrast, n_boot=150, seed=seed)
        value = od.params["od_sp"]
        assert od.ci_68["od_sp"] == (min(ci["od"][0], value), max(ci["od"][1], value))
        assert od.n_boot == n_used

        del calls[:]
        sat = fit_saturation(transfer, n_boot=150, seed=seed)
        assert [len(rows) for rows in calls] == [1, 150]
        assert (sat.params["a"], sat.params["b"]) == _fit_saturation_point(transfer)
        ci, n_used = bootstrap_ci(_saturation_rows, transfer, n_boot=150, seed=seed,
                                  min_distinct=3)
        for name, value in sat.params.items():
            assert sat.ci_68[name] == (min(ci[name][0], value), max(ci[name][1], value))
        assert sat.n_boot == n_used


def test_failed_point_row_raises_before_bootstrap_errors(monkeypatch):
    real_rows = fitting._saturation_rows
    searched = []

    def failing_point(data, idx):
        searched.append(len(idx))
        params, sses, errors = real_rows(data, idx)
        if idx == [tuple(range(len(data)))]:
            errors = [FitConvergenceError("point failed", diagnostics={"sse": 2.0})]
        return params, sses, errors

    monkeypatch.setattr(fitting, "_saturation_rows", failing_point)
    three = DataSet(x=[25.0, 100.0, 250.0], y=transfer_curve([25.0, 100.0, 250.0], 46.0, 70.0),
                    sigma=np.ones(3))
    # the bootstrap runs; it has too few points; it has too few resamples
    for data, n_boot in ((exact_saturation_data(), 200), (three, 200),
                         (exact_saturation_data(), 50)):
        del searched[:]
        with pytest.raises(FitConvergenceError, match="point failed"):
            fit_saturation(data, n_boot=n_boot)
        assert searched == [1]  # no resample is searched after the point row failed
    monkeypatch.undo()
    with pytest.raises(InsufficientDataError, match="bootstrap needs more than 3 points"):
        fit_saturation(three)
    with pytest.raises(DomainError, match="n_boot"):
        fit_saturation(exact_saturation_data(), n_boot=50)


def test_point_warnings_come_before_bootstrap_errors(monkeypatch):
    # linear-regime data warn; the warning is issued even when the bootstrap
    # then fails, whether before its search or after it
    x = [2.0, 8.0, 20.0]
    linear = DataSet(x=x, y=[0.5 * v for v in x], sigma=np.ones(3))
    with pytest.warns(UserWarning, match="slope"):
        with pytest.raises(InsufficientDataError, match="bootstrap needs"):
            fit_saturation(linear)
    real_rows = fitting._saturation_rows

    def failing_resamples(data, idx):
        params, sses, errors = real_rows(data, idx)
        if idx == [tuple(range(len(data)))]:
            return params, sses, errors
        return params, sses, [FitConvergenceError("resample failed")] * len(idx)

    monkeypatch.setattr(fitting, "_saturation_rows", failing_resamples)
    x = np.linspace(2.0, 20.0, 10)
    linear = DataSet(x=x, y=0.5 * x, sigma=np.ones(10))
    with pytest.warns(UserWarning, match="slope"):
        with pytest.raises(InsufficientDataError, match="resamples whose fit failed"):
            fit_saturation(linear)


def test_bootstrap_coverage_study():
    # known-sigma gaussian noise on the contrast model: percentile-interval
    # coverage of the true od stays near the nominal 68%
    truth = 0.75
    y_true = models.contrast_curve(GATE_GRID, truth, 3)
    rng = np.random.default_rng(123)
    trials = 500
    covered = 0
    for t in range(trials):
        y = np.clip(y_true + 0.04 * rng.standard_normal(len(GATE_GRID)), -0.99, 1.0)
        ds = DataSet(x=GATE_GRID, y=y, sigma=np.full_like(GATE_GRID, 0.04))
        ci, _ = bootstrap_ci(_od_rows_cap3, ds, n_boot=100, seed=t)
        lo, hi = ci["od"]
        covered += lo <= truth <= hi
    assert 0.60 <= covered / trials <= 0.76


def test_fit_od_noisy_ci_width_comparable_to_paper():
    # paper-like sampling and noise: CI half-width lands near the quoted 0.05
    rng = np.random.default_rng(2014)
    y = np.clip(
        models.contrast_curve(GATE_GRID, 0.75, 3) + 0.04 * rng.standard_normal(len(GATE_GRID)),
        -0.99,
        1.0,
    )
    ds = DataSet(x=GATE_GRID, y=y, sigma=np.full_like(GATE_GRID, 0.04))
    result = fit_od(ds, cap=3, mode="incoming", seed=3)
    lo, hi = result.ci_68["od_sp"]
    half_width = 0.5 * (hi - lo)
    assert 0.01 <= half_width <= 0.15
    assert abs(result.params["od_sp"] - 0.75) < 0.2
