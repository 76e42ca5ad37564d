"""Weighted least-squares parameter recovery with bootstrap uncertainties.

fit_od inverts the blockade-capped contrast model for the optical depth per
gate photon/excitation; fit_saturation recovers the (a, b) of the
self-blockade transfer curve, solving a in closed form (variable projection).
Both are bounded Brent searches in one variable, written as row fitters: one
lockstep search fits every row of an index matrix into the data.  The point
fit is the single row arange(n), searched as row 0 of a case-resampling
bootstrap (percentile 68% intervals, deterministic under a seed) that fits
all its resamples at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitConvergenceError, InsufficientDataError
from .models import (
    FIT_BOOTSTRAP,
    _math_exp,
    capped_poisson_weights,
    child_seed,
    contrast_curve,
    contrast_from_weights,
)

__all__ = [
    "DataSet",
    "FitResult",
    "fit_od",
    "fit_saturation",
    "bootstrap_ci",
    "saturation_curve",
]

OD_SEARCH_MAX = 50.0  # covers all physical optical depths with margin
XATOL = 1e-9  # absolute in od, relative in b (the search runs over log b)
MAXFUN = 500  # objective evaluations per bounded Brent search, as in scipy
# fit_saturation searches b over these multiples of max(x); data that never
# saturate push b to the upper edge, where the linear-regime flags fire.
B_SEARCH_RANGE = (1e-3, 1e3)


@dataclass(frozen=True, eq=False)
class DataSet:
    """(x, y, sigma) observations with strictly positive uncertainties."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        n = len(self.x)
        if len(self.y) != n or len(self.sigma) != n:
            raise DomainError("x, y, sigma must have equal length")
        if n < 2:
            raise DomainError(f"need at least 2 points, got {n}")
        finite = np.isfinite(self.x) & np.isfinite(self.y) & np.isfinite(self.sigma)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DomainError(
                f"non-finite value in data row {row + 1}: x={self.x[row]}, "
                f"y={self.y[row]}, sigma={self.sigma[row]}"
            )
        if np.any(self.x < 0):
            raise DomainError("x values must be >= 0")
        if np.any(self.sigma <= 0):
            raise DomainError("sigma values must be > 0")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.x.tolist(), self.y.tolist(), self.sigma.tolist()))

    @classmethod
    def from_points(cls, points, label: str = "") -> "DataSet":
        arr = np.asarray(list(points), dtype=float).reshape(-1, 3)
        return cls(x=arr[:, 0], y=arr[:, 1], sigma=arr[:, 2], label=label)


@dataclass(frozen=True)
class FitResult:
    """Point estimates with weighted SSE and bootstrap 68% intervals.

    ``converged`` is always True: a fit that fails raises
    FitConvergenceError instead of returning.
    """

    params: dict[str, float]
    sse: float
    ci_68: dict[str, tuple[float, float]]
    n_boot: int
    converged: bool
    flags: tuple[str, ...] = ()


def saturation_curve(x, a: float, b: float) -> np.ndarray:
    """Transfer model a * (1 - exp(-x / b)) on an array of inputs."""
    return a * -np.expm1(-np.asarray(x, dtype=float) / b)


def _weighted_sse(residuals: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Sum of squared normalized residuals along the last axis."""
    return np.sum((residuals / sigma) ** 2, axis=-1)


def _minimize_1d(objective, lo: np.ndarray, hi: np.ndarray):
    """Argmin of each row's objective on [lo, hi] by bounded Brent to XATOL.

    Golden-section search with parabolic steps (Brent 1973, ``fminbound``),
    ported operation for operation from scipy's bounded ``minimize_scalar``.
    ``objective`` maps an (m,) array of trial points, one per row, to the
    rows' (m,) objective values.  The rows run in lockstep: each keeps its
    own bracket and stops on its own convergence test, after which it is
    re-evaluated at its frozen point, so every row's iterates and result
    equal scipy's on that row alone, bit for bit.  All running rows have
    made as many evaluations as the loop, which stops them at MAXFUN.
    Returns (argmin, errors): errors[i] is None, or the FitConvergenceError
    of row i after MAXFUN evaluations or on a NaN or non-finite minimum.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xf = fulc = nfc = a + golden_mean * (b - a)
    rat = e = np.zeros_like(xf)
    fx = ffulc = fnfc = objective(xf)
    fu = np.full_like(xf, math.inf)
    num = 1
    maxed = np.zeros(xf.shape, dtype=bool)

    def running():
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + XATOL / 3.0
        return np.abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a), xm, tol1

    run, xm, tol1 = running()
    while run.any():
        with np.errstate(all="ignore"):  # float semantics: inf and NaN pass silently
            tol2 = 2.0 * tol1
            # a parabolic step through the three best points, where acceptable
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (p > q * (a - xf)) & (p < q * (b - xf)))
            step = p / q
            x = xf + step
            near_edge = ((x - a) < tol2) | ((b - x) < tol2)
            step = np.where(near_edge, np.where(xm < xf, -tol1, tol1), step)
            # otherwise a golden-section step into the larger part
            golden = np.where(xf >= xm, a - xf, b - xf)
            e = np.where(parabolic, rat, golden)
            rat = np.where(parabolic, step, golden_mean * golden)
            # a NaN rat propagates through maximum() into x, as np.sign would
            x = xf + np.where(rat < 0, -1.0, 1.0) * np.maximum(np.abs(rat), tol1)
            x = np.where(run, x, xf)
        fu = np.where(run, objective(x), fu)
        num += 1

        better = run & (fu <= fx)
        to_a = np.where(better, x >= xf, x < xf)
        a = np.where(run & to_a, np.where(better, xf, x), a)
        b = np.where(run & ~to_a, np.where(better, xf, x), b)
        second = run & ~better & ((fu <= fnfc) | (nfc == xf))
        third = (run & ~better & ~second
                 & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc)))
        fulc = np.where(better | second, nfc, np.where(third, x, fulc))
        ffulc = np.where(better | second, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)

        if num >= MAXFUN:
            maxed = run
            break
        run, xm, tol1 = running()

    nan = np.isnan(xf) | np.isnan(fx) | np.isnan(fu)
    errors = [None] * len(xf)
    for i in np.flatnonzero(maxed | nan | ~np.isfinite(fx)).tolist():
        message = ("NaN result encountered." if nan[i] else
                   "Maximum number of function calls reached." if maxed[i] else
                   "Solution found.")
        errors[i] = FitConvergenceError(
            "bounded scalar minimization failed",
            diagnostics={"message": message, "x": float(xf[i]), "sse": float(fx[i])},
        )
    return xf, errors


def _od_rows(data: DataSet, idx: np.ndarray, cap: int):
    """fit_od's search on every row of the (m, n) index matrix ``idx`` at once."""
    # od-independent: once per call, one (m, n) matrix per stored number j
    weights = [w[idx] for w in capped_poisson_weights(data.x, cap)]
    y, sigma = data.y[idx], data.sigma[idx]
    od, errors = _minimize_1d(
        lambda od: _weighted_sse(y - contrast_from_weights(weights, od[:, None]), sigma),
        np.zeros(len(idx)),
        np.full(len(idx), OD_SEARCH_MAX),
    )
    return {"od": od}, errors


def _saturation_rows(data: DataSet, idx: np.ndarray):
    """fit_saturation's search on every row of the index matrix ``idx`` at once.

    Variable projection: for fixed b the model is linear in a, so the
    weighted least-squares a = sum(w y g) / sum(w g^2) with g = 1 - exp(-x / b)
    and w = 1 / sigma^2; the profiled SSE is then minimized over log b in
    [1e-3, 1e3] * max(x) of the row.  Needs some x > 0 in every row.
    """
    x, y, sigma = data.x[idx], data.y[idx], data.sigma[idx]
    w = sigma ** -2.0

    def profile(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = -np.expm1(-x / _math_exp(log_b)[:, None])
        return np.sum(w * y * g, axis=-1) / np.sum(w * g * g, axis=-1), g

    def objective(log_b: np.ndarray) -> np.ndarray:
        a, g = profile(log_b)
        return _weighted_sse(y - a[:, None] * g, sigma)

    x_max = np.max(x, axis=-1).tolist()
    lo, hi = (np.array([math.log(f * v) for v in x_max]) for f in B_SEARCH_RANGE)
    log_b, errors = _minimize_1d(objective, lo, hi)
    return {"a": profile(log_b)[0], "b": _math_exp(log_b)}, errors


def _fit_point(rows, data: DataSet) -> dict[str, float]:
    """The row fitter ``rows`` on the data as they are, alone: the single row
    arange(n).  The fitters search this row within the bootstrap's search
    (_fit_result), where it must come out as it does here."""
    params, (error,) = rows(data, np.arange(len(data))[None, :])
    if error is not None:
        raise error
    return {name: float(values[0]) for name, values in params.items()}


def _fit_result(rows, data, assess, n_boot, seed, min_distinct) -> FitResult:
    """Fit the point row arange(n) as row 0 of the bootstrap's search.

    ``assess`` maps the point row's {name: value} to the estimate's (params,
    sse, flags, warning messages).  The order is that of a point fit ahead of
    the bootstrap: a failed point row raises first, the warnings follow, and
    the bootstrap's own errors come last.  Each interval, taken in order of
    ``params``, is widened minimally so that it brackets its point estimate.
    """
    n = len(data)
    found = []  # the point row's assessment, once searched

    def with_point(d: DataSet, idx: np.ndarray):
        params, errors = rows(d, np.concatenate([np.arange(n)[None, :], idx]))
        if errors[0] is not None:
            raise errors[0]
        found.append(assess({name: float(values[0]) for name, values in params.items()}))
        return {name: values[1:] for name, values in params.items()}, errors[1:]

    try:
        ci, n_used = bootstrap_ci(with_point, data, n_boot=n_boot, seed=seed,
                                  min_distinct=min_distinct)
    except (DomainError, InsufficientDataError):
        if not found:  # the bootstrap drew no resamples: the point row alone
            with_point(data, np.empty((0, n), dtype=np.int64))
        raise
    finally:
        if found:  # the point row was searched: its warnings, ahead of any bootstrap error
            for message in found[0][3]:
                warnings.warn(message, stacklevel=3)
    params, sse, flags, _ = found[0]
    ci_68 = {name: (min(lo, value), max(hi, value))
             for (name, value), (lo, hi) in zip(params.items(), ci.values())}
    return FitResult(params=params, sse=sse, ci_68=ci_68, n_boot=n_used, converged=True,
                     flags=tuple(flags))


def fit_od(
    data: DataSet,
    cap: int = 3,
    mode: str = "incoming",
    n_boot: int = 200,
    seed: int = 0,
) -> FitResult:
    """Recover the optical depth from (mean photons, contrast, sigma) data.

    Parameters
    ----------
    data : contrast measurements; y values must lie in (-1, 1].
    cap : blockade capacity of the contrast model.
    mode : "incoming" or "stored"; selects the parameter name only, the
        model is structurally identical.
    n_boot, seed : bootstrap resamples (>= 100) and RNG seed.

    Minimizes the weighted SSE over od in [0, 50] by bounded scalar
    minimization to 1e-9 absolute.  An estimate at the od = 0 boundary, or
    one whose SSE is no smaller than at od = 50 (where the contrast has
    saturated and the SSE is flat to float resolution), is flagged and
    warned about rather than treated as an error.
    """
    if mode not in ("incoming", "stored"):
        raise DomainError(f"mode must be 'incoming' or 'stored', got {mode!r}")
    if np.any(data.y <= -1) or np.any(data.y > 1):
        raise DomainError("contrast values must lie in (-1, 1]")
    name = "od_sp" if mode == "incoming" else "od_st"

    def rows(d: DataSet, idx: np.ndarray):
        return _od_rows(d, idx, cap)

    def sse_at(od: float) -> float:
        return float(_weighted_sse(data.y - contrast_curve(data.x, od, cap), data.sigma))

    def assess(point: dict[str, float]):
        od_hat = point["od"]
        sse = sse_at(od_hat)
        if od_hat <= 1e-6:
            return {name: od_hat}, sse, ["boundary_od_zero"], [
                "fitted od sits at the zero boundary"]
        if sse_at(OD_SEARCH_MAX) <= sse:
            return {name: od_hat}, sse, ["boundary_od_max"], [
                f"fitted od is no better than the boundary od = {OD_SEARCH_MAX:g}: "
                "the data do not bound od from above"]
        return {name: od_hat}, sse, [], []

    return _fit_result(rows, data, assess, n_boot, seed, min_distinct=2)


def fit_saturation(
    data: DataSet, n_boot: int = 200, seed: int = 0
) -> FitResult:
    """Recover (a, b) of the transfer curve a * (1 - exp(-x / b)).

    Needs at least 3 distinct x values.  b is searched over
    [1e-3, 1e3] * max(x) with a profiled out in closed form.  Data confined
    to the linear small-x regime make only the ratio a/b identifiable; their
    b lands at or above max(x) (at the search's upper edge when the data
    show no curvature at all), which is reported as an ill-conditioning
    warning plus 'linear_regime'/'b_ci_unbounded' flags instead of an error.
    A failed search raises FitConvergenceError.
    """
    n_distinct = len(set(data.x.tolist()))  # np.unique would import numpy.ma
    if n_distinct < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct x values for a 2-parameter fit, got {n_distinct}"
        )

    def assess(params: dict[str, float]):
        sse = float(_weighted_sse(data.y - saturation_curve(data.x, params["a"], params["b"]),
                                  data.sigma))
        if params["b"] >= float(np.max(data.x)):
            return params, sse, ["linear_regime", "b_ci_unbounded"], [
                "saturation scale b is not reached by the data; "
                "only the initial slope a/b is identified"]
        return params, sse, [], []

    return _fit_result(_saturation_rows, data, assess, n_boot, seed, min_distinct=3)


def bootstrap_ci(
    fit,
    data: DataSet,
    n_boot: int = 200,
    seed: int = 0,
    min_distinct: int = 2,
) -> tuple[dict[str, tuple[float, float]], int]:
    """Case-resampling bootstrap, percentile 16/84 intervals per parameter.

    ``fit`` is a row fitter: ``fit(data, idx)``, with ``idx`` an (m, n) matrix
    of indices into ``data``, returns ({name: (m,) array}, errors), where
    errors[i] is None when row i converged.  The (n_boot, n) index matrix is
    drawn at once from the stream ``child_seed(seed, FIT_BOOTSTRAP, 0)``.  A
    resample with fewer than ``min_distinct`` distinct x values cannot be
    fitted: it is skipped and replaced by the next draw.  Data with no other
    fittable resample than a reordering of themselves raise, as do failed
    fits of more than 10% of the resamples.  Returns (intervals, resamples used).
    """
    if n_boot < 100:
        raise DomainError(f"n_boot must be >= 100, got {n_boot}")
    n, n_distinct = len(data), len(set(data.x.tolist()))
    if n_distinct < min_distinct or n <= min_distinct:
        raise InsufficientDataError(
            f"bootstrap needs more than {min_distinct} points and {min_distinct} distinct "
            f"x values, got {n} with {n_distinct}: every resample would be skipped for "
            "too few distinct x values or would only reorder the data"
        )
    stream = np.random.SeedSequence((child_seed(seed, FIT_BOOTSTRAP, 0),))
    rng = np.random.Generator(np.random.Philox(stream))
    idx = np.empty((0, n), dtype=np.int64)
    while len(idx) < n_boot:
        draw = rng.integers(0, n, (n_boot, n))
        distinct = 1 + np.count_nonzero(np.diff(np.sort(data.x[draw], axis=-1)), axis=-1)
        idx = np.concatenate([idx, draw[distinct >= min_distinct]])
    params, errors = fit(data, idx[:n_boot])
    used = np.array([error is None for error in errors], dtype=bool)
    failed = n_boot - int(used.sum())
    if failed > 0.1 * n_boot:
        raise InsufficientDataError(
            f"bootstrap skipped {failed}/{n_boot} resamples whose fit failed (>10%)"
        )
    ci = {name: _percentiles(values[used], (16.0, 84.0)) for name, values in params.items()}
    return ci, n_boot - failed


def _percentiles(values: np.ndarray, qs) -> tuple[float, ...]:
    """np.percentile(values, qs) of finite values, by its default linear
    method step for step (Hyndman & Fan 1996, type 7).  np.percentile calls
    np.unique, which imports numpy.ma."""
    v = np.sort(values).tolist()
    out = []
    for q in qs:
        h = (len(v) - 1) * (q / 100)
        i = math.floor(h)
        a, b, t = v[i], v[min(i + 1, len(v) - 1)], h - i
        # numpy's lerp: from the nearer end, so that t = 1 gives b exactly
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)
