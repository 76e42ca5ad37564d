"""Weighted least-squares parameter recovery with bootstrap uncertainties.

fit_od inverts the blockade-capped contrast model for the optical depth per
gate photon/excitation; fit_saturation recovers the (a, b) of the
self-blockade transfer curve.  Both are one-dimensional bounded Brent
searches: fit_od computes the capped-Poisson weights of its x values once per
dataset, so each step is one weighted sum over them, and fit_saturation
solves the linear amplitude a in closed form and searches log b only
(variable projection).  Uncertainties come from a case-resampling bootstrap
with percentile 68% intervals, deterministic under a seed.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitConvergenceError, InsufficientDataError
from .models import capped_poisson_weights, contrast_curve, contrast_from_weights

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
                f"non-finite value in data row {row + 1}: x={self.x[row]!r}, "
                f"y={self.y[row]!r}, sigma={self.sigma[row]!r}"
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
        arr = np.asarray(list(points), dtype=float)
        return cls(x=arr[:, 0], y=arr[:, 1], sigma=arr[:, 2], label=label)

    def subset(self, indices) -> "DataSet":
        return DataSet(
            x=self.x[indices], y=self.y[indices], sigma=self.sigma[indices],
            label=self.label,
        )

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "y", "sigma"])
            for xi, yi, si in self.points:
                writer.writerow([repr(xi), repr(yi), repr(si)])

    @classmethod
    def from_csv(cls, path, label: str = "") -> "DataSet":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["x", "y", "sigma"]:
                raise DomainError(f"{path}: expected header 'x,y,sigma'")
            rows = [(float(r[0]), float(r[1]), float(r[2])) for r in reader if r]
        if not rows:
            raise InsufficientDataError(f"{path}: no data rows")
        return cls.from_points(rows, label=label or str(path))


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


def _weighted_sse(residuals: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.sum((residuals / sigma) ** 2))


def _minimize_1d(objective, lo: float, hi: float) -> float:
    """Argmin of a scalar objective on [lo, hi] by bounded Brent to XATOL.

    Golden-section search with parabolic steps (Brent 1973, ``fminbound``),
    ported operation for operation from scipy's bounded ``minimize_scalar``
    with plain floats, so its iterates and result equal scipy's bit for bit.
    Raises FitConvergenceError after MAXFUN evaluations or on a NaN or
    non-finite minimum.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = objective(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + XATOL / 3.0
    tol2 = 2.0 * tol1
    message = "Solution found."

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm < xf else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        # a NaN rat propagates through max() into x, as np.sign would
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = objective(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= MAXFUN:
            message = "Maximum number of function calls reached."
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        message = "NaN result encountered."
    if message != "Solution found." or not math.isfinite(fx):
        raise FitConvergenceError(
            "bounded scalar minimization failed",
            diagnostics={"message": message, "x": float(xf), "sse": float(fx)},
        )
    return float(xf)


def _fit_od_point(data: DataSet, cap: int) -> float:
    weights = capped_poisson_weights(data.x, cap)  # od-independent: once per dataset
    return _minimize_1d(
        lambda od: _weighted_sse(data.y - contrast_from_weights(weights, od), data.sigma),
        0.0,
        OD_SEARCH_MAX,
    )


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
    minimization to 1e-9 absolute; an estimate at the od = 0 boundary is
    flagged rather than treated as an error.
    """
    if mode not in ("incoming", "stored"):
        raise DomainError(f"mode must be 'incoming' or 'stored', got {mode!r}")
    if np.any(data.y <= -1) or np.any(data.y > 1):
        raise DomainError("contrast values must lie in (-1, 1]")
    name = "od_sp" if mode == "incoming" else "od_st"

    od_hat = _fit_od_point(data, cap)
    sse = _weighted_sse(data.y - contrast_curve(data.x, od_hat, cap), data.sigma)

    flags = []
    if od_hat <= 1e-6:
        flags.append("boundary_od_zero")
        warnings.warn("fitted od sits at the zero boundary", stacklevel=2)
    elif od_hat >= OD_SEARCH_MAX - 1e-6:
        flags.append("boundary_od_max")

    ci, n_used = bootstrap_ci(
        lambda d: {name: _fit_od_point(d, cap)},
        data,
        n_boot=n_boot,
        seed=seed,
        min_distinct=2,
    )
    ci = _bracket_point(ci, {name: od_hat})
    return FitResult(
        params={name: od_hat},
        sse=sse,
        ci_68=ci,
        n_boot=n_used,
        converged=True,
        flags=tuple(flags),
    )


def _fit_saturation_point(data: DataSet) -> tuple[float, float]:
    """Variable projection: a in closed form, bounded Brent over log b.

    For fixed b the model is linear in a, so the weighted least-squares
    a = sum(w y g) / sum(w g^2) with g = 1 - exp(-x / b) and w = 1 / sigma^2;
    the profiled SSE is then minimized over log b in
    [1e-3, 1e3] * max(x).  Needs some x > 0.
    """
    w = data.sigma ** -2.0

    def profile(log_b: float) -> tuple[float, np.ndarray]:
        g = -np.expm1(-data.x / math.exp(log_b))
        return float(np.sum(w * data.y * g) / np.sum(w * g * g)), g

    def objective(log_b: float) -> float:
        a, g = profile(log_b)
        return _weighted_sse(data.y - a * g, data.sigma)

    x_max = float(np.max(data.x))
    log_b = _minimize_1d(objective, *(math.log(f * x_max) for f in B_SEARCH_RANGE))
    return profile(log_b)[0], math.exp(log_b)


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
    n_distinct = len(np.unique(data.x))
    if n_distinct < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct x values for a 2-parameter fit, got {n_distinct}"
        )
    a_hat, b_hat = _fit_saturation_point(data)
    sse = _weighted_sse(data.y - saturation_curve(data.x, a_hat, b_hat), data.sigma)

    flags = []
    if b_hat >= float(np.max(data.x)):
        flags += ["linear_regime", "b_ci_unbounded"]
        warnings.warn(
            "saturation scale b is not reached by the data; "
            "only the initial slope a/b is identified",
            stacklevel=2,
        )

    ci, n_used = bootstrap_ci(
        lambda d: dict(zip(("a", "b"), _fit_saturation_point(d))),
        data,
        n_boot=n_boot,
        seed=seed,
        min_distinct=3,
    )
    ci = _bracket_point(ci, {"a": a_hat, "b": b_hat})
    return FitResult(
        params={"a": a_hat, "b": b_hat},
        sse=sse,
        ci_68=ci,
        n_boot=n_used,
        converged=True,
        flags=tuple(flags),
    )


def _bracket_point(ci: dict, params: dict) -> dict:
    """Widen percentile intervals minimally so they bracket the point estimate."""
    return {
        name: (min(lo, params[name]), max(hi, params[name]))
        for name, (lo, hi) in ci.items()
    }


def bootstrap_ci(
    fit,
    data: DataSet,
    n_boot: int = 200,
    seed: int = 0,
    min_distinct: int = 2,
) -> tuple[dict[str, tuple[float, float]], int]:
    """Case-resampling bootstrap, percentile 16/84 intervals per parameter.

    ``fit`` maps a DataSet to a {name: value} dict.  Resample b draws from the
    stream SeedSequence((seed, b)), so resamples are order-independent and the
    result is deterministic.  Resamples with fewer than ``min_distinct``
    distinct x values (or failing fits) are skipped; more than 10% skips is an
    error.  Returns (intervals, number of resamples actually used).
    """
    if n_boot < 100:
        raise DomainError(f"n_boot must be >= 100, got {n_boot}")
    n = len(data)
    samples: dict[str, list[float]] = {}
    skipped = 0
    for b in range(n_boot):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=(seed, b)))
        )
        idx = rng.integers(0, n, n)
        if len(np.unique(data.x[idx])) < min_distinct:
            skipped += 1
            continue
        try:
            params = fit(data.subset(idx))
        except (DomainError, FitConvergenceError):
            skipped += 1
            continue
        for name, value in params.items():
            samples.setdefault(name, []).append(value)
    if skipped > 0.1 * n_boot:
        raise InsufficientDataError(
            f"bootstrap skipped {skipped}/{n_boot} resamples (>10%)"
        )
    ci = {
        name: tuple(np.percentile(np.array(vals), [16.0, 84.0]))
        for name, vals in samples.items()
    }
    return ci, n_boot - skipped
