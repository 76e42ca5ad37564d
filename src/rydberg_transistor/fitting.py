"""Weighted least-squares parameter recovery with bootstrap uncertainties.

fit_od inverts the blockade-capped contrast model for the optical depth per
gate photon/excitation; fit_saturation recovers the (a, b) of the
self-blockade transfer curve, solving a in closed form (variable projection).
Both are bounded Brent searches in one variable, written as row fitters over
rows of indices into the data: the point fit is the row (0, ..., n-1), then a
case-resampling bootstrap (percentile 68% intervals, deterministic under a
seed) fits its resamples.  In plain Python, with numpy's bits; resamples come
from ports of numpy's Philox and bounded-integer draws.

Each objective is a straight-line kernel: Python source for one block of at
most 128 points, numpy's pairwise block, written from the integers n (and
cap) alone, compiled once per shape on first use, and bound to the points'
values, one local each.  Its sums spell out numpy's pairwise order as one
expression (the builtin sum compensates from Python 3.12), so a kernel does
numpy's IEEE operations in numpy's order, bit for bit; a row of more than 128
points is summed through numpy's halving over such blocks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import namedtuple

from .errors import DomainError, FitConvergenceError, InsufficientDataError
from .models import (FIT_BOOTSTRAP, DataSet, _seed_sequence_words, capped_poisson_weights,
                     child_seed)

__all__ = [
    "DataSet",
    "FitResult",
    "fit_od",
    "fit_saturation",
    "bootstrap_ci",
]

OD_SEARCH_MAX = 50.0  # covers all physical optical depths with margin
XATOL = 1e-9  # absolute in od, relative in b (the search runs over log b)
MAXFUN = 500  # objective evaluations per bounded Brent search, as in scipy
# fit_saturation searches b over these multiples of max(x); data that never
# saturate push b to the upper edge, where the linear-regime flags fire.
B_SEARCH_RANGE = (1e-3, 1e3)


FitResult = namedtuple("FitResult", "params sse ci_68 n_boot converged flags", defaults=((),))
FitResult.__doc__ = """Point estimates with weighted SSE and bootstrap 68% intervals.
``converged`` is always True: a fit that fails raises FitConvergenceError."""


def _inverse_square(sigma: float) -> float:
    """sigma ** -2.0, as numpy's inf where Python raises OverflowError."""
    try:
        return sigma ** -2.0
    except OverflowError:
        return math.inf


def _sign(v: float) -> float:
    """np.sign(v) + (v == 0): 1 for v >= 0, -1 below, NaN for NaN."""
    return 1.0 if v >= 0 else -1.0 if v < 0 else v


def _minimize_1d(objective, lo: float, hi: float):
    """(argmin, objective there, error) of ``objective`` on [lo, hi] by
    bounded Brent to XATOL: golden sections with parabolic steps (Brent 1973),
    scipy's bounded ``minimize_scalar`` operation for operation, so its
    iterates equal scipy's, bit for bit.  error is None, or the
    FitConvergenceError after MAXFUN evaluations or at a NaN or non-finite
    minimum."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    xf = fulc = nfc = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = objective(xf)
    fu, num, message = math.inf, 1, "Solution found."
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + XATOL / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # a parabolic step through the three best points, where acceptable
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:  # otherwise a golden-section step into the larger part
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        # a NaN rat propagates through max() into x, as through np.maximum
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = objective(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if num >= MAXFUN:
            message = "Maximum number of function calls reached."
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        message = "NaN result encountered."
    elif message == "Solution found." and math.isfinite(fx):
        return xf, fx, None
    return xf, fx, FitConvergenceError("bounded scalar minimization failed",
                                       diagnostics={"message": message, "x": xf, "sse": fx})


_KERNELS = {}  # (source, n, *shape) -> the compiled kernel


def _divide(num: float, den: float) -> float:
    """num / den as numpy divides: by zero to +-inf, or NaN for 0 / 0."""
    if den:
        return num / den
    if num != num or num == 0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _pairwise(term: str, n: int) -> str:
    """The sum of term.format(i) over i < n <= 128 as one expression, in
    np.sum's order: below 8 terms one by one onto 0.0, else eight running
    sums combined as a tree and then the rest one by one."""
    terms = list(map(term.format, range(n)))
    end = 0 if n < 8 else n - n % 8
    r = [f"({' + '.join(terms[j:end:8])})" for j in range(8)]
    tree = "((({} + {}) + ({} + {})) + (({} + {}) + ({} + {})))".format(*r) if end else "0.0"
    return " + ".join([tree, *terms[end:]])


def _lines(line: str, indices) -> str:
    """A kernel statement, ``line`` formatted with each of ``indices``."""
    return "".join(f"        {line.format(i)}\n" for i in indices)


def _row_kernel(source, points, row, *shape: int) -> tuple:
    """The functions of ``source`` on the points ``row`` of ``points``.  Up to
    128 points, those of the kernel ``source(len(row), *shape)`` writes,
    called with the points; above, as numpy sums, the sums of the two
    halves' (split at a multiple of 8, each built so in turn)."""
    n = len(row)
    if n > 128:
        half = n // 2 - n // 2 % 8
        halves = (_row_kernel(source, points, part, *shape) for part in (row[:half], row[half:]))
        return tuple(lambda *args, f=f, g=g: f(*args) + g(*args) for f, g in zip(*halves))
    key = (source, n, *shape)
    if key not in _KERNELS:
        point, body = source(n, *shape)  # the names of point {0}, and the kernel's body
        namespace = {"exp": math.exp, "expm1": math.expm1, "divide": _divide}
        names = "".join(map(point.format, range(n)))
        exec(f"def kernel(points):\n    [{names}] = points\n{body}", namespace)
        _KERNELS[key] = namespace["kernel"]
    return _KERNELS[key]([points[i] for i in row])


def _od_source(n: int, cap: int):
    """sse(od) of n points (w_0..w_cap, y, sigma), each contrast summed as
    models.contrast_from_weights sums it."""
    attenuation = "w0_{0}" + "".join(f" + w{j}_{{0}} * e{j}" for j in range(1, cap + 1))
    return "(" + "".join(f"w{j}_{{0}}, " for j in range(cap + 1)) + "y{0}, s{0}), ", (
        "    def sse(od):\n" + _lines("e{0} = exp(-{0} * od)", range(1, cap + 1))
        + _lines(f"r{{0}} = (y{{0}} - (1.0 - ({attenuation}))) / s{{0}}", range(n))
        + f"        return {_pairwise('r{0} * r{0}', n)}\n    return sse,\n")


def _saturation_source(n: int):
    """(num, den, sse) of n points (x, y, sigma, w, w y), as
    _saturation_rows defines them; sse profiles a if a is None."""
    return "(x{0}, y{0}, s{0}, w{0}, v{0}), ", """\
    def num(log_b):
{g}        return {num}
    def den(log_b):
{g}        return {den}
    def sse(log_b, a=None):
{g}        if a is None:
            a = divide({num}, {den})
{r}        return {sse}
    return num, den, sse
""".format(g="        b = exp(log_b)\n" + _lines("g{0} = -expm1(-x{0} / b)", range(n)),
           num=_pairwise("v{0} * g{0}", n), den=_pairwise("w{0} * g{0} * g{0}", n),
           r=_lines("r{0} = (y{0} - a * g{0}) / s{0}", range(n)), sse=_pairwise("r{0} * r{0}", n))


def _od_sse(data: DataSet, cap: int):
    """row -> fit_od's weighted SSE on the points ``row`` as a function of od.
    The od-independent cap+1 weights of each point are computed once."""
    points = [(*capped_poisson_weights(x, cap), y, s) for x, y, s in data.points]
    return lambda row: _row_kernel(_od_source, points, row, len(points[0]) - 3)[0]


def _columns(names, found):
    """A row fitter's (params, sses, errors) from its rows' (*params, sse,
    error) tuples, the params in the order of ``names``."""
    return ({name: [row[i] for row in found] for i, name in enumerate(names)},
            [row[-2] for row in found], [row[-1] for row in found])


def _od_rows(data: DataSet, rows, cap: int):
    """fit_od's search on each row of indices in ``rows``."""
    sse = _od_sse(data, cap)
    return _columns(["od"], [_minimize_1d(sse(row), 0.0, OD_SEARCH_MAX) for row in rows])


def _saturation_rows(data: DataSet, rows):
    """fit_saturation's search on each row of indices in ``rows``.

    Variable projection: for fixed b the model is linear in a, so the
    weighted least-squares a = num / den, with num = sum(w y g), den =
    sum(w g^2), g = 1 - exp(-x / b) and w = 1 / sigma^2; the profiled SSE is
    then minimized over log b in [1e-3, 1e3] * max(x) of the row.  A row
    whose lower edge underflows to 0 (max(x) below about 2.5e-321) fails its
    search.
    """
    points = [(x, y, s, w, w * y) for x, y, s in data.points for w in [_inverse_square(s)]]
    found = []
    for row in rows:
        x_max = max(data.x[i] for i in row)
        b_range = [f * x_max for f in B_SEARCH_RANGE]
        if not b_range[0] > 0:
            found.append((math.nan, math.nan, math.nan, FitConvergenceError(
                f"b search range {b_range} of max(x) = {x_max!r} underflows to 0")))
            continue
        num, den, sse = _row_kernel(_saturation_source, points, row)
        objective = sse if len(row) <= 128 else lambda log_b, num=num, den=den, sse=sse: \
            sse(log_b, _divide(num(log_b), den(log_b)))  # the halves' SSE at the row's a
        log_b, row_sse, error = _minimize_1d(objective, *map(math.log, b_range))
        found.append((_divide(num(log_b), den(log_b)), math.exp(log_b), row_sse, error))
    return _columns(["a", "b"], found)


def _fit_result(rows, data, assess, n_boot, seed, min_distinct) -> FitResult:
    """Fit the point row (0, ..., n-1) with the row fitter ``rows``, then the
    bootstrap's rows.  ``assess`` maps the point row's {name: value} and SSE,
    the minimum its search found, to the estimate's (params, flags, warning
    messages).  A failed point row raises first, the warnings follow, and the
    bootstrap's errors come last.  Each interval, in order of ``params``, is
    widened to bracket its estimate.
    """
    point, (sse,), (error,) = rows(data, [tuple(range(len(data)))])
    if error is not None:
        raise error
    params, flags, messages = assess({name: values[0] for name, values in point.items()}, sse)
    for message in messages:
        warnings.warn(message, stacklevel=3)
    ci, n_used = bootstrap_ci(rows, data, n_boot=n_boot, seed=seed, min_distinct=min_distinct)
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
    if any(v <= -1 or v > 1 for v in data.y):
        raise DomainError("contrast values must lie in (-1, 1]")
    name = "od_sp" if mode == "incoming" else "od_st"

    def assess(point: dict[str, float], sse: float):
        od_hat = point["od"]
        if od_hat <= 1e-6:
            return {name: od_hat}, ["boundary_od_zero"], ["fitted od sits at the zero boundary"]
        if _od_sse(data, cap)(range(len(data)))(OD_SEARCH_MAX) <= sse:
            return {name: od_hat}, ["boundary_od_max"], [
                f"fitted od is no better than the boundary od = {OD_SEARCH_MAX:g}: "
                "the data do not bound od from above"]
        return {name: od_hat}, [], []

    return _fit_result(lambda d, rows: _od_rows(d, rows, cap), data, assess, n_boot, seed,
                       min_distinct=2)


def fit_saturation(data: DataSet, n_boot: int = 200, seed: int = 0) -> FitResult:
    """Recover (a, b) of the transfer curve a * (1 - exp(-x / b)).

    Needs at least 3 distinct x values.  b is searched over
    [1e-3, 1e3] * max(x) with a profiled out in closed form.  Data confined
    to the linear small-x regime make only the ratio a/b identifiable; their
    b lands at or above max(x) (at the search's upper edge when the data
    show no curvature at all), which is reported as an ill-conditioning
    warning plus 'linear_regime'/'b_ci_unbounded' flags instead of an error.
    A failed search raises FitConvergenceError.
    """
    n_distinct = len(set(data.x))
    if n_distinct < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct x values for a 2-parameter fit, got {n_distinct}"
        )

    def assess(params: dict[str, float], sse: float):
        if params["b"] >= max(data.x):
            return params, ["linear_regime", "b_ci_unbounded"], [
                "saturation scale b is not reached by the data; "
                "only the initial slope a/b is identified"]
        return params, [], []

    return _fit_result(_saturation_rows, data, assess, n_boot, seed, min_distinct=3)


_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1


def _philox_uint32(seed: int):
    """The uint32 stream of ``Generator(Philox(SeedSequence((seed,))))``:
    Philox4x64-10 blocks (Salmon et al. 2011) at counters 1, 2, ... (below
    2**64: numpy's 256-bit counter never carries here), keyed by
    ``SeedSequence((seed,)).generate_state(2, np.uint64)``, each uint64 low half first.
    The ten round keys, the key's Weyl sequence, are the same for every block."""
    w = _seed_sequence_words((seed,), 4)
    k0, k1 = w[0] | w[1] << 32, w[2] | w[3] << 32
    keys = []
    for _ in range(10):
        keys.append((k0, k1))
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
    for counter in itertools.count(1):
        c0, c1, c2, c3 = counter, 0, 0, 0
        for k0, k1 in keys:  # one round with the two multipliers
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & _MASK64, p0 >> 64 ^ c3 ^ k1, p0 & _MASK64
        yield from (c0 & _MASK32, c0 >> 32, c1 & _MASK32, c1 >> 32,
                    c2 & _MASK32, c2 >> 32, c3 & _MASK32, c3 >> 32)


def _integers(stream, n: int, size: int) -> list[int]:
    """``Generator.integers(0, n, size)`` for 2 <= n < 2**32 from the uint32
    ``stream``: Lemire's multiply-shift with numpy's rejection threshold
    2**32 mod n, one uint32 per try."""
    threshold = (2**32 - n) % n
    out = []
    for _ in range(size):
        m = next(stream) * n
        while m & _MASK32 < threshold:
            m = next(stream) * n
        out.append(m >> 32)
    return out


def bootstrap_ci(fit, data: DataSet, n_boot: int = 200, seed: int = 0,
                 min_distinct: int = 2) -> tuple[dict[str, tuple[float, float]], int]:
    """Case-resampling bootstrap, percentile 16/84 intervals per parameter.

    ``fit`` is a row fitter: ``fit(data, rows)``, with ``rows`` a list of
    index tuples into ``data``, returns ({name: one value per row}, sses,
    errors): sses[i] is row i's weighted SSE at its estimate, errors[i] None
    when row i converged.  The rows are drawn n_boot at a time
    as ``integers(0, n, (n_boot, n))`` from the stream ``child_seed(seed,
    FIT_BOOTSTRAP, 0)``; one with fewer than ``min_distinct`` distinct x values
    is replaced by the next.  Data with no other such resample than their own
    reorderings raise, as do failed fits of over 10% of the resamples.
    Returns (intervals, resamples used).
    """
    if n_boot < 100:
        raise DomainError(f"n_boot must be >= 100, got {n_boot}")
    n, n_distinct = len(data), len(set(data.x))
    if n_distinct < min_distinct or n <= min_distinct:
        raise InsufficientDataError(
            f"bootstrap needs more than {min_distinct} points and {min_distinct} distinct "
            f"x values, got {n} with {n_distinct}: every resample would be skipped for "
            "too few distinct x values or would only reorder the data"
        )
    stream = _philox_uint32(child_seed(seed, FIT_BOOTSTRAP, 0))
    rows = []
    while len(rows) < n_boot:
        draw = _integers(stream, n, n_boot * n)
        for start in range(0, len(draw), n):
            row = tuple(draw[start:start + n])
            if len({data.x[i] for i in row}) >= min_distinct:
                rows.append(row)
    params, _, errors = fit(data, rows[:n_boot])
    failed = n_boot - errors.count(None)
    if failed > 0.1 * n_boot:
        raise InsufficientDataError(
            f"bootstrap skipped {failed}/{n_boot} resamples whose fit failed (>10%)"
        )
    ci = {name: _percentiles([v for v, error in zip(values, errors) if error is None],
                             (16.0, 84.0))
          for name, values in params.items()}
    return ci, n_boot - failed


def _percentiles(values: list[float], qs) -> tuple[float, ...]:
    """np.percentile(values, qs) of finite values, by its default linear
    method step for step (Hyndman & Fan 1996, type 7)."""
    v = sorted(values)
    out = []
    for q in qs:
        h = (len(v) - 1) * (q / 100)
        i = math.floor(h)
        a, b, t = v[i], v[min(i + 1, len(v) - 1)], h - i
        # numpy's lerp: from the nearer end, so that t = 1 gives b exactly
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)
