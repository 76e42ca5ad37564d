"""Straight-line kernels: the fitters' objectives written out per row length.

A kernel is Python source for one block of at most 128 points, numpy's
pairwise block: fit_od's weighted SSE, or fit_saturation's profile sums and
weighted SSE.  It is written from the integers n (and cap) alone,
compiled once per shape on first use, and bound to the points' values,
one local each.  numpy's pairwise sum is spelled out as one
expression, so a kernel does the IEEE operations of the list-and-loop formula
it replaces in the same order, bit for bit; a row of more than 128 points is
summed through numpy's halving over such blocks.
"""

import math

_KERNELS = {}  # (source, n, *shape) -> the compiled kernel


def divide(num: float, den: float) -> float:
    """num / den as numpy divides: by zero to +-inf, or NaN for 0 / 0."""
    if den:
        return num / den
    if num != num or num == 0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def pairwise(term: str, n: int) -> str:
    """The sum of term.format(i) over i < n <= 128 as one expression, in
    np.sum's order: below 8 terms one by one onto 0.0, else eight running
    sums combined as a tree and then the rest one by one."""
    terms = list(map(term.format, range(n)))
    end = 0 if n < 8 else n - n % 8
    r = [f"({' + '.join(terms[j:end:8])})" for j in range(8)]
    tree = "((({} + {}) + ({} + {})) + (({} + {}) + ({} + {})))".format(*r) if end else "0.0"
    return " + ".join([tree, *terms[end:]])


def lines(line: str, indices) -> str:
    """A kernel statement, ``line`` formatted with each of ``indices``."""
    return "".join(f"        {line.format(i)}\n" for i in indices)


def row_kernel(source, points, row, *shape: int) -> tuple:
    """The functions of ``source`` on the points ``row`` of ``points``.  Up to
    128 points, those of the kernel ``source(len(row), *shape)`` writes,
    called with the points; above, as numpy sums, the sums of the two
    halves' (split at a multiple of 8, each built so in turn)."""
    n = len(row)
    if n > 128:
        half = n // 2 - n // 2 % 8
        halves = (row_kernel(source, points, part, *shape) for part in (row[:half], row[half:]))
        return tuple(lambda *args, f=f, g=g: f(*args) + g(*args) for f, g in zip(*halves))
    key = (source, n, *shape)
    if key not in _KERNELS:
        point, body = source(n, *shape)  # the names of point {0}, and the kernel's body
        namespace = {"exp": math.exp, "expm1": math.expm1, "divide": divide}
        names = "".join(map(point.format, range(n)))
        exec(f"def kernel(points):\n    [{names}] = points\n{body}", namespace)
        _KERNELS[key] = namespace["kernel"]
    return _KERNELS[key]([points[i] for i in row])


def od_source(n: int, cap: int):
    """sse(od) of n points (w_0..w_cap, y, sigma), each contrast summed as
    models.contrast_from_weights sums it."""
    attenuation = "w0_{0}" + "".join(f" + w{j}_{{0}} * e{j}" for j in range(1, cap + 1))
    return "(" + "".join(f"w{j}_{{0}}, " for j in range(cap + 1)) + "y{0}, s{0}), ", (
        "    def sse(od):\n" + lines("e{0} = exp(-{0} * od)", range(1, cap + 1))
        + lines(f"r{{0}} = (y{{0}} - (1.0 - ({attenuation}))) / s{{0}}", range(n))
        + f"        return {pairwise('r{0} * r{0}', n)}\n    return sse,\n")


def saturation_source(n: int):
    """(num, den, sse) of n points (x, y, sigma, w, w y), as
    fitting._saturation_rows defines them; sse profiles a if a is None."""
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
""".format(g="        b = exp(log_b)\n" + lines("g{0} = -expm1(-x{0} / b)", range(n)),
           num=pairwise("v{0} * g{0}", n), den=pairwise("w{0} * g{0} * g{0}", n),
           r=lines("r{0} = (y{0} - a * g{0}) / s{0}", range(n)), sse=pairwise("r{0} * r{0}", n))
