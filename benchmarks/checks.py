"""Output checks for the benchmark's CLI invocations.

Every check compares against a tolerance, never a hash, so a documented
change of the random streams does not break the benchmark.  Reference values
are computed here from the closed forms with the standard library only,
independently of the package.  Tolerances follow tests/test_acceptance.py.

A check has a kind.  "format" checks that every CSV cell parses back with
float() or int(), as the README promises; "result" checks the numbers
themselves.  Either failure fails the invocation; only a result failure, a
missing file or a nonzero exit makes the run's output incorrect.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# Values of the shipped configs the workloads run (paper30us, paper90us).
OD_SP_30US = 0.75
GATE_VALUES = 14
SAT_A, SAT_B = 46.0, 70.0
N_GATE_90US, OD_SP_90US, CAP = 0.75, 0.45, 3
SOURCE_VALUES = [25.0 * k for k in range(1, 11)]
N_STORED, OD_ST_MODEL = 0.61, 0.94
MU0_VALUES = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

# Cells of key/value records that are text by design.
TEXT_KEYS = {"flags", "mode"}
BOOLEANS = {"true", "false"}


class Checks:
    """Outcomes of the checks on one invocation's outputs."""

    def __init__(self):
        self.outcomes: list[dict] = []

    def add(self, name: str, kind: str, ok: bool, detail: str = "") -> bool:
        self.outcomes.append({"check": name, "kind": kind, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def ok(self) -> bool:
        return all(o["ok"] for o in self.outcomes)

    @property
    def results_ok(self) -> bool:
        return all(o["ok"] for o in self.outcomes if o["kind"] != "format")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_rows(path: Path, checks: Checks) -> list[list[str]] | None:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        checks.add(f"{path.name} readable", "result", False, str(exc))
        return None
    if not checks.add(f"{path.name} has a header and rows", "result", len(rows) >= 2):
        return None
    return rows


def read_table(path: Path, checks: Checks) -> list[dict[str, float]] | None:
    """Rows of a header + numeric-cells table; checks that every cell parses."""
    rows = _read_rows(path, checks)
    if rows is None:
        return None
    header, body = rows[0], rows[1:]
    bad = [cell for row in body for cell in row if not _is_number(cell)]
    checks.add(f"{path.name} cells parse as numbers", "format", not bad,
               f"unparseable: {bad[:3]}" if bad else "")
    return [{h: float(c) if _is_number(c) else math.nan for h, c in zip(header, row)}
            for row in body]


def read_record(path: Path, checks: Checks) -> dict[str, str] | None:
    """A key,value record; checks that every non-text value parses."""
    rows = _read_rows(path, checks)
    if rows is None:
        return None
    record = {row[0]: row[1] if len(row) > 1 else "" for row in rows[1:]}
    bad = [f"{k}={v}" for k, v in record.items()
           if k not in TEXT_KEYS and v not in BOOLEANS and not _is_number(v)]
    checks.add(f"{path.name} values parse as numbers", "format", not bad,
               f"unparseable: {bad[:3]}" if bad else "")
    return record


def _within(checks: Checks, name: str, got, want: float, rel: float) -> None:
    try:
        value = float(got)
    except (TypeError, ValueError):
        checks.add(name, "result", False, f"not a number: {got!r}")
        return
    checks.add(name, "result", abs(value - want) <= rel * abs(want),
               f"{value!r} vs {want!r} (rel tol {rel})")


# -- independent closed forms --------------------------------------------------

def _poisson_pmf(n: int, mean: float) -> float:
    if mean == 0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def capped_weights(mean: float, cap: int) -> list[float]:
    """P(min(k, cap) = j) for k ~ Poisson(mean), j = 0..cap."""
    head = [_poisson_pmf(j, mean) for j in range(cap)]
    return head + [1.0 - math.fsum(head)]


def coherent_gain(n_source: float) -> float:
    """Gain C * a(1 - e^{-n/b}) of a coherent gate pulse at the paper90us point."""
    weights = capped_weights(N_GATE_90US, CAP)
    attenuation = math.fsum(w * math.exp(-j * OD_SP_90US) for j, w in enumerate(weights))
    return (1.0 - attenuation) * SAT_A * (1.0 - math.exp(-n_source / SAT_B))


def threshold_fidelities(mu0: float) -> list[tuple[int, float]]:
    """(tau, prior-weighted fidelity) of "excitation present iff counts <= tau"."""
    weights = capped_weights(N_STORED, CAP)
    means = [mu0 * math.exp(-j * OD_ST_MODEL) for j in range(CAP + 1)]
    cdf = [0.0] * (CAP + 1)
    out = [(-1, weights[0])]
    for tau in range(int(mu0 + 12.0 * math.sqrt(mu0) + 12.0)):
        for j in range(CAP + 1):
            cdf[j] += _poisson_pmf(tau, means[j])
        gated = math.fsum(weights[j] * cdf[j] for j in range(1, CAP + 1))
        out.append((tau, gated + weights[0] * (1.0 - cdf[0])))
    return out


# -- per-command checks --------------------------------------------------------

def check_contrast_scan(out: Path, checks: Checks) -> None:
    rows = read_table(out / "contrast_scan.csv", checks)
    if rows is not None:
        checks.add("contrast_scan has one row per gate value", "result",
                   len(rows) == GATE_VALUES, f"{len(rows)} rows")


def check_fit_od(out: Path, checks: Checks) -> None:
    record = read_record(out / "fit_od.csv", checks)
    if record is not None:
        _within(checks, "od_sp within 5% of 0.75", record.get("od_sp"), OD_SP_30US, 0.05)


def check_gain_scan(out: Path, checks: Checks) -> None:
    rows = read_table(out / "gain_scan.csv", checks)
    if rows is None:
        return
    xs = [r.get("n_source_in", math.nan) for r in rows]
    checks.add("gain_scan covers the configured source values", "result",
               xs == SOURCE_VALUES, f"{xs}")
    errors = [abs(r.get("gain_coherent", math.nan) - coherent_gain(x)) for r, x in zip(rows, xs)]
    checks.add("gain_coherent matches the closed form to 1e-9", "result",
               all(e <= 1e-9 for e in errors), f"max abs error {max(errors)!r}")


def check_fit_saturation_saturated(out: Path, checks: Checks) -> None:
    record = read_record(out / "fit_saturation.csv", checks)
    if record is not None:
        _within(checks, "a within 5% of 46", record.get("a"), SAT_A, 0.05)
        _within(checks, "b within 5% of 70", record.get("b"), SAT_B, 0.05)


def check_fit_saturation_linear(out: Path, checks: Checks) -> None:
    record = read_record(out / "fit_saturation.csv", checks)
    if record is not None:
        flags = record.get("flags", "").split(",")
        checks.add("linear_regime flag set", "result", "linear_regime" in flags,
                   f"flags={flags}")


def check_detect(out: Path, checks: Checks) -> None:
    for name in ("gated_histogram.csv", "reference_histogram.csv", "decomposition.csv"):
        read_table(out / name, checks)
    read_record(out / "detect_report.csv", checks)
    rows = read_table(out / "fidelity_sweep.csv", checks)
    if rows is None:
        return
    mu0s = [r.get("mu0", math.nan) for r in rows]
    if not checks.add("fidelity_sweep covers the configured mu0 values", "result",
                      mu0s == MU0_VALUES, f"{mu0s}"):
        return
    fidelities = [r.get("fidelity", math.nan) for r in rows]
    checks.add("a fidelity lies in 0.72 +- 0.05", "result",
               any(abs(f - 0.72) <= 0.05 for f in fidelities), f"{fidelities}")
    wrong = []
    for r in rows:
        table = dict(threshold_fidelities(r["mu0"]))
        best_tau = max(table, key=lambda t: (table[t], -t))
        tau = r.get("tau", math.nan)
        # a different tau passes only as a tie with the argmax within rounding
        if tau != best_tau and not (tau in table and table[best_tau] - table[tau] <= 1e-12):
            wrong.append((r["mu0"], tau, best_tau))
    checks.add("every tau is the argmax of the threshold fidelity", "result", not wrong,
               f"(mu0, tau, argmax): {wrong}" if wrong else "")
