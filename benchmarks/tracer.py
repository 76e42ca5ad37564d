"""In-process tracer for the benchmark's traced run.

Wraps the public functions of the package's layers (cli, montecarlo, fitting,
detection, experiments, models) in every module that binds them, so calls made
through ``from ... import`` are caught too.  Coarse functions get a span
(name, start, end, parent); functions called per run or per optimizer step get
only a call counter, because a span there would cost more than the work it
times.  Spans and counters stay in memory until ``report()``.

Names that no longer exist are recorded as absent, and every metric derived
from them is reported as missing (``None``) rather than raising.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
import tracemalloc
from collections import Counter

PACKAGE = "rydberg_transistor"
LAYERS = ("cli", "montecarlo", "fitting", "detection", "experiments", "models")

# Cheap closed forms, or called once per Monte Carlo run or objective
# evaluation: counted, not spanned.
COUNT_ONLY_LAYERS = {"models"}
COUNT_ONLY = {"fitting.saturation_curve", "montecarlo.run_rng", "montecarlo.draw_stored",
              "montecarlo.simulate_run"}
WRITER_METHODS = ("table", "record", "histogram", "register", "sidecar")
MODEL_EVALS = ("models.contrast_curve", "fitting.saturation_curve")

# name -> unit of every per-layer metric that ``layer_metrics`` derives.
LAYER_METRICS = {
    "cli.parse_and_validate_s": "s",
    "cli.write_s": "s",
    "montecarlo.simulate_ensemble_s": "s",
    "montecarlo.runs": "count",
    "montecarlo.flyaway_runs": "count",
    "montecarlo.us_per_run": "us",
    "montecarlo.contrast_scan_self_s": "s",
    "fitting.fit_od_s": "s",
    "fitting.fit_saturation_s": "s",
    "fitting.bootstrap_ci_s": "s",
    "fitting.model_evals": "count",
    "fitting.resamples_used": "count",
    "fitting.resamples_skipped": "count",
    "detection.poissonness_test_s": "s",
    "detection.poissonness_peak_mb": "MB",
    "detection.optimal_threshold_s": "s",
    "detection.decompose_s": "s",
    "experiments.self_s": "s",
    "models.calls": "count",
}


def _bound_arguments(fn, args, kwargs) -> dict | None:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Spans and counters around the package's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()  # (binding module, qualified name) -> calls
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.found: set[str] = set()
        self.broken: set[str] = set()  # counters whose arguments no longer bind
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        bindings = [m for n, m in sys.modules.items()
                    if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                qualname = f"{layer}.{name}"
                self.found.add(qualname)
                spanned = layer not in COUNT_ONLY_LAYERS and qualname not in COUNT_ONLY
                for binding in bindings:
                    if vars(binding).get(name) is fn:
                        where = binding.__name__.rpartition(".")[2]
                        self._patch(binding, name,
                                    self._wrap(fn, qualname, where, spanned))
        writer = getattr(modules["cli"], "OutputWriter", None)
        for method in WRITER_METHODS:
            fn = getattr(writer, method, None)
            if inspect.isfunction(fn):
                qualname = f"cli.OutputWriter.{method}"
                self.found.add(qualname)
                self._patch(writer, method, self._wrap(fn, qualname, "cli", True))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, fn, qualname: str, where: str, spanned: bool):
        calls = self.calls
        key = (where, qualname)
        observe = _OBSERVERS.get(qualname)
        if not spanned:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned_call(*args, **kwargs):
            calls[key] += 1
            index = len(spans)
            spans.append([qualname, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        if qualname == "detection.poissonness_test":
            return self._peak_memory(spanned_call, qualname)
        return spanned_call

    def _peak_memory(self, call, qualname: str):
        """Record the peak traced allocation (numpy included) of each call."""
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return call(*args, **kwargs)
            tracemalloc.start()
            try:
                return call(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[qualname] = max(self.peaks.get(qualname, 0.0), peak)
        return measured

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "calls": [{"binding": w, "name": q, "calls": c}
                      for (w, q), c in sorted(self.calls.items())],
            "counters": dict(self.counters),
            "peaks_mb": self.peaks,
            "found": sorted(self.found),
            "broken_counters": sorted(self.broken),
        }


def _observe_ensemble(tracer, fn, args, kwargs, result):
    arguments = _bound_arguments(fn, args, kwargs)
    try:
        n_runs = int(arguments["n_runs"])
        config = arguments["config"]
        flyaway = (math.isfinite(config.retention_tau) and config.n_gate_in > 0
                   and config.params.od_st > 0)
    except (TypeError, KeyError, AttributeError):
        tracer.broken.update(("montecarlo.runs", "montecarlo.flyaway_runs"))
        return
    tracer.counters["montecarlo.runs"] += n_runs
    tracer.counters["montecarlo.flyaway_runs"] += n_runs if flyaway else 0


def _observe_bootstrap(tracer, fn, args, kwargs, result):
    arguments = _bound_arguments(fn, args, kwargs)
    try:
        n_boot = int(arguments["n_boot"])
        used = int(result[1])
    except (TypeError, KeyError, IndexError, ValueError):
        tracer.broken.update(("fitting.resamples_used", "fitting.resamples_skipped"))
        return
    tracer.counters["fitting.resamples_used"] += used
    tracer.counters["fitting.resamples_skipped"] += n_boot - used


_OBSERVERS = {
    "montecarlo.simulate_ensemble": _observe_ensemble,
    "fitting.bootstrap_ci": _observe_bootstrap,
}


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(report: dict) -> dict[str, float | None]:
    """Per-layer metrics from a tracer report; None marks a vanished name."""
    spans = report["spans"]
    found = set(report["found"])
    broken = set(report["broken_counters"])
    own = self_times(spans)

    def present(prefix):
        return any(name.startswith(prefix) for name in found)

    def total(name):
        if name not in found:
            return None
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def self_total(prefix):
        if not present(prefix):
            return None
        return sum(t for s, t in zip(spans, own) if s["name"].startswith(prefix))

    def counter(name, source):
        if source not in found or name in broken:
            return None
        return report["counters"].get(name, 0)

    def calls(binding, names):
        if not any(present(name) for name in names):
            return None
        return sum(c["calls"] for c in report["calls"]
                   if binding in (None, c["binding"]) and c["name"].startswith(names))

    def is_write(index):
        return spans[index]["name"].startswith("cli.OutputWriter.")

    runs = counter("montecarlo.runs", "montecarlo.simulate_ensemble")
    ensemble_s = total("montecarlo.simulate_ensemble")
    return {
        "cli.parse_and_validate_s": total("cli.parse_and_validate"),
        # outermost writer spans only: table() and record() call register()
        "cli.write_s": sum(s["end"] - s["start"] for i, s in enumerate(spans)
                           if is_write(i) and (s["parent"] < 0 or not is_write(s["parent"])))
        if present("cli.OutputWriter.") else None,
        "montecarlo.simulate_ensemble_s": ensemble_s,
        "montecarlo.runs": runs,
        "montecarlo.flyaway_runs": counter("montecarlo.flyaway_runs",
                                           "montecarlo.simulate_ensemble"),
        "montecarlo.us_per_run": None if runs is None or ensemble_s is None
        else (1e6 * ensemble_s / runs if runs else 0.0),
        "montecarlo.contrast_scan_self_s": self_total("montecarlo.contrast_scan"),
        "fitting.fit_od_s": total("fitting.fit_od"),
        "fitting.fit_saturation_s": total("fitting.fit_saturation"),
        "fitting.bootstrap_ci_s": total("fitting.bootstrap_ci"),
        "fitting.model_evals": calls("fitting", MODEL_EVALS),
        "fitting.resamples_used": counter("fitting.resamples_used", "fitting.bootstrap_ci"),
        "fitting.resamples_skipped": counter("fitting.resamples_skipped",
                                             "fitting.bootstrap_ci"),
        "detection.poissonness_test_s": total("detection.poissonness_test"),
        "detection.poissonness_peak_mb": report["peaks_mb"].get("detection.poissonness_test",
                                                                 0.0)
        if "detection.poissonness_test" in found else None,
        "detection.optimal_threshold_s": total("detection.optimal_threshold"),
        "detection.decompose_s": total("detection.decompose"),
        "experiments.self_s": self_total("experiments."),
        "models.calls": calls(None, ("models.",)),
    }
