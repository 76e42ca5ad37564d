"""Two-color Rydberg-EIT photon transistor: models, simulation, analysis.

The package splits into layers: closed-form formulas and the validated
records (`models`), the seeded Monte Carlo engine with its histograms and
the contrast and transfer scans (`montecarlo`), least-squares parameter
recovery (`fitting`), single-shot detection statistics (`detection`), the
detection pipeline (`experiments`) and the CLI (`cli`).

The public names below are loaded lazily (PEP 562): importing the package,
or `rydberg_transistor.cli`, executes no layer module, and the first access
to a name imports the submodule that defines it.  So each CLI command loads
only the layers it runs: `gain-scan` `models` alone, `fit-od` and
`fit-saturation` `fitting` too, `simulate`, `contrast-scan` and
`transfer-scan` `montecarlo`, and `detect` `montecarlo`, `detection` and
`experiments`.
"""

import importlib

__version__ = "0.28.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "detection": (
        "MixtureModel", "ThresholdResult", "decompose", "mixture_from_params",
        "optimal_threshold", "poissonness_test",
    ),
    "errors": (
        "ConfigError", "DomainError", "FitConvergenceError", "InsufficientDataError",
        "TransistorError", "UndefinedContrastError",
    ),
    "fitting": ("FitResult", "bootstrap_ci", "fit_od", "fit_saturation"),
    "models": (
        "DEFAULT_P_STORE", "DataSet", "SaturationParams", "TransistorParams", "child_seed",
        "coherent_limit", "contrast_curve", "expected_contrast_incoming",
        "expected_contrast_stored", "fock_contrast", "gain", "switch_contrast", "transfer",
    ),
    "montecarlo": (
        "CountHistogram", "DEFAULT_RETENTION_TAU", "EnsembleResult", "SimConfig",
        "calibrate_retention_tau", "contrast_scan", "simulate_ensemble",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
