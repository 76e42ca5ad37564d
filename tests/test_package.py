"""The package namespace: lazy exports and one definition per shared constant."""

import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rydberg_transistor
from rydberg_transistor import detection, experiments, fitting, models, montecarlo

# Every name rydberg_transistor exported in 0.4.0 and still exports, by the
# module it came from (0.5.0 removed with_contrast_vs_reference; 0.6.0 removed
# InconsistentMeasurementError, PhotonCounts, blockade_capacity,
# hard_rod_capacity, predicted_gain and stored_mean; 0.28.0 removed
# scan_configs).
EXPORTS_0_4_0 = {
    "detection": ["CountHistogram", "MixtureModel", "ThresholdResult", "decompose",
                  "mixture_from_params", "optimal_threshold", "poissonness_test"],
    "errors": ["ConfigError", "DomainError", "FitConvergenceError", "InsufficientDataError",
               "TransistorError", "UndefinedContrastError"],
    "fitting": ["DataSet", "FitResult", "bootstrap_ci", "fit_od", "fit_saturation"],
    "models": ["SaturationParams", "TransistorParams", "coherent_limit", "contrast_curve",
               "expected_contrast_incoming", "expected_contrast_stored", "fock_contrast",
               "gain", "switch_contrast", "transfer"],
    "montecarlo": ["DEFAULT_P_STORE", "DEFAULT_RETENTION_TAU", "EnsembleResult", "SimConfig",
                   "calibrate_retention_tau", "child_seed", "contrast_scan", "simulate_ensemble"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS_0_4_0.items()
                                          for n in names])
def test_exports_resolve_to_their_module_objects(module, name):
    assert name in rydberg_transistor.__all__
    submodule = importlib.import_module(f"rydberg_transistor.{module}")
    assert getattr(rydberg_transistor, name) is getattr(submodule, name)


def test_all_lists_no_other_names():
    assert sorted(rydberg_transistor.__all__) == sorted(
        n for names in EXPORTS_0_4_0.values() for n in names)


@pytest.mark.parametrize("module", [detection, experiments, fitting, models, montecarlo],
                         ids=lambda module: module.__name__.rsplit(".", 1)[1])
def test_each_layer_all_lists_its_own_names_once(module):
    # a name deleted from a module but left in its __all__ breaks only
    # `from module import *`, which nothing else runs
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name, n in Counter(module.__all__).items() if n > 1] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_everything'"):
        rydberg_transistor.fit_everything
    assert not hasattr(rydberg_transistor, "simulate")  # a CLI command, not an export


def test_shared_constants_have_one_definition():
    for name in ("POISSON_LAM_MAX", "RETENTION_TAU_BRACKET", "DEFAULT_P_STORE", "child_seed",
                 "SCAN_POINT", "BOOTSTRAP", "TRANSFER_REF", "TRANSFER_GATE"):
        assert getattr(montecarlo, name) is getattr(models, name), name
    # the tags of streams montecarlo does not draw are read where they are
    for module, name in ((experiments, "DETECTION_REF"), (experiments, "SWEEP_POINT"),
                         (experiments, "POISSONNESS_NULL"), (fitting, "FIT_BOOTSTRAP")):
        assert getattr(module, name) is getattr(models, name), name
        assert not hasattr(montecarlo, name), name
    assert detection.MU0_MAX is models.MU0_MAX
    assert fitting.child_seed is models.child_seed
    assert experiments.child_seed is models.child_seed
    # tags keep their values, so every derived stream stays where it was
    assert [models.SCAN_POINT, models.BOOTSTRAP, models.TRANSFER_REF, models.TRANSFER_GATE,
            models.DETECTION_REF, models.SWEEP_POINT, models.POISSONNESS_NULL,
            models.FIT_BOOTSTRAP] == list(range(8))


def test_importing_cli_executes_no_layer_module():
    # nor numpy, also once a manifest is parsed and validated
    src = str(Path(rydberg_transistor.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import json, sys; import rydberg_transistor.cli as cli; "
            "cli.parse_and_validate(['detect', '--config', 'paper90us', '--mu0', '20']); "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('rydberg_transistor', 'numpy'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["rydberg_transistor", "rydberg_transistor.cli",
                                       "rydberg_transistor.errors", "rydberg_transistor.models"]


def test_readme_layout_table_names_every_module():
    # each row `rydberg_transistor.<module>` of README's Layout table, against
    # the modules of the package directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `rydberg_transistor\.(\w+)` \|", layout, flags=re.MULTILINE)
    package = Path(rydberg_transistor.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(named) == sorted(modules)
