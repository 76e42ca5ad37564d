"""Two-color Rydberg-EIT photon transistor: models, simulation, analysis.

The package splits into five layers: closed-form formulas (`models`), the
seeded Monte Carlo engine (`montecarlo`), least-squares parameter recovery
(`fitting`), single-shot detection statistics (`detection`), and experiment
drivers plus a CLI (`experiments`, `cli`).
"""

__version__ = "0.4.0"

from .detection import (
    CountHistogram,
    MixtureModel,
    ThresholdResult,
    decompose,
    mixture_from_params,
    optimal_threshold,
    poissonness_test,
)
from .errors import (
    ConfigError,
    DomainError,
    FitConvergenceError,
    InconsistentMeasurementError,
    InsufficientDataError,
    TransistorError,
    UndefinedContrastError,
)
from .fitting import DataSet, FitResult, bootstrap_ci, fit_od, fit_saturation
from .models import (
    PhotonCounts,
    SaturationParams,
    TransistorParams,
    blockade_capacity,
    coherent_limit,
    contrast_curve,
    expected_contrast_incoming,
    expected_contrast_stored,
    fock_contrast,
    gain,
    hard_rod_capacity,
    predicted_gain,
    stored_mean,
    switch_contrast,
    transfer,
)
from .montecarlo import (
    DEFAULT_P_STORE,
    DEFAULT_RETENTION_TAU,
    EnsembleResult,
    SimConfig,
    calibrate_retention_tau,
    child_seed,
    contrast_scan,
    scan_configs,
    simulate_ensemble,
    with_contrast_vs_reference,
)
