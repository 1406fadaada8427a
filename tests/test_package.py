import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import pairpulse

MODULES = ["pairpulse", *(f"pairpulse.{m.name}" for m in pkgutil.iter_modules(pairpulse.__path__))]

# The package's exports, in order: __version__, then each module's __all__.
PACKAGE_ALL = [
    "__version__", "KINDS", "LAMBDA_MAX", "MAX_ORBITAL_INDEX", "ModelParams", "ModeSet",
    "OccupationSpectrum", "Entropies", "GridSpec", "derive_modes", "gamma1_static", "density",
    "occupation_spectrum", "natural_orbital", "hermite_function", "entropies",
    "mode_frequencies", "model_wavefunction", "normal_coordinates", "mehler_coefficients",
    "IonizationRegimeError", "Pulse", "Trajectory", "ReflectionResult", "OneMatrixSnapshot",
    "SnapshotSeries", "omega_squared", "check_admissible", "integrate_mode",
    "extract_reflection", "analytic_reflection", "onematrix_snapshot", "snapshot_series",
    "gamma1_time", "effective_potential", "energy_expectation_ks", "continuity_residual",
    "trajectory_table", "EnergyShiftReport", "TransitionWeights", "SuddenShift",
    "energy_shift", "total_shift", "energy_shift_report", "born_shift", "sudden_shift",
    "transition_weights", "statistical_shift", "overlap", "berry_connection",
    "sign_effect_ratio",
]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a deleted function must not stay behind in an export list
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["model", "dynamics", "observables", "collision"])
def test_package_exports_each_module_name(name):
    module = importlib.import_module(f"pairpulse.{name}")
    assert set(module.__all__) <= set(pairpulse.__all__)
    moved = [n for n in module.__all__ if getattr(pairpulse, n, None) is not getattr(module, n)]
    assert moved == []


def test_package_exports():
    # resolved lazily: each name from the first module whose __all__ declares it
    assert pairpulse.__all__ == PACKAGE_ALL
    assert set(PACKAGE_ALL) <= set(dir(pairpulse))
    assert [n for n in PACKAGE_ALL if not hasattr(pairpulse, n)] == []
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pairpulse.no_such_name


def test_benchmark_bindings_resolve():
    # the functions perfbench binds by module, as pairpulse.<module>.<name>
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    missing = [f"{module}.{name}" for module, names in workloads.LIBRARY_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"pairpulse.{module}"), name, None))]
    assert missing == []
