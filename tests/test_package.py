import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import pairpulse

MODULES = ["pairpulse", *(f"pairpulse.{m.name}" for m in pkgutil.iter_modules(pairpulse.__path__))]

# The package's exports, in order: __version__, then each module's __all__.
PACKAGE_ALL = [
    "__version__", "KINDS", "LAMBDA_MAX", "ModelParams", "ModeSet", "derive_modes",
    "mode_frequencies", "IonizationRegimeError", "Pulse", "ReflectionResult",
    "check_admissible", "analytic_reflection", "EnergyShiftReport", "SuddenShift",
    "energy_shift", "total_shift", "energy_shift_report", "born_shift", "sudden_shift",
    "overlap", "sign_effect_rows", "MAX_ORBITAL_INDEX", "OccupationSpectrum", "Entropies",
    "gamma1_static", "density", "occupation_spectrum", "natural_orbital", "hermite_function",
    "entropies", "model_wavefunction", "mehler_coefficients", "Trajectory",
    "OneMatrixSnapshot", "SnapshotSeries", "envelope", "omega_squared", "integrate_mode",
    "extract_reflection", "onematrix_snapshot", "snapshot_series", "gamma1_time",
    "effective_potential", "energy_expectation_ks", "continuity_residual",
    "trajectory_table", "TransitionWeights", "transition_weights", "statistical_shift",
    "berry_connection", "sign_effect_ratio",
]
PACKAGE_MODULES = ["closed_form", "model", "dynamics", "observables", "collision"]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a deleted function must not stay behind in an export list
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_package_exports_each_module_name(name):
    module = importlib.import_module(f"pairpulse.{name}")
    assert set(module.__all__) <= set(pairpulse.__all__)
    moved = [n for n in module.__all__ if getattr(pairpulse, n, None) is not getattr(module, n)]
    assert moved == []


def test_each_name_declared_by_its_defining_module():
    # a name is exported by one module only, the one that defines it
    modules = [importlib.import_module(f"pairpulse.{name}") for name in PACKAGE_MODULES]
    names = [n for module in modules for n in module.__all__]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    foreign = [f"{module.__name__}.{n}" for module in modules for n in module.__all__
               if (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
               and getattr(module, n).__module__ != module.__name__]
    assert foreign == []


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
