import importlib
import pkgutil

import pytest

import pairpulse

MODULES = ["pairpulse", *(f"pairpulse.{m.name}" for m in pkgutil.iter_modules(pairpulse.__path__))]

# The package's exports before it took them from its modules' __all__.
EARLIER_EXPORTS = [
    "GridSpec", "ModelParams", "ModeSet", "OccupationSpectrum", "derive_modes", "density",
    "entropies", "gamma1_static", "model_wavefunction", "natural_orbital",
    "occupation_spectrum", "IonizationRegimeError", "OneMatrixSnapshot", "Pulse",
    "ReflectionResult", "Trajectory", "analytic_reflection", "check_admissible",
    "extract_reflection", "gamma1_time", "integrate_mode", "omega_squared",
    "onematrix_snapshot", "snapshot_series", "EnergyShiftReport", "TransitionWeights",
    "berry_connection", "born_shift", "energy_shift", "energy_shift_report", "overlap",
    "statistical_shift", "sudden_shift", "total_shift", "transition_weights",
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
    assert len(set(pairpulse.__all__)) == len(pairpulse.__all__)
    assert "__version__" in pairpulse.__all__
    lost = [n for n in EARLIER_EXPORTS if n not in pairpulse.__all__ or not hasattr(pairpulse, n)]
    assert lost == []
