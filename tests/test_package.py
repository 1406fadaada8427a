import ast
import dataclasses
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
    "total_shift", "energy_shift_report", "born_shift", "sudden_shift", "overlap",
    "sign_effect_rows", "MAX_ORBITAL_INDEX", "OccupationSpectrum", "Entropies",
    "gamma1_static", "density", "occupation_spectrum", "natural_orbital", "entropies",
    "model_wavefunction", "Trajectory", "OneMatrixSnapshot", "SnapshotSeries", "envelope",
    "omega_squared", "integrate_mode", "extract_reflection", "onematrix_snapshot",
    "snapshot_series", "effective_potential", "energy_expectation_ks", "continuity_residual",
    "trajectory_table", "TransitionWeights", "transition_weights", "statistical_shift",
    "berry_connection", "sign_effect_ratio",
]
PACKAGE_MODULES = ["closed_form", "model", "dynamics", "observables", "collision"]
# The public classes that are not NamedTuples: the exception, the two inputs,
# which must validate on every construction path (a NamedTuple's _make and
# _replace skip any __new__), and the two array holders compared by identity.
DATACLASSES = ["ModelParams", "Pulse", "SnapshotSeries", "Trajectory"]
NOT_NAMEDTUPLES = ["IonizationRegimeError", *DATACLASSES]


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


def _library_functions():
    """perfbench's LIBRARY_FUNCTIONS: the names it binds by module, as pairpulse.<module>.<name>."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.LIBRARY_FUNCTIONS


def test_benchmark_bindings_resolve():
    missing = [f"{module}.{name}" for module, names in _library_functions().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"pairpulse.{module}"), name, None))]
    assert missing == []


def test_every_exported_function_has_a_caller():
    # a function that only tests call has no place in the package: each one is
    # read by code in src/pairpulse outside its own definition (imports,
    # docstrings and __all__ do not count) or bound by perfbench
    readers = {}
    for path in Path(pairpulse.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                readers.setdefault(name, set()).add(owner)
    bound = {name for names in _library_functions().values() for name in names}
    functions = [n for n in pairpulse.__all__ if inspect.isfunction(getattr(pairpulse, n))]
    assert [n for n in functions if not readers.get(n, set()) - {n} and n not in bound] == []


def test_records_are_namedtuples():
    classes = {n: cls for n in PACKAGE_ALL if inspect.isclass(cls := getattr(pairpulse, n))}
    namedtuples = [n for n, cls in classes.items() if issubclass(cls, tuple) and hasattr(cls, "_fields")]
    assert sorted(set(classes) - set(namedtuples)) == NOT_NAMEDTUPLES
    assert sorted(n for n, cls in classes.items() if dataclasses.is_dataclass(cls)) == DATACLASSES


def test_dataclass_replace_validates_inputs():
    with pytest.raises(ValueError, match="lam must lie in"):
        dataclasses.replace(pairpulse.ModelParams(3.0, 0.375), lam=0.5)
    pulse = pairpulse.Pulse(Lambda=0.1, beta=2.0, omega0=3.0)
    with pytest.raises(ValueError, match="beta must be finite"):
        dataclasses.replace(pulse, beta=0.0)
    with pytest.raises(ValueError, match="omega0 must lie in"):
        dataclasses.replace(pulse, omega0=-3.0)


def test_integrator_makes_no_blas_call():
    # BLAS kernels differ in FMA use, so one BLAS call in the integrator would
    # make evolve's bytes depend on the host (tests/test_cli.py checks the
    # bytes directly wherever numpy runs on OpenBLAS)
    tree = ast.parse(Path(pairpulse.__file__).with_name("dynamics.py").read_text())
    found = [f"line {node.lineno}: " + (f".{node.attr}" if isinstance(node, ast.Attribute) else "@")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg")
             or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert found == []
