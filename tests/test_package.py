import ast
import copy
import dataclasses
import importlib
import importlib.util
import inspect
import pickle
import pkgutil
import struct
from pathlib import Path

import pytest

import pairpulse

MODULES = ["pairpulse", *(f"pairpulse.{m.name}" for m in pkgutil.iter_modules(pairpulse.__path__))]

# The package's exports, in order: __version__, then each module's __all__.
PACKAGE_ALL = [
    "__version__", "KINDS", "LAMBDA_MAX", "ModelParams", "ModeSet", "derive_modes",
    "mode_frequencies", "OccupationSpectrum", "occupation_spectrum", "Entropies", "entropies",
    "IonizationRegimeError", "Pulse", "ReflectionResult", "check_admissible",
    "analytic_reflection", "EnergyShiftReport", "SuddenShift", "total_shift",
    "energy_shift_report", "born_shift", "sudden_shift", "overlap", "sign_effect_rows",
    "MAX_ORBITAL_INDEX", "gamma1_static", "density", "natural_orbital", "model_wavefunction",
    "Trajectory", "OneMatrixSnapshot", "SnapshotSeries", "envelope", "omega_squared",
    "integrate_mode", "extract_reflection", "onematrix_snapshot", "snapshot_series",
    "effective_potential", "energy_expectation_ks", "continuity_residual", "trajectory_table",
    "TransitionWeights", "transition_weights", "statistical_shift", "berry_connection",
    "sign_effect_ratio",
]
PACKAGE_MODULES = ["closed_form", "model", "dynamics", "observables", "collision"]
# The public classes that are not NamedTuples: the exception, the two inputs,
# which must validate on every construction path (a NamedTuple's _make and
# _replace skip any __new__), and the two array holders compared by identity,
# the only dataclasses (closed_form does not import dataclasses).
DATACLASSES = ["SnapshotSeries", "Trajectory"]
NOT_NAMEDTUPLES = ["IonizationRegimeError", "ModelParams", "Pulse", *DATACLASSES]


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


def _inputs():
    return pairpulse.ModelParams(3.0, 0.375), pairpulse.Pulse(Lambda=0.1, beta=2.0, omega0=3.0)


@pytest.mark.parametrize("make", [
    lambda: pairpulse.ModelParams(3.0, 0.5),
    lambda: pairpulse.ModelParams(omega0=3.0, lam=0.5),
    lambda: pairpulse.Pulse(0.1, 0.0, 3.0),
    lambda: pairpulse.Pulse(Lambda=0.1, beta=0.0, omega0=3.0),
    lambda: pairpulse.Pulse(Lambda=0.1, beta=2.0, omega0=-3.0),
], ids=["params-positional", "params-keyword", "pulse-positional", "pulse-keyword", "pulse-omega0"])
def test_inputs_validate_positional_and_keyword(make):
    with pytest.raises(ValueError, match="lam must lie in|beta must be finite|omega0 must lie in"):
        make()


def test_inputs_round_trip_through_pickle_and_copy():
    for value in _inputs():
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value


def test_unpickling_validates():
    # the pickle of beta = 2.0 edited to beta = 0.0 is rejected on loading
    data = pickle.dumps(_inputs()[1], protocol=pickle.HIGHEST_PROTOCOL)
    good, bad = struct.pack(">d", 2.0), struct.pack(">d", 0.0)
    assert data.count(good) == 1
    with pytest.raises(ValueError, match="beta must be finite"):
        pickle.loads(data.replace(good, bad))


def test_copy_validates(monkeypatch):
    from pairpulse import closed_form

    params, pulse = _inputs()

    def reject(value):
        raise ValueError("checked")

    monkeypatch.setattr(closed_form, "_check_beta", reject)
    monkeypatch.setattr(closed_form, "_check_omega0", reject)
    for value in (params, pulse):
        with pytest.raises(ValueError, match="checked"):
            copy.copy(value)


@pytest.mark.parametrize("name", ["omega0", "lam", "Lambda", "beta", "t0", "other"])
def test_inputs_are_immutable(name):
    for value in _inputs():
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert repr(value) == before


def test_inputs_compare_and_hash_by_value():
    params, pulse = _inputs()
    for value, twin, other in (
        (params, pairpulse.ModelParams(3.0, 0.375), pairpulse.ModelParams(3.0, 0.25)),
        (pulse, pairpulse.Pulse(0.1, 2.0, 3.0), pairpulse.Pulse(-0.1, 2.0, 3.0)),
    ):
        assert twin is not value and twin == value and not twin != value
        assert hash(twin) == hash(value) and len({value, twin}) == 1
        assert other != value and not other == value
    # only an instance of the same class can be equal, not a tuple of the values
    assert params != (3.0, 0.375) and pulse != (0.1, 2.0, 3.0)
    assert pairpulse.Pulse(0.375, 3.0, 3.0) != pairpulse.ModelParams(3.0, 0.375)


def test_inputs_repr():
    params, pulse = _inputs()
    assert repr(params) == "ModelParams(omega0=3.0, lam=0.375)"
    assert repr(pulse) == "Pulse(Lambda=0.1, beta=2.0, omega0=3.0)"


def test_pulse_t0_is_a_class_constant():
    pulse = _inputs()[1]
    assert pairpulse.Pulse.t0 == pulse.t0 == 0.0
    assert "t0" not in repr(pulse) and pulse == pairpulse.Pulse(0.1, 2.0, 3.0)
    assert pulse.coupling == 0.1 * 9.0


def _blas_calls(tree):
    """Where ``tree`` can call BLAS: ``.dot``, ``.matmul``, ``.linalg``, ``@``,
    and an ``einsum`` with ``optimize`` set (its optimized path contracts with
    BLAS; the default does not)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg"):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


def _module_tree(name):
    return ast.parse(Path(pairpulse.__file__).with_name(f"{name}.py").read_text())


def test_integrator_makes_no_blas_call():
    # BLAS kernels differ in FMA use, so one BLAS call in the integrator would
    # make evolve's bytes depend on the host (tests/test_cli.py checks the
    # bytes directly wherever numpy runs on OpenBLAS)
    assert _blas_calls(_module_tree("dynamics")) == []


@pytest.mark.parametrize("name", ["check_mehler_reconstruction", "check_partial_trace"])
def test_validate_sums_make_no_blas_call(name):
    # the two checks that sum products over a grid print their error's digits,
    # so a BLAS sum would make validate's stdout depend on the kernel;
    # check_spectral_oracle's eigvalsh is the oracle and stays LAPACK
    functions = {node.name: node for node in _module_tree("validate").body
                 if isinstance(node, ast.FunctionDef)}
    assert _blas_calls(functions[name]) == []
