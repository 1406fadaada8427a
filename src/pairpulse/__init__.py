"""Driven correlated two-particle trap model.

Static spectral structure of the pair's one-matrix, exact time evolution
under a finite confinement pulse via the Ermakov width equation, the
resulting sign-dependent energy shifts, overlaps and Berry connection, and
the sign effect as a function of projectile velocity at beta = v.

The package namespace is the union of its modules' ``__all__``, each name
declared by the module that defines it.  Names resolve lazily (PEP 562): a
submodule's name imports that submodule alone; any other name's first access
imports the modules in order until one declares the name and stores it in
the package, so later accesses are plain attribute reads.  A missing dunder
name (``__wrapped__``, say) raises ``AttributeError`` without importing any.
``closed_form`` comes first, so ``import pairpulse`` and the closed-form
names (``ModelParams``, ``Pulse``, ``derive_modes``, ``energy_shift_report``,
...) load no numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("closed_form", "model", "dynamics", "observables", "collision")


def _modules():
    for name in _MODULES:
        yield importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name == "__all__":
        return ["__version__", *(n for module in _modules() for n in module.__all__)]
    # no module declares a dunder name, so asking for one imports nothing
    if not (name.startswith("__") and name.endswith("__")):
        # a submodule first, so `from pairpulse import cli` imports cli alone
        submodule = f"{__name__}.{name}"
        try:
            return importlib.import_module(submodule)
        except ModuleNotFoundError as exc:
            if exc.name != submodule:
                raise
        for module in _modules():
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
