"""Static ground state of two trapped particles with a harmonic coupling.

The Hamiltonian separates in center-of-mass and relative coordinates into
two independent harmonic modes with frequencies ``omega1 = omega0`` and
``omega2 = omega0*sqrt(1-2*lam)``.  Everything here follows in closed form
from those two numbers, on arrays: the one-particle reduced density matrix
and its Jastrow-type representation, the Hermite natural orbitals of its
point-wise spectral decomposition (Mehler's kernel identity), and the
ground-state wavefunctions of the exact model and of the three
independent-particle reference models (energy-, density- and
wavefunction-optimal).  ``validate`` checks the decomposition and the
Jastrow form against each other and against the exact wavefunction.  The
scalar formulas live in ``closed_form``, which needs no numpy: the model
inputs, the derived frequencies, and the geometric occupation numbers and
their entropies (``occupation_spectrum``, ``entropies``).
"""

from __future__ import annotations

import math

import numpy as np

# derive_modes, occupation_spectrum and entropies stay importable from here:
# perfbench/workloads.py LIBRARY_FUNCTIONS binds them as model.<name>.
from .closed_form import (ModeSet, _check_count, derive_modes, entropies, mode_frequencies,
                          occupation_spectrum)

__all__ = [
    "MAX_ORBITAL_INDEX",
    "gamma1_static",
    "density",
    "natural_orbital",
    "model_wavefunction",
]

# The orbital recurrence works on pre-normalized functions, so it neither
# overflows nor loses orthogonality for any index of practical interest.
# The contract is validated up to this bound; larger requests are rejected.
MAX_ORBITAL_INDEX = 1000

_SQRT2 = math.sqrt(2.0)


def _gaussian_orbital(freq: float, x):
    return (freq / math.pi) ** 0.25 * np.exp(-0.5 * freq * np.square(x))


def gamma1_static(modes: ModeSet, x1, x2):
    """One-particle reduced density matrix Gamma_1(x1, x2).

    Jastrow form: product of two density-optimal Gaussians times the pair
    Gaussian exp(-D (x1 - x2)^2 / 2).  Symmetric and positive; accepts
    scalars or broadcastable arrays.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    pair = np.exp(-0.5 * modes.D * np.square(x1 - x2))
    return _gaussian_orbital(modes.omega_d, x1) * _gaussian_orbital(modes.omega_d, x2) * pair


def _gaussian_density(omega_d, x):
    """sqrt(omega_d / pi) exp(-omega_d x^2), elementwise in omega_d and x."""
    return np.sqrt(omega_d / math.pi) * np.exp(-omega_d * x * x)


def density(modes: ModeSet, x):
    """Ground-state one-particle probability density n(x), of unit norm."""
    return _gaussian_density(modes.omega_d, np.asarray(x, dtype=float))


def natural_orbital(modes: ModeSet, k: int, x):
    """k-th natural orbital: the orthonormal oscillator eigenfunction of
    index k at frequency omega_w.  Valid for integers 0 <= k <= MAX_ORBITAL_INDEX.

    The three-term recurrence in xi = sqrt(omega_w) x runs on the *normalized*
    functions (never on raw Hermite polynomials), which keeps every
    intermediate bounded, and holds two orbitals at a time.
    """
    k = _check_count("k", k, 0)
    if k > MAX_ORBITAL_INDEX:
        raise ValueError(
            f"orbital index {k} exceeds the validated recurrence range "
            f"(<= {MAX_ORBITAL_INDEX})"
        )
    ww = modes.omega_w
    xi = math.sqrt(ww) * np.asarray(x, dtype=float)
    h_prev, h = 0.0, math.pi**-0.25 * np.exp(-0.5 * xi * xi)
    for n in range(1, k + 1):
        h, h_prev = xi * math.sqrt(2.0 / n) * h - math.sqrt((n - 1) / n) * h_prev, h
    return ww**0.25 * h


def model_wavefunction(kind: str, modes: ModeSet, x1, x2):
    """Ground-state wavefunction of the exact model or one reference model.

    A product of two Gaussians at ``mode_frequencies(modes, kind)``, in the
    center-of-mass and relative coordinates ``(x1 +- x2) / sqrt(2)`` for
    ``exact`` and in particle coordinates otherwise.
    """
    f1, f2 = mode_frequencies(modes, kind)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if kind == "exact":
        x1, x2 = (x1 + x2) / _SQRT2, (x1 - x2) / _SQRT2
    return _gaussian_orbital(f1, x1) * _gaussian_orbital(f2, x2)

