"""Static ground state of two trapped particles with a harmonic coupling.

The Hamiltonian separates in center-of-mass and relative coordinates into
two independent harmonic modes with frequencies ``omega1 = omega0`` and
``omega2 = omega0*sqrt(1-2*lam)``.  Everything here follows in closed form
from those two numbers: the one-particle reduced density matrix and its
Jastrow-type representation, the point-wise spectral decomposition into
Hermite natural orbitals with geometric occupation numbers (via Mehler's
kernel identity), occupation entropies, and the three independent-particle
reference models (energy-optimal, density-optimal, wavefunction-optimal).
The model inputs and the derived frequencies (``ModelParams``, ``ModeSet``,
``derive_modes``, ``mode_frequencies``) live in ``closed_form``, which
needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# derive_modes stays importable from here: perfbench/workloads.py
# LIBRARY_FUNCTIONS binds it as model.derive_modes.
from .closed_form import ModeSet, derive_modes, mode_frequencies

__all__ = [
    "MAX_ORBITAL_INDEX",
    "OccupationSpectrum",
    "Entropies",
    "gamma1_static",
    "density",
    "occupation_spectrum",
    "natural_orbital",
    "hermite_function",
    "entropies",
    "model_wavefunction",
    "mehler_coefficients",
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

    Jastrow form: product of two density-optimal Gaussians times a
    Gaussian in the coordinate difference.  Symmetric and positive;
    accepts scalars or broadcastable arrays.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    pair = np.exp(-0.5 * modes.D * np.square(x1 - x2))
    return _gaussian_orbital(modes.omega_d, x1) * _gaussian_orbital(modes.omega_d, x2) * pair


def density(modes: ModeSet, x):
    """Ground-state one-particle probability density n(x), of unit norm."""
    x = np.asarray(x, dtype=float)
    return math.sqrt(modes.omega_d / math.pi) * np.exp(-modes.omega_d * np.square(x))


@dataclass(frozen=True)
class OccupationSpectrum:
    """Geometric occupation spectrum P_k = (1-Z) Z^k, k = 0..k_max.

    ``tail_mass`` is the exact geometric remainder Z**(k_max+1), so
    ``weights.sum() + tail_mass == 1`` analytically.
    """

    Z: float
    weights: np.ndarray
    k_max: int
    tail_mass: float

    def total(self) -> float:
        return float(np.sum(self.weights) + self.tail_mass)


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; rejects one that is not a finite integer >= minimum.

    Integral floats and numpy integers pass.
    """
    if not (math.isfinite(value) and value >= minimum and value == int(value)):
        raise ValueError(f"{name} must be a finite integer >= {minimum}, got {value}")
    return int(value)


def occupation_spectrum_from_ratio(Z: float, k_max: int) -> OccupationSpectrum:
    if not (0.0 <= Z < 1.0):
        raise ValueError(f"geometric ratio must lie in [0, 1), got {Z}")
    k_max = _check_count("k_max", k_max, 0)
    k = np.arange(k_max + 1)
    if Z == 0.0:
        weights = np.zeros(k_max + 1)
        weights[0] = 1.0
        tail = 0.0
    else:
        weights = (1.0 - Z) * Z**k
        tail = Z ** (k_max + 1)
    return OccupationSpectrum(Z=Z, weights=weights, k_max=k_max, tail_mass=tail)


def occupation_spectrum(modes: ModeSet, k_max: int) -> OccupationSpectrum:
    """Natural-orbital occupation numbers of the static one-matrix."""
    return occupation_spectrum_from_ratio(modes.Z, k_max)


def hermite_function(k: int, xi):
    """Orthonormal oscillator eigenfunction of index k at unit frequency.

    Evaluated through the three-term recurrence on the *normalized*
    functions (never on raw Hermite polynomials), which keeps every
    intermediate bounded.  Valid for integers 0 <= k <= MAX_ORBITAL_INDEX.
    """
    k = _check_count("k", k, 0)
    if k > MAX_ORBITAL_INDEX:
        raise ValueError(
            f"orbital index {k} exceeds the validated recurrence range "
            f"(<= {MAX_ORBITAL_INDEX})"
        )
    xi = np.asarray(xi, dtype=float)
    h_prev = math.pi**-0.25 * np.exp(-0.5 * xi * xi)
    if k == 0:
        return h_prev
    h = _SQRT2 * xi * h_prev
    for n in range(2, k + 1):
        h, h_prev = xi * math.sqrt(2.0 / n) * h - math.sqrt((n - 1) / n) * h_prev, h
    return h


def natural_orbital(modes: ModeSet, k: int, x):
    """k-th natural orbital: Hermite eigenfunction at frequency omega_w."""
    ww = modes.omega_w
    x = np.asarray(x, dtype=float)
    return ww**0.25 * hermite_function(k, math.sqrt(ww) * x)


def mehler_coefficients(Z: float, omega_w: float) -> tuple[float, float]:
    """Quadratic-form coefficients of the bilinear Gaussian kernel.

    Returns ``(same_coordinate, cross_coordinate)`` coefficients, i.e.
    ``omega_d + D`` and ``D`` of the Jastrow representation.  Inverse of
    the (Z, omega_w) solution of the kernel matching conditions.
    """
    same = omega_w * (1.0 + Z * Z) / (1.0 - Z * Z)
    cross = omega_w * 2.0 * Z / (1.0 - Z * Z)
    return same, cross


@dataclass(frozen=True)
class Entropies:
    """Occupation entropies of one spectrum (natural logarithms)."""

    von_neumann: float
    renyi: tuple[float, ...]


def entropies(spectrum: OccupationSpectrum, renyi_orders=()) -> Entropies:
    """Von Neumann and Renyi entropies of a geometric occupation spectrum.

    Uses the closed geometric-series forms (exact, no truncation bias):

        S    = -ln(1-Z) - Z ln(Z) / (1-Z)
        S_q  = [q ln(1-Z) - ln(1 - Z^q)] / (1-q),   q > 0, q != 1

    Raises for non-finite, non-positive or unit Renyi orders and for spectra
    that are not normalized within tail tolerance.
    """
    if abs(spectrum.total() - 1.0) > 1e-9:
        raise ValueError("occupation spectrum is not normalized within tolerance")
    Z = spectrum.Z
    if Z == 0.0:
        svn = 0.0
    else:
        svn = -math.log1p(-Z) - Z * math.log(Z) / (1.0 - Z)
    out = []
    for q in renyi_orders:
        if not (math.isfinite(q) and q > 0):
            raise ValueError(f"Renyi order must be finite and > 0, got {q}")
        if abs(q - 1.0) < 1e-12:
            raise ValueError("Renyi order q = 1 is the von Neumann limit; use that field")
        if Z == 0.0:
            out.append(0.0)
        else:
            # 1 - Z^q via expm1 keeps precision for small q*ln(Z).
            out.append((q * math.log1p(-Z) - math.log(-math.expm1(q * math.log(Z)))) / (1.0 - q))
    return Entropies(von_neumann=svn, renyi=tuple(out))


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

