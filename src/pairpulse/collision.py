"""Classical atom-atom collision timing and the drive-sign effect.

A screened, finite-range Coulomb interaction (Mensing form, zero beyond a
screening radius r0) gives a closed expression for the time a projectile
spends inside the interaction sphere.  That collision time motivates
identifying the inverse pulse-transition time with the projectile velocity,
beta = v, under which the ratio of the repulsive to attractive total energy
shifts maps out the sign effect as a function of velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import Pulse
from .model import ModeSet
from .observables import total_shift

__all__ = [
    "CollisionParams",
    "collision_time_exact",
    "collision_time_avg",
    "alpha_timing",
    "sign_effect_ratio",
]


@dataclass(frozen=True)
class CollisionParams:
    """Projectile/target inputs of the classical collision-time model.

    Charges are dimensionless, masses in atomic units; ``r0`` is the
    screening radius, ``b`` the impact parameter, ``v`` the projectile
    velocity.
    """

    Z1: float
    Z2: float
    M1: float
    M2: float
    r0: float
    v: float
    b: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.M1 <= 0 or self.M2 <= 0:
            raise ValueError("masses must be > 0")
        if self.r0 <= 0:
            raise ValueError(f"screening radius must be > 0, got {self.r0}")
        if self.v <= 0:
            raise ValueError(f"velocity must be > 0, got {self.v}")
        if self.b < 0:
            raise ValueError(f"impact parameter must be >= 0, got {self.b}")

    @property
    def mu(self) -> float:
        return self.M1 * self.M2 / (self.M1 + self.M2)

    @property
    def energy(self) -> float:
        """Relative kinetic energy E = mu v^2 / 2."""
        return 0.5 * self.mu * self.v**2

    @property
    def p(self) -> float:
        """Potential-to-kinetic ratio parameter 1 + (Z1 Z2 / r0) / E."""
        return 1.0 + (self.Z1 * self.Z2 / self.r0) / self.energy


def collision_time_exact(cp: CollisionParams) -> float:
    """Time spent inside r < r0 on the repulsive screened-Coulomb orbit.

    Closed logarithmic form of twice the radial time integral from the
    turning point out to the screening radius.  Requires Z1*Z2 > 0 and
    b < r0.
    """
    if cp.Z1 * cp.Z2 <= 0:
        raise ValueError("collision time is derived for the repulsive branch (Z1*Z2 > 0)")
    if cp.b >= cp.r0:
        raise ValueError(f"no interaction window: b = {cp.b} >= r0 = {cp.r0}")
    E, p = cp.energy, cp.p
    q_half = 0.5 * cp.Z1 * cp.Z2 / E
    chord = math.sqrt(cp.r0**2 - cp.b**2)
    log_num = math.sqrt(p) * chord + cp.r0 + q_half
    log_den = math.sqrt(q_half**2 + p * cp.b**2)
    return 2.0 / cp.v * (chord / p + q_half / p**1.5 * math.log(log_num / log_den))


def alpha_timing(cp: CollisionParams) -> float:
    """Interpolated chord prefactor, 4 at v -> 0 down to 2 at v -> infinity.

    Only the two limits are constrained; this smooth interpolation serves
    the averaged-time diagnostic and nothing else.
    """
    screen = cp.energy / (cp.energy + cp.Z1 * cp.Z2 / cp.r0)
    return 2.0 + 2.0 / (1.0 + cp.v**2 * cp.r0 * screen)


def collision_time_avg(cp: CollisionParams) -> float:
    """Closed cross-section-averaged collision time (impact parameter ignored).

    alpha(v) * (r0 / 3 v) * E / (E + Z1 Z2 / r0).  Note the normalization:
    the b-weighted mean of the chord approximation carries twice this
    value; the closed form keeps the conventional 1/3 prefactor.
    """
    if cp.Z1 * cp.Z2 <= 0:
        raise ValueError("averaged collision time is derived for the repulsive branch")
    screen = cp.energy / (cp.energy + cp.Z1 * cp.Z2 / cp.r0)
    return alpha_timing(cp) * cp.r0 / (3.0 * cp.v) * screen


def sign_effect_ratio(modes: ModeSet, Lambda_mag: float, v_grid) -> np.ndarray:
    """Sign-effect table: rows (v, shift ratio - 1) with beta = v.

    For each velocity the pulse rate is set to beta = v and the exact
    two-mode totals at -|Lambda| and +|Lambda| are compared:
    ratio = dE_total(-|Lambda|) / dE_total(+|Lambda|) - 1.

    The ratio is NaN at a velocity where the +|Lambda| total is exactly 0,
    a shift zero at which both modes stop reflecting.
    """
    if Lambda_mag < 0:
        raise ValueError(f"Lambda magnitude must be >= 0, got {Lambda_mag}")
    omega0 = modes.params.omega0
    rows = []
    for v in np.asarray(v_grid, dtype=float):
        # Built before the zero-drive shortcut so that Pulse validates every v.
        pulses = [Pulse(Lambda=sign * Lambda_mag, beta=float(v), omega0=omega0)
                  for sign in (-1.0, 1.0)]
        if Lambda_mag == 0.0:
            rows.append((float(v), 0.0))
            continue
        minus, plus = (total_shift(modes, p, "exact") for p in pulses)
        rows.append((float(v), minus / plus - 1.0 if plus != 0.0 else math.nan))
    return np.asarray(rows, dtype=float).reshape(-1, 2)
