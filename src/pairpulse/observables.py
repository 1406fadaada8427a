"""Asymptotic observables of the driven pair.

Once the reflection coefficient R of a mode is known, every post-pulse
quantity is closed form: the one-mode energy shift Omega0*R/(1-R), the
two-mode exact total and its three independent-particle counterparts, the
perturbative (Born) and sudden expansions, the statistical transition
weights whose weighted ladder reproduces the same shift, the ground-state
overlap, and the Berry connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (
    Pulse,
    Trajectory,
    analytic_reflection,
    check_admissible,
    omega_squared,
    _check_mode_frequency,
    _log_sinh,
)
from .model import KINDS, ModeSet, _check_count, mode_frequencies

__all__ = [
    "EnergyShiftReport",
    "TransitionWeights",
    "SuddenShift",
    "energy_shift",
    "total_shift",
    "energy_shift_report",
    "born_shift",
    "sudden_shift",
    "transition_weights",
    "statistical_shift",
    "overlap",
    "berry_connection",
]


def energy_shift(mode_frequency: float, R: float) -> float:
    """One-mode time-independent energy shift Omega0 * R / (1 - R)."""
    if not (0.0 <= R < 1.0):
        raise ValueError(f"reflection coefficient must lie in [0, 1), got {R}")
    return mode_frequency * R / (1.0 - R)


def _reflections(f1: float, f2: float, pulse: Pulse) -> tuple[float, float]:
    """(R1, R2) of two modes at frequencies f1 and f2; a repeated frequency
    is reflected once."""
    R1 = analytic_reflection(f1, pulse).R
    R2 = R1 if f2 == f1 else analytic_reflection(f2, pulse).R
    return R1, R2


def _two_mode_shifts(f1: float, f2: float, pulse: Pulse) -> tuple[float, float, float]:
    """(d1, d2, d1 + d2) for two modes at frequencies f1 and f2."""
    R1, R2 = _reflections(f1, f2, pulse)
    d1 = energy_shift(f1, R1)
    d2 = energy_shift(f2, R2)
    return d1, d2, d1 + d2


def total_shift(modes: ModeSet, pulse: Pulse, kind: str) -> float:
    """Two-particle total energy shift for the exact model or a reference.

    ``exact`` sums the shifts of the two independent modes; the reference
    kinds count one independent-particle frequency twice, reflected once.
    """
    check_admissible(modes, pulse)
    return _two_mode_shifts(*mode_frequencies(modes, kind), pulse)[2]


@dataclass(frozen=True)
class EnergyShiftReport:
    """Per-mode shifts, exact total, and the three model totals."""

    omega0: float
    lam: float
    Lambda: float
    beta: float
    shift_mode1: float
    shift_mode2: float
    exact: float
    hf: float
    ks: float
    natural: float

    def as_record(self) -> dict:
        """The fields in order, with ``lam`` under its CLI name ``lambda``."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
        }


def energy_shift_report(modes: ModeSet, pulse: Pulse) -> EnergyShiftReport:
    """All shift observables for one (model, pulse) combination.

    Every total is the ``total_shift`` of its kind.
    """
    check_admissible(modes, pulse)
    d1, d2, exact = _two_mode_shifts(modes.omega1, modes.omega2, pulse)
    hf, ks, natural = [_two_mode_shifts(*mode_frequencies(modes, k), pulse)[2] for k in KINDS[1:]]
    return EnergyShiftReport(
        omega0=modes.params.omega0,
        lam=modes.params.lam,
        Lambda=pulse.Lambda,
        beta=pulse.beta,
        shift_mode1=d1,
        shift_mode2=d2,
        exact=exact,
        hf=hf,
        ks=ks,
        natural=natural,
    )


def born_shift(mode_frequency: float, pulse: Pulse) -> float:
    """First-order shift (Lambda*omega0^2*pi / 4 beta^2)^2 * Omega0 / sinh^2.

    Quadratic in the drive, hence blind to its sign.
    """
    _check_mode_frequency(mode_frequency)
    if pulse.coupling == 0.0:
        return 0.0
    v = 0.5 * math.pi * mode_frequency / pulse.beta
    prefactor = (pulse.coupling * math.pi / (4.0 * pulse.beta**2)) ** 2
    return prefactor * mode_frequency * math.exp(-2.0 * _log_sinh(v))


@dataclass(frozen=True)
class SuddenShift:
    """Fast-drive expansion value with its validity flag."""

    value: float
    valid: bool


def sudden_shift(mode_frequency: float, pulse: Pulse) -> SuddenShift:
    """Sudden-limit expansion of the one-mode shift.

    Keeps the leading sign-carrying factor (1 - Lambda*omega0^2 / 2 beta^2).
    ``valid`` is a coarse asymptotic check (beta well above the mode
    frequency and the drive scale).
    """
    _check_mode_frequency(mode_frequency)
    om, beta = mode_frequency, pulse.beta
    coupling = pulse.coupling
    value = (
        om
        * (0.5 * coupling) ** 2
        / (beta * om) ** 2
        * (1.0 - (math.pi * om / (2.0 * beta)) ** 2 / 3.0)
        * (1.0 - 0.5 * coupling / beta**2)
    )
    valid = beta >= 3.0 * om and beta**2 >= 3.0 * abs(coupling)
    return SuddenShift(value=value, valid=valid)


@dataclass(frozen=True)
class TransitionWeights:
    """Even-ladder transition weights W_{2n,0}(R), n = 0..n_max.

    ``tail_bound`` is the geometric bound R^(n_max+1) / sqrt(1-R) on the
    discarded weight beyond n_max.
    """

    R: float
    weights: np.ndarray
    tail_bound: float


def transition_weights(R: float, n_max: int = 200) -> TransitionWeights:
    """Statistical weights of the allowed upward transitions.

    W_n = Gamma(n+1/2) / (sqrt(pi) Gamma(n+1)) * sqrt(1-R) * R^n, evaluated
    in log space so that no factorial overflows.  The n_max = 200 default
    keeps the tail below 1e-12 for R <= 0.9.
    """
    if not (0.0 <= R < 1.0):
        raise ValueError(f"reflection coefficient must lie in [0, 1), got {R}")
    n_max = _check_count("n_max", n_max, 0)
    n = np.arange(n_max + 1)
    if R == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
        return TransitionWeights(R=R, weights=weights, tail_bound=0.0)
    # c_n = Gamma(n+1/2) / (sqrt(pi) n!) = C(2n, n) / 4^n starts at c_0 = 1
    # with ratios c_n / c_{n-1} = 1 - 1/(2n).  Summing the logs of those
    # ratios avoids the cancellation between two large log-Gammas, which
    # costs ~1e-12 relative accuracy at n ~ 2000.
    log_c = np.concatenate(([0.0], np.cumsum(np.log1p(-0.5 / n[1:]))))
    weights = np.exp(log_c + n * math.log(R) + 0.5 * math.log1p(-R))
    tail = R ** (n_max + 1) / math.sqrt(1.0 - R)
    return TransitionWeights(R=R, weights=weights, tail_bound=tail)


def statistical_shift(weights: TransitionWeights, mode_frequency: float) -> float:
    """Energy shift as the weighted ladder sum 2 Omega0 sum n W_n.

    This is Omega0 [sum (2n+1/2) W_n - 1/2] with the normalization
    sum W_n = 1 applied analytically, so the 1/2 terms cannot cancel to a
    negative residue at tiny R.  Equals the closed form Omega0*R/(1-R) up
    to the truncation tail.
    """
    _check_mode_frequency(mode_frequency)
    n = np.arange(len(weights.weights))
    return mode_frequency * 2.0 * float(np.sum(n * weights.weights))


def overlap(modes: ModeSet, pulse: Pulse, kind: str) -> float:
    """Squared overlap of the long-time state with the initial ground state.

    A product of per-mode factors sqrt(1-R) over
    ``mode_frequencies(modes, kind)``: (omega1, omega2) for ``exact``, and
    omega_d twice for the density-optimal ``ks``, reflected once.
    """
    if kind not in ("exact", "ks"):
        raise ValueError(f"kind must be 'exact' or 'ks', got {kind!r}")
    check_admissible(modes, pulse)
    f1, f2 = mode_frequencies(modes, kind)
    R1, R2 = _reflections(f1, f2, pulse)
    return math.sqrt(1.0 - R1) * math.sqrt(1.0 - R2)


def berry_connection(traj: Trajectory, pulse: Pulse, t: float) -> float:
    """Geometric connection i<phi|d_t phi> of one evolving mode.

    Equals Omega0/2 before the pulse and (Omega0/2)(1+R)/(1-R), i.e. the
    asymptotic one-mode energy, after it.  ``pulse`` must be the pulse the
    trajectory was integrated under.
    """
    if pulse != traj.pulse:
        raise ValueError("pulse differs from the one the trajectory was integrated under")
    om = traj.mode_frequency
    B, Bdot, _ = traj.state_at(t)
    o2 = omega_squared(om, pulse, t)
    return float(om / 4.0 * (o2 * B**2 / om**2 + 1.0 / B**2 + Bdot**2 / om**2))
