"""Asymptotic observables of the driven pair.

Once the reflection coefficient R of a mode is known, every post-pulse
quantity is closed form: the one-mode energy shift Omega0*R/(1-R) (the
per-mode fields of ``energy_shift_report``), the two-mode exact total and
its three independent-particle counterparts, the perturbative (Born) and
sudden expansions, the statistical transition weights whose weighted
ladder reproduces the same shift, the ground-state overlap, and the Berry
connection.  The closed-form shifts, totals, expansions and overlaps live
in ``closed_form``, which needs no numpy; the transition weights, their
ladder sum and the Berry connection live here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# The five closed-form functions stay importable from here: perfbench/workloads.py
# LIBRARY_FUNCTIONS binds them as observables.<name>.
from .closed_form import (
    Pulse,
    born_shift,
    energy_shift_report,
    overlap,
    sudden_shift,
    total_shift,
    _check_mode_frequency,
)
from .dynamics import Trajectory, omega_squared
from .model import _check_count

__all__ = [
    "TransitionWeights",
    "transition_weights",
    "statistical_shift",
    "berry_connection",
]


class TransitionWeights(NamedTuple):
    """Even-ladder transition weights W_{2n,0}(R), n = 0..n_max.

    ``tail_bound`` is the geometric bound R^(n_max+1) / sqrt(1-R) on the
    discarded weight beyond n_max.
    """

    weights: np.ndarray
    tail_bound: float


def transition_weights(R: float, n_max: int = 200) -> TransitionWeights:
    """Statistical weights of the allowed upward transitions.

    W_n = Gamma(n+1/2) / (sqrt(pi) Gamma(n+1)) * sqrt(1-R) * R^n, evaluated
    in log space so that no factorial overflows.  The n_max = 200 default
    keeps the tail below 1e-12 for R <= 0.86 (1.8e-13 there, 1.9e-12 at
    0.87 and 2.0e-9 at 0.9).
    """
    if not (0.0 <= R < 1.0):
        raise ValueError(f"reflection coefficient must lie in [0, 1), got {R}")
    n_max = _check_count("n_max", n_max, 0)
    n = np.arange(n_max + 1)
    if R == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
        return TransitionWeights(weights=weights, tail_bound=0.0)
    # c_n = Gamma(n+1/2) / (sqrt(pi) n!) = C(2n, n) / 4^n starts at c_0 = 1
    # with ratios c_n / c_{n-1} = 1 - 1/(2n).  Summing the logs of those
    # ratios avoids the cancellation between two large log-Gammas, which
    # costs ~1e-12 relative accuracy at n ~ 2000.
    log_c = np.concatenate(([0.0], np.cumsum(np.log1p(-0.5 / n[1:]))))
    weights = np.exp(log_c + n * math.log(R) + 0.5 * math.log1p(-R))
    tail = R ** (n_max + 1) / math.sqrt(1.0 - R)
    return TransitionWeights(weights=weights, tail_bound=tail)


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
