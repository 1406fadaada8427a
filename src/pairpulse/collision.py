"""The drive-sign effect as a function of projectile velocity.

A projectile of velocity v acts on the two-particle target for a time of
order r0 / v, where r0 is the range of the interaction, and the pulse's
transition time is 1 / beta.  So the pulse rate stands for the velocity:
beta = v, in atomic units with the range r0 set to one.  A constant
prefactor in that identification would only rescale the velocity axis, so
none is applied.  At each velocity the ratio of the total energy shifts
under a repulsive and an attractive drive of equal magnitude maps out the
sign effect, which the paper compares with the sign-dependent energy loss
of swift protons and antiprotons in He.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Pulse
from .model import ModeSet
from .observables import total_shift

__all__ = ["sign_effect_ratio"]


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
