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

import numpy as np

from .closed_form import ModeSet, sign_effect_rows

__all__ = ["sign_effect_ratio"]


def sign_effect_ratio(modes: ModeSet, Lambda_mag: float, v_grid) -> np.ndarray:
    """Sign-effect table: rows (v, shift ratio - 1) with beta = v.

    For each velocity the pulse rate is set to beta = v and the exact
    two-mode totals at -|Lambda| and +|Lambda| are compared:
    ratio = dE_total(-|Lambda|) / dE_total(+|Lambda|) - 1.

    The ratio is NaN at a velocity where the +|Lambda| total is exactly 0,
    a shift zero at which both modes stop reflecting.  The rows come from
    ``closed_form.sign_effect_rows``, which needs no numpy.
    """
    return np.asarray(sign_effect_rows(modes, Lambda_mag, v_grid), dtype=float).reshape(-1, 2)
