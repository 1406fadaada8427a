"""Time-dependent response of the trapped pair to a finite confinement pulse.

The pulse multiplies the confinement of every mode by a common envelope, so
each independent mode reduces to one parametric oscillator with frequency
``Omega^2(t) = Omega0^2 + Lambda*omega0^2*F(t)``.  The evolving Gaussian is
parametrized by a width scale ``B(t)`` obeying the Ermakov equation

    B'' + Omega^2(t) B = Omega0^2 / B^3,    B(-inf) = 1, B'(-inf) = 0.

Instead of the stiff nonlinear form, the equivalent *linear* complex
oscillator ``xi'' + Omega^2(t) xi = 0`` with ``xi = B exp(i gamma)`` is
integrated; ``B = |xi|``, and the phase gamma of xi has the rate
``gamma' = Omega0/B^2``.  After the pulse, a single invariant built from
``B`` and ``B'`` encodes the reflection coefficient ``R`` of the associated
one-dimensional scattering problem, which in turn fixes every asymptotic
observable.

Because the equation is linear, ``integrate_mode`` propagates it exactly
step by step with a 6th-order Magnus propagator, the closed-form
exponential of a traceless 2 x 2 matrix (Blanes, Casas & Ros, BIT 40, 434
(2000)).  Its first grid resolves the pulse core and crosses the free
oscillation on either side in steps of FREE_STEP_ANGLE radians, exact there
to PULSE_OFF.  A step that fails a half-step error check is split into as
many equal substeps as its error estimate asks for, and each refinement
level is one numpy pass (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009), section 5; Hairer, Norsett & Wanner, Solving ODEs I, section II.4).
The node states come from one prefix-product scan over the accepted steps'
half-step products, with each midpoint from its step's first half.  Every
2 x 2 product, the scan included, is one ``_mul`` on (2, 2, n) stacks,
entry by entry and never through BLAS, so a trajectory's bits do not
depend on the BLAS kernel.  The module needs numpy alone.  ``Pulse`` and
the closed-form ``analytic_reflection`` live in ``closed_form``, which
needs no numpy; the pulse's envelope ``F(t)``, evaluated on arrays, lives
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

# analytic_reflection stays importable from here: perfbench/workloads.py
# LIBRARY_FUNCTIONS binds it as dynamics.analytic_reflection.
from .closed_form import (
    IonizationRegimeError,
    ModeSet,
    Pulse,
    ReflectionResult,
    analytic_reflection,
    _check_mode_frequency,
    _R_NEAR_ONE,
)
from .model import _gaussian_density

__all__ = [
    "Trajectory",
    "OneMatrixSnapshot",
    "SnapshotSeries",
    "envelope",
    "omega_squared",
    "integrate_mode",
    "extract_reflection",
    "onematrix_snapshot",
    "snapshot_series",
    "effective_potential",
    "energy_expectation_ks",
    "continuity_residual",
    "trajectory_table",
]

# Envelope value below which the pulse counts as "off" for initial
# conditions and the post-pulse invariant.
PULSE_OFF = 1e-10

# Integration window: WINDOW/beta on either side of the pulse center, where
# the envelope is sech^2(30) ~ 4e-26 < PULSE_OFF for every beta, then
# SETTLE_PERIODS width oscillation periods (pi/Omega0 each) of free
# oscillation.  The window is the time range of every trajectory, so it
# fixes the rows of a dense table such as the one `evolve` writes.
WINDOW = 15.0
SETTLE_PERIODS = 6.0

# Magnus grids: the first one has three uniform segments.  In the pulse core,
# where the envelope exceeds PULSE_OFF, a step advances the phase at the peak
# frequency, and the pulse argument 2 beta (t - t0), by at most
# FIRST_STEP_ANGLE radians: inside the Magnus series' convergence region, and
# never over the pulse.  Outside the core the coefficients are constant to
# PULSE_OFF, so a step passes the error check at any length, and advances the
# phase at the free frequency sqrt(Omega0^2 + max(coupling, 0) PULSE_OFF) by
# at most FREE_STEP_ANGLE radians.  Refinement then splits only the steps
# that fail the error check: a step of error err against the request tol
# becomes max(2, ceil((SPLIT_MARGIN err / tol)^(1/7))) equal substeps, since
# the 6th-order step's local error scales as h^7, so that its substeps aim at
# tol / SPLIT_MARGIN.  No grid, the error check's half steps included, has
# more than MAX_STEPS steps.
#
# By Sturm comparison the zeros of the real solution Re(xi exp(-i a)), where
# the phase of xi passes a + pi/2 mod pi, lie at least pi / max Omega apart.
# So while FIRST_STEP_ANGLE and FREE_STEP_ANGLE / 2 stay below pi, the advance
# from a node (a step's start or midpoint) to the next node or a read is below
# pi, and integrate_mode raises a RuntimeError on any advance outside (0, pi).
#
# The exponent is elliptic on every step, so _propagators needs no hyperbolic
# branch.  With x_i = h^2 Omega^2(t + c_i h), its q = th^2 = -(a^2 + bc) is a
# polynomial of degree 5 in x1, x2, x3 alone.  Its linear part is
# (5 x1 + 8 x2 + 5 x3) / 18 >= (5/18) max x_i, and the absolute coefficients
# of all higher terms sum to 0.0423 (degree 2: 0.0340, degree 3: 0.0081,
# degrees 4 and 5: 2.8e-4).  So on [0, 1]^3, q >= 0.235 max x_i, which is
# above 0 unless every x_i is 0, as at a read on a node.  Every core step lies
# in that cube: integrate_mode rejects Omega0^2 + min(coupling, 0) <= 0, so
# Omega^2 > 0 (in floats too: the computed F stays <= 1, and rounding is
# monotone), and the core's first steps are at most
# FIRST_STEP_ANGLE / sqrt(Omega0^2 + max(coupling, 0)), so
# x_i <= FIRST_STEP_ANGLE^2, which is <= 1 while FIRST_STEP_ANGLE <= 1.
# A free step lies outside the core, so F < PULSE_OFF at its Gauss points: with
# X = h^2 Omega0^2 and eps = |coupling| PULSE_OFF / Omega0^2, each x_i lies
# between X and X (1 +- eps), by the coupling's sign, so |x3 - x1| <= eps X,
# |x1 - 2 x2 + x3| <= 2 eps X and q = x2 + (5/18)(x1 - 2 x2 + x3) + r, each
# term of r of degree >= 2 in those two.  While X <= FREE_STEP_ANGLE^2 and eps
# <= 0.01, |r| <= 2.35 eps^2 X, so q >= X (1 - (14/9) eps - 2.35 eps^2) > 0
# unless X = 0.  Admissible modes have eps < 1e-10; above 0.01 free steps take
# FIRST_STEP_ANGLE (the cube).  Refinement and reads use parts of such steps.
FIRST_STEP_ANGLE = 1.0
FREE_STEP_ANGLE = 5.0
SPLIT_MARGIN = 4.0
MAX_STEPS = 2**17


def envelope(pulse: Pulse, t):
    """F(t) = sech^2(2 beta (t - t0)); F(t0) = 1, F(+-inf) = 0."""
    s = np.exp((-2.0 * pulse.beta) * np.abs(np.asarray(t, dtype=float) - pulse.t0))
    # 4 s s, not 4 q with q = s s: the two differ once s s is subnormal
    return 4.0 * s * s / np.square(1.0 + s * s)


def _omega_squared(om: float, pulse: Pulse, t):
    """Omega0^2 + Lambda*omega0^2*F(t), unchecked, for the integrator's hot loop."""
    return om * om + pulse.coupling * envelope(pulse, t)


def omega_squared(mode_frequency: float, pulse: Pulse, t):
    """Instantaneous squared frequency Omega0^2 + Lambda*omega0^2*F(t).

    Raises IonizationRegimeError if the value is not positive anywhere,
    which signals the excluded inverted-confinement regime.
    """
    _check_mode_frequency(mode_frequency)
    val = _omega_squared(mode_frequency, pulse, t)
    if np.any(val <= 0.0):
        raise IonizationRegimeError(
            f"Omega^2(t) <= 0 for Omega0={mode_frequency}, Lambda={pulse.Lambda}: "
            "drive inverts the confinement (ionization-like regime)"
        )
    return val


# Gauss-Legendre nodes on [0, 1] of the 6th-order Magnus step.
_GAUSS = np.array([0.5 - 0.1 * math.sqrt(15.0), 0.5, 0.5 + 0.1 * math.sqrt(15.0)])


def _propagators(om, pulse: Pulse, t, h):
    """Magnus propagators of (xi, xi') over [t, t + h], elementwise in om, t and h.

    The 6th-order three-Gauss-point scheme of Blanes, Casas & Ros, BIT 40,
    434 (2000): with A_i = A(t + c_i h),

        alpha1 = h A_2,  alpha2 = (sqrt(15)/3) h (A_3 - A_1),
        alpha3 = (10/3) h (A_3 - 2 A_2 + A_1),
        C1 = [alpha1, alpha2],  C2 = -(1/60) [alpha1, 2 alpha3 + C1],
        Omega = alpha1 + alpha3/12 + (1/240) [-20 alpha1 - alpha3 + C1, alpha2 + C2].

    For A(t) = [[0, 1], [-Omega^2(t), 0]] every term is traceless,
    [[a, b], [c, -a]], and alpha2, alpha3 have only a c entry, so the
    commutators reduce to polynomials in h, W = h w2, D1 = h (w3 - w1) and
    D2 = h (w1 - 2 w2 + w3), with w_i = Omega^2(t + c_i h).  Then
    exp(Omega) = cos(th) I + (sin(th)/th) Omega with th^2 = -(a^2 + bc),
    which is >= 0 on every step the module builds or reads, by the proof
    stated at FIRST_STEP_ANGLE.
    Scalar t and h give numpy scalars, which keeps one-time reads cheap.
    Returns the entries (u00, u01, u10, u11).
    """
    # unchecked: integrate_mode has checked positivity once for the whole window
    w1, w2, w3 = _omega_squared(om, pulse, t + np.multiply.outer(_GAUSS, h))
    W, D1, D2 = h * w2, h * (w3 - w1), h * (w1 + w3 - 2.0 * w2)
    E = D1 * D1
    a = (math.sqrt(15.0) / 3.0) * h * D1 * (h * (W + D2 / 12.0) / 180.0 + 1.0 / 12.0)
    b = h * (1.0 + h * (h * E / 2160.0 + D2 / 54.0))
    c = h * (D2 * (6.0 * W + D2) / 324.0 - E * (30.0 + h * W) / 2160.0) - W - D2 * (5.0 / 18.0)
    th = np.sqrt(-(a * a + b * c))  # real on every step: see FIRST_STEP_ANGLE
    # the offset gives sin(th)/th = 1 at th = 0 (a read on a node) and
    # leaves every th above 1e-284 unchanged
    nz = th + 1e-300
    cos, sinc = np.cos(th), np.sin(nz) / nz
    a *= sinc
    return cos + a, sinc * b, sinc * c, cos - a


def _halves(om: float, pulse: Pulse, lo: np.ndarray, hi: np.ndarray):
    """Widths hi - lo of the steps [lo, hi] and the propagators, (2, 2, m)
    each, of the steps themselves and of their first and second halves; all
    from one ``_propagators`` call."""
    w = hi - lo
    mid = lo + 0.5 * w
    t, h = np.concatenate([lo, lo, mid]), np.concatenate([w, mid - lo, hi - mid])
    u = np.array(_propagators(om, pulse, t, h)).reshape(2, 2, 3, -1)
    return w, u[:, :, 0], u[:, :, 1], u[:, :, 2]


def _check_budget(om: float, pulse: Pulse, n: float) -> None:
    """Reject a grid of n steps whose half steps would exceed MAX_STEPS."""
    if not 2 * n <= MAX_STEPS:  # NaN and inf fail
        raise ValueError(
            f"integrate_mode at beta = {pulse.beta}, Omega0 = {om} needs at least "
            f"{n:.0f} Magnus steps and {2 * n:.0f} half steps to check them, above "
            f"MAX_STEPS = {MAX_STEPS}"
        )


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The n products a[..., k] @ b[..., k] of two (2, 2, n) stacks, entry by entry.

    Either stack may have n = 1, which broadcasts.
    """
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _accepted_steps(om: float, pulse: Pulse, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Refine the steps [lo, hi] until every step passes the error check.

    Returns the starts of the accepted steps, unordered, and a (4, 2, m)
    block of their propagators: rows 0-1 hold each step's first half, rows
    2-3 the product of its two halves, second @ first.  The refinement
    levels' arrays are freed on return, before the caller's prefix product
    needs its own.
    """
    # the error check compares with the half steps: one entry per (xi, xi'/Omega0) pair
    scale = np.array([[1.0, om], [1.0 / om, 1.0]])[..., None]
    _check_budget(om, pulse, len(lo))
    starts, kept, n_kept = [], [], 0  # accepted steps: starts, propagators, count
    while True:
        w, whole, first, second = _halves(om, pulse, lo, hi)
        both = _mul(second, first)  # the two halves in sequence
        err = np.max(np.abs(whole - both) * scale, axis=(0, 1))
        ok = err <= tol  # NaN fails
        keep = np.flatnonzero(ok)
        starts.append(lo.take(keep))
        kept.append(np.concatenate([first, both]).take(keep, axis=2))
        if len(keep) == len(ok):
            return np.concatenate(starts), np.concatenate(kept, axis=2)
        n_kept += len(keep)
        fail = np.flatnonzero(~ok)
        # substeps of h / n have err / n^7, so n aims at tol / SPLIT_MARGIN
        n = np.ceil((SPLIT_MARGIN / tol * err.take(fail)) ** (1.0 / 7.0))
        n = np.where(n < math.inf, np.maximum(n, 2.0), 2.0)  # NaN and inf bisect
        _check_budget(om, pulse, n_kept + n.sum())  # before any array of the level
        # substep j of a failed step [a, b] runs from a + w j / n to a + w (j + 1) / n,
        # w = b - a, and the last one to b: one formula for each shared end, so
        # the substeps tile the step exactly.  The counting stays in floats,
        # which keeps numpy's integer loops off the integrator's code pages.
        count = n.astype(np.intp)
        per_step = (lo.take(fail), w.take(fail), hi.take(fail), np.cumsum(n) - n, n)
        a, w, b, j0, n = (np.repeat(v, count) for v in per_step)
        j = np.arange(len(n), dtype=float) - j0
        lo = a + w * (j / n)
        hi = np.where(j + 1.0 < n, a + w * ((j + 1.0) / n), b)


@dataclass(eq=False, frozen=True)
class Trajectory:
    """Integrated width scale of one mode under one pulse.

    ``t`` holds the nodes of the Magnus grid on ``[t_start, t_end]``,
    increasing, with steps refined where the pulse acts.  The rows of
    ``state`` hold B, B'/B, gamma' and gamma at every node: |xi|, the real
    and imaginary parts of xi'/xi, and the phase of xi = B exp(i gamma).
    ``state_at`` applies the same closed-form Magnus step from the node at
    or below each requested time, for all times in one numpy pass, so it
    reproduces every node exactly and is smooth between them.  Immutable
    after construction; ``integrate_mode`` makes ``t`` and ``state``
    read-only as well.
    """

    mode_frequency: float
    pulse: Pulse
    t: np.ndarray
    t_start: float
    t_end: float
    state: np.ndarray = field(repr=False)

    def state_at(self, t):
        """(B, Bdot, gamma) from the node at or below each time.

        gamma adds the angle of xi(t) / xi_k to the node value gamma_k.
        Each node-to-node phase advance lies in (0, pi), which
        ``integrate_mode`` checks, and a read lies inside one step, so that
        angle is the advance itself.  A scalar time gives numpy scalars.
        """
        B, Bdot, gamma_k, z_re, z_im = _read((self,), np.asarray(t, dtype=float)[()])
        return B, Bdot, gamma_k + np.arctan2(z_im, z_re)


def _read(trajs, t):
    """Read trajectories integrated under one pulse at the times t, in one Magnus pass.

    Applies the closed-form Magnus step from the node at or below each time.
    Several trajectories are read at an array t by one ``_propagators`` call
    over every (trajectory, time) entry, each with its own mode frequency.
    The step works elementwise, with one exponent path whose th^2 >= 0 on
    every read (h = t - t_k is part of an accepted step, so the proof
    stated at FIRST_STEP_ANGLE holds), so each entry has the bits of a read
    of its trajectory alone.  One trajectory is read at any t, a numpy scalar giving
    numpy scalars.  Returns B, Bdot, gamma_k and xi(t) / xi_k = z_re + i z_im,
    trajectory after trajectory along the first axis.
    """
    if t.size:
        lo, hi = (t, t) if t.ndim == 0 else (t.min(), t.max())
        for traj in trajs:
            if not (lo >= traj.t_start and hi <= traj.t_end):  # NaN fails
                raise ValueError(
                    f"time outside trajectory range [{traj.t_start}, {traj.t_end}]"
                )
    ks = [np.searchsorted(traj.t[1:-1], t, side="right") for traj in trajs]
    if len(trajs) == 1:  # nothing to join, and a scalar read stays on numpy scalars
        (traj,), (k,) = trajs, ks
        om, t_k, nodes = traj.mode_frequency, traj.t[k], traj.state.take(k, axis=1)
    else:
        t_k = np.concatenate([traj.t[k] for traj, k in zip(trajs, ks)])
        om = np.array([traj.mode_frequency for traj in trajs]).repeat(t.size).reshape(t_k.shape)
        nodes = np.concatenate([traj.state.take(k, axis=1) for traj, k in zip(trajs, ks)], 1)
        t = np.concatenate([t] * len(trajs))
    u00, u01, u10, u11 = _propagators(om, trajs[0].pulse, t_k, t - t_k)
    # xi(t) = xi_k z and xi'(t) = xi_k z' with z = u00 + u01 rho,
    # z' = u10 + u11 rho and rho = xi'_k / xi_k = B'/B + i gamma' at the node.
    # Real arithmetic only, so that a scalar read equals its array read.
    B_k, rho_re, rho_im, gamma_k = nodes
    z_re, z_im = u00 + u01 * rho_re, u01 * rho_im
    dz_re, dz_im = u10 + u11 * rho_re, u11 * rho_im
    z2 = z_re * z_re + z_im * z_im
    B = B_k * np.sqrt(z2)
    return B, B * (dz_re * z_re + dz_im * z_im) / z2, gamma_k, z_re, z_im


def integrate_mode(
    mode_frequency: float,
    pulse: Pulse,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the linear complex oscillator for one mode frequency.

    The window runs from ``t0 - WINDOW/beta`` (where the envelope is below
    PULSE_OFF) to ``t0 + WINDOW/beta + SETTLE_PERIODS`` width oscillation
    periods, so that it ends in free oscillation.

    The first grid has three uniform segments: the pulse core
    ``|t - t0| < acosh(PULSE_OFF^-1/2) / (2 beta)``, where the envelope
    exceeds PULSE_OFF, in steps of FIRST_STEP_ANGLE over the larger of the
    peak frequency and 2 beta, and the free oscillation before and after it
    in steps of FREE_STEP_ANGLE over the free frequency.  Each
    step's 6th-order Magnus propagator, scaled to ``(xi, xi'/Omega0)``, is
    compared with the product of its two half steps.  A step that agrees
    within ``atol + rtol`` is kept as its two halves.  A step that fails,
    with worst scaled difference err, is split into
    ``max(2, ceil((SPLIT_MARGIN err / (atol + rtol))^(1/7)))`` equal substeps,
    which the next level checks in turn; a NaN or infinite err bisects.
    Each level evaluates its steps and their halves in one numpy pass.  The
    states at the steps' ends come from one prefix-product scan over the
    accepted steps' half-step products, second @ first, and each midpoint
    state from its step's start state by the first half.  gamma sums the
    node-to-node phase advances, each in (0, pi) by the Sturm bound stated
    at FIRST_STEP_ANGLE.

    Parameters
    ----------
    mode_frequency : float
        Unperturbed frequency Omega0 > 0 of this mode.
    pulse : Pulse
        The drive.
    rtol, atol : float
        Each finite and > 0.  Only their sum is used: ``atol + rtol`` is the
        one bound on each step's worst scaled half-step difference, and
        nothing in it is relative to the state.

    Returns
    -------
    Trajectory

    Raises
    ------
    ValueError
        If the grid, the error check's half steps included, would need more
        than MAX_STEPS steps: checked on the first grid before any array is
        built, and on the running total before every refinement level is
        built.
    RuntimeError
        If a node-to-node phase advance falls outside (0, pi), which the
        module constants exclude.
    """
    _check_mode_frequency(mode_frequency)
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} must be finite and > 0, got {tol}")

    om = float(mode_frequency)
    # Positivity over the whole window follows from the value at the peak.
    if om**2 + min(pulse.coupling, 0.0) <= 0.0:
        raise IonizationRegimeError(
            f"Omega0^2 + Lambda*omega0^2 = {om**2 + pulse.coupling} <= 0: "
            "ionization-like regime is excluded"
        )
    t_start = pulse.t0 - WINDOW / pulse.beta
    t_end = pulse.t0 + WINDOW / pulse.beta + SETTLE_PERIODS * math.pi / om
    # the envelope exceeds PULSE_OFF where the pulse argument 2 beta |t - t0| < edge
    edge = math.acosh(PULSE_OFF**-0.5)
    core = edge / (2.0 * pulse.beta)
    drive = max(pulse.coupling, 0.0)
    # steps per unit time outside the core; of FIRST_STEP_ANGLE where eps > 0.01
    angle = FREE_STEP_ANGLE if drive * PULSE_OFF <= 0.01 * om**2 else FIRST_STEP_ANGLE
    free = math.sqrt(om**2 + drive * PULSE_OFF) / angle
    ends = (t_start, pulse.t0 - core, pulse.t0 + core, t_end)
    # steps per segment: free, core (the finer of peak phase and pulse argument), free
    n_core = 2.0 * max(core * math.sqrt(om**2 + drive), edge) / FIRST_STEP_ANGLE
    counts = ((ends[1] - t_start) * free, n_core, (t_end - ends[2]) * free)
    _check_budget(om, pulse, sum(counts))  # before any array, and before ceil(inf)
    grids = (np.linspace(a, b, math.ceil(n) + 1)[:-1] for a, b, n in zip(ends, ends[1:], counts))
    nodes = np.concatenate([*grids, [t_end]])

    starts, U = _accepted_steps(om, pulse, nodes[:-1], nodes[1:], atol + rtol)
    order = np.argsort(starts)
    lo = starts[order]
    # the accepted steps tile the window bit for bit, so each one ends where the next starts
    hi = np.append(lo[1:], t_end)
    m = len(lo)
    nodes = np.empty(2 * m + 1)
    nodes[:-1:2], nodes[1::2], nodes[-1] = lo, lo + 0.5 * (hi - lo), t_end
    U = U.take(order, axis=2)  # C-contiguous, unlike [..., order]
    first, P = U[:2], U[2:]
    d = 1
    # inclusive prefix product over the steps' half-step products: after it,
    # P[..., k] = both_k @ ... @ both_0
    while d < m:
        P[..., d:] = _mul(P[..., d:], P[..., :-d])
        d *= 2
    c, s = math.cos(om * t_start), math.sin(om * t_start)
    x0 = np.array([[c, s], [-om * s, om * c]])[..., None]
    # (xi, xi') at every node, real and imaginary parts: the steps' ends from
    # the scan, and each midpoint from its step's start by the first half
    X = np.empty((2, 2, 2 * m + 1))
    X[..., :1] = x0
    X[..., 2::2] = _mul(P, x0)
    X[..., 1::2] = _mul(first, X[..., :-1:2])
    # Re xi, Im xi, Re xi', Im xi' at every node
    x, y, xd, yd = X.reshape(4, -1)
    # the angle of xi_{k+1} / xi_k, which is gamma's advance only inside (0, pi)
    advance = np.arctan2(y[1:] * x[:-1] - x[1:] * y[:-1], x[1:] * x[:-1] + y[1:] * y[:-1])
    if not np.all((advance > 0.0) & (advance < math.pi)):  # NaN fails
        raise RuntimeError(
            f"integrate_mode at beta = {pulse.beta}, Omega0 = {om}: a node-to-node "
            f"phase advance outside (0, pi); FIRST_STEP_ANGLE = {FIRST_STEP_ANGLE} "
            f"and FREE_STEP_ANGLE / 2 = {FREE_STEP_ANGLE / 2} must stay below pi"
        )
    B2 = x * x + y * y
    gamma = np.full(2 * m + 1, om * t_start)
    gamma[1:] += np.cumsum(advance)
    state = np.array([np.sqrt(B2), (x * xd + y * yd) / B2, (x * yd - y * xd) / B2, gamma])
    nodes.flags.writeable = state.flags.writeable = False
    return Trajectory(
        mode_frequency=om, pulse=pulse, t=nodes, t_start=t_start, t_end=t_end, state=state
    )


def extract_reflection(traj: Trajectory) -> ReflectionResult:
    """Reflection coefficient from the post-pulse invariant of a trajectory.

    The invariant K = (1/4 B^2) [1 + (B Bdot / Omega0)^2 + B^4] is constant
    once the envelope is off and equals (1/2)(1+R)/(1-R) there, so R is read
    from K at ``t_end``, the last node.  A K below 1/2, infinite or NaN is
    rejected, and so, as in ``analytic_reflection``, is an R that rounds to 1.
    The ODE oracle for ``analytic_reflection``, which every observable uses.
    """
    if envelope(traj.pulse, traj.t_end) > PULSE_OFF:
        raise ValueError("trajectory does not extend beyond the pulse support")
    B, rate = traj.state[:2, -1]  # B and B'/B at the last node
    K = float(0.25 / B**2 * (1.0 + (B * B * rate / traj.mode_frequency) ** 2 + B**4))
    if not 0.5 - 1e-9 <= K < math.inf:  # NaN fails
        raise RuntimeError(
            f"post-pulse invariant K = {K} outside [1/2, inf): unphysical, integration failed"
        )
    R = max(0.0, (2.0 * K - 1.0) / (2.0 * K + 1.0))
    if R == 1.0:
        raise IonizationRegimeError(_R_NEAR_ONE)
    return ReflectionResult(R)


class OneMatrixSnapshot(NamedTuple):
    """The time-dependent one-matrix at one instant, or at every instant of
    an array of times.

    ``omega_d_t`` is the mode-mixed density frequency, ``D_t`` the pair
    Gaussian exponent, ``alpha_t`` the current coefficient (probability
    current j = x n alpha), ``Z_t`` the geometric occupation ratio and
    ``kappa_t`` the curvature of the inverted potential (1/2) kappa_t x^2,
    kappa_t = omega_d^2 - omega_d^(1/2) d^2/dt^2 omega_d^(-1/2)
    = omega_d^2 + alpha^2 - (omega_d/2) sum_i [o_i + (r_i^2 - Omega_i^2(t))/o_i]
    with o_i = omega_i/B_i^2, r_i = B_i'/B_i, Omega_i^2(t) = omega_i^2 + coupling F(t),
    from u = 1/omega_d = sum_i B_i^2/(2 omega_i), u' = 2 alpha/omega_d and Ermakov's
    B_i'' = -Omega_i^2 B_i + omega_i^2/B_i^3.  The mode widths behind them are
    read from both trajectories in one Magnus pass, with the step
    ``Trajectory.state_at`` applies.  The kernel Gamma_1(x1, x2, t) is
    ``gamma1_static`` at omega_d = omega_d_t and D = D_t times the phase
    exp(i alpha_t (x1^2 - x2^2) / 2).  Every
    field is a float for a scalar time and a 1-d numpy array for a 1-d array
    of times.  A ``NamedTuple``: immutable, it unpacks, and it compares equal
    to the tuple of its fields.
    """

    t: float
    omega_d_t: float
    D_t: float
    alpha_t: float
    Z_t: float
    kappa_t: float


def onematrix_snapshot(
    modes: ModeSet, traj1: Trajectory, traj2: Trajectory, t
) -> OneMatrixSnapshot:
    """Evaluate the time-dependent one-matrix at time(s) t.

    ``traj1``/``traj2`` must be the center-of-mass and relative mode
    trajectories integrated under the same pulse.  ``t`` is a scalar or a
    1-d array; either way both trajectories are read in one Magnus pass, each
    entry with the bits of its own ``state_at`` read, and the formulas run
    once over arrays, so a scalar time gives exactly the element an array
    holding it would give.  A scalar ``t`` returns float fields: the
    one-matrix alone, not the mode states it is built from.
    """
    if traj1.pulse != traj2.pulse:
        raise ValueError("trajectories were not integrated under the same pulse")
    w1, w2 = modes.omega1, modes.omega2
    if not (
        math.isclose(traj1.mode_frequency, w1, rel_tol=1e-12)
        and math.isclose(traj2.mode_frequency, w2, rel_tol=1e-12)
    ):
        raise ValueError("trajectories do not match the model mode frequencies")
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    B, Bdot, *_ = _read((traj1, traj2), ts)
    (B1, B2), (B1d, B2d) = B.reshape(2, *ts.shape), Bdot.reshape(2, *ts.shape)
    o1 = w1 / B1**2
    o2 = w2 / B2**2
    r1, r2 = B1d / B1, B2d / B2
    od = 2.0 * o1 * o2 / (o1 + o2)
    D_t = 0.25 * ((o1 - o2) ** 2 + (r1 - r2) ** 2) / (o1 + o2)
    alpha = od * 0.5 * (B1 * B1d / w1 + B2 * B2d / w2)
    root = np.sqrt(1.0 + 2.0 * D_t / od)
    Z_t = (root - 1.0) / (root + 1.0)
    drive = traj1.pulse.coupling * envelope(traj1.pulse, ts)
    u2 = o1 + (r1 * r1 - w1 * w1 - drive) / o1 + o2 + (r2 * r2 - w2 * w2 - drive) / o2
    kappa = od * od + alpha * alpha - 0.5 * od * u2
    values = (ts, od, D_t, alpha, Z_t, kappa)
    if t.ndim == 0:
        return OneMatrixSnapshot(*(float(v[0]) for v in values))
    return OneMatrixSnapshot(*values)


@dataclass(eq=False, frozen=True)
class SnapshotSeries:
    """One-matrix snapshots on a uniform time grid.

    ``snapshots`` lists one scalar OneMatrixSnapshot per entry of ``times`` (its row
    of the array read) for ``effective_potential`` and ``energy_expectation_ks``,
    which read one snapshot's kappa_t.  ``snapshot_series`` makes ``times``
    read-only.
    """

    modes: ModeSet
    pulse: Pulse
    times: np.ndarray
    snapshots: list
    spacing: float

    def index_at(self, t: float) -> int:
        """Index of the snapshot nearest to t, which must lie within half a
        spacing of the grid."""
        if math.isfinite(t):
            i = int(round((t - self.times[0]) / self.spacing))
            if 0 <= i < len(self.times):
                return i
        raise ValueError(f"time {t} not covered by the snapshot series")


def snapshot_series(
    modes: ModeSet,
    traj1: Trajectory,
    traj2: Trajectory,
    t_min: float,
    t_max: float,
) -> SnapshotSeries:
    """Build a uniformly spaced snapshot series on [t_min, t_max].

    The spacing min(0.01/omega1, 0.02/beta) only sets the grid the readers
    snap to: each snapshot carries its own kappa_t (``OneMatrixSnapshot``),
    closed by Ermakov's B_i''.  All times are evaluated by one array
    ``onematrix_snapshot`` call, one Magnus pass over both trajectories, whose
    rows become the float snapshots.  The window must lie inside the time
    range of both trajectories.
    """
    spacing = min(0.01 / modes.omega1, 0.02 / traj1.pulse.beta)
    if t_max <= t_min:
        raise ValueError("empty snapshot window")
    lo = max(traj1.t_start, traj2.t_start)
    hi = min(traj1.t_end, traj2.t_end)
    if not (lo <= t_min and t_max <= hi):
        raise ValueError(
            f"snapshot window [{t_min}, {t_max}] outside trajectory range [{lo}, {hi}]"
        )
    n = int(math.floor((t_max - t_min) / spacing)) + 1
    times = t_min + spacing * np.arange(n)
    times.flags.writeable = False
    table = onematrix_snapshot(modes, traj1, traj2, times)
    columns = (column.tolist() for column in table)
    # tuple.__new__ builds each NamedTuple row without a Python frame per row
    snaps = list(map(tuple.__new__, repeat(OneMatrixSnapshot), zip(*columns)))
    return SnapshotSeries(
        modes=modes, pulse=traj1.pulse, times=times, snapshots=snaps, spacing=spacing
    )


def effective_potential(series: SnapshotSeries, x, t: float, variant: str) -> np.ndarray:
    """Effective single-particle potential behind the density orbital.

    ``inverted`` is (1/2) x^2 kappa_t, the curvature of the mode-mixed
    omega_d(t) of the exact density (``OneMatrixSnapshot``): formally exact,
    physically pathological at late times.  It reads the snapshot at the grid
    time nearest to ``t``, which must lie within half a spacing of the grid
    (``SnapshotSeries.index_at``).  ``preoptimized`` is the closed form
    (1/2) x^2 [omega_d^2 + coupling*F(t)] of the drive acting on the
    density-optimal initial state, evaluated at ``t`` itself.
    """
    x2 = np.square(np.asarray(x, dtype=float))
    if variant == "preoptimized":
        return 0.5 * x2 * omega_squared(series.modes.omega_d, series.pulse, t)
    if variant == "inverted":
        return 0.5 * x2 * series.snapshots[series.index_at(t)].kappa_t
    raise ValueError(f"variant must be 'inverted' or 'preoptimized', got {variant!r}")


def energy_expectation_ks(series: SnapshotSeries, t: float) -> float:
    """Two-particle energy expectation of the density-orbital description.

    Kinetic part (1/2) omega_d(t) [1 + alpha^2/omega_d^2] plus potential
    part (1/2) kappa_t / omega_d, with kappa_t of ``OneMatrixSnapshot``.
    Oscillates at late times when the modes differ.  Read from the snapshot at
    the grid time nearest to ``t``, which must lie within half a spacing of the
    grid (``SnapshotSeries.index_at``): an off-grid ``t`` gets that time's value.
    """
    snap = series.snapshots[series.index_at(t)]
    od, alpha = snap.omega_d_t, snap.alpha_t
    return 0.5 * od * (1.0 + alpha**2 / od**2) + 0.5 * snap.kappa_t / od


def continuity_residual(
    modes: ModeSet,
    traj1: Trajectory,
    traj2: Trajectory,
    t: float,
    x: np.ndarray,
    dt: float | None = None,
) -> float:
    """Max |d_t n + d_x (x n alpha)| / max |d_t n| on the given grid.

    d_t n uses a 5-point central difference over snapshots; the current
    divergence is evaluated in closed form from the snapshot at t.  All
    five stencil times are read by one array ``onematrix_snapshot`` call, one
    Magnus pass over both trajectories.

    The stencil's truncation error grows like (dt * rate)^4, so the default
    step min(5e-3, 0.015 / max(omega1, beta)) follows the fastest of the
    mode and pulse time scales; it is 5e-3 while max(omega1, beta) <= 3.
    """
    if dt is None:
        dt = min(5e-3, 0.015 / max(modes.omega1, traj1.pulse.beta))
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    x = np.asarray(x, dtype=float)
    snap = onematrix_snapshot(modes, traj1, traj2, t + dt * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    n = _gaussian_density(snap.omega_d_t[:, None], x)
    dndt = (n[0] - 8.0 * n[1] + 8.0 * n[3] - n[4]) / (12.0 * dt)
    djdx = snap.alpha_t[2] * n[2] * (1.0 - 2.0 * snap.omega_d_t[2] * x * x)
    return float(np.max(np.abs(dndt + djdx)) / np.max(np.abs(dndt)))


def trajectory_table(traj: Trajectory, n: int = 2001) -> np.ndarray:
    """Dense (t, B, Bdot, gamma) samples for export."""
    ts = np.linspace(traj.t_start, traj.t_end, n)
    B, Bdot, gamma = traj.state_at(ts)
    return np.column_stack([ts, B, Bdot, gamma])
