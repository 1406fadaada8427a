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
(2000)).  Steps are bisected where they fail a half-step error check, so
the grid is fine only where the pulse acts, and each refinement level is
one numpy pass (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009),
section 5; Hairer, Norsett & Wanner, Solving ODEs I, section II.4).  The
module needs numpy alone.  ``Pulse`` and the closed-form
``analytic_reflection`` live in ``closed_form``, which needs no numpy; the
pulse's envelope ``F(t)``, evaluated on arrays, lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
)

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
    "gamma1_time",
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

# Magnus grids: the first one advances the phase at the peak frequency over
# the window, and the pulse argument 2 beta (t - t0) over the pulse core, by
# at most FIRST_STEP_ANGLE radians per step.  That keeps its steps inside the
# convergence region of the Magnus series and stops them from stepping over
# the pulse.  Bisection then refines only the steps that fail the error
# check.  No grid, the error check's half steps included, has more than
# MAX_STEPS steps.
#
# By Sturm comparison the zeros of the real solution Re(xi exp(-i a)), where
# the phase of xi passes a + pi/2 mod pi, lie at least pi / max Omega apart.
# So while FIRST_STEP_ANGLE < pi every step advances the phase by less than
# pi, and integrate_mode raises a RuntimeError on any advance outside (0, pi).
FIRST_STEP_ANGLE = 1.0
MAX_STEPS = 2**17


def envelope(pulse: Pulse, t):
    """F(t) = sech^2(2 beta (t - t0)); F(t0) = 1, F(+-inf) = 0."""
    x = np.abs(2.0 * pulse.beta * (np.asarray(t, dtype=float) - pulse.t0))
    s = np.exp(-x)
    return 4.0 * s * s / np.square(1.0 + s * s)


def omega_squared(mode_frequency: float, pulse: Pulse, t):
    """Instantaneous squared frequency Omega0^2 + Lambda*omega0^2*F(t).

    Raises IonizationRegimeError if the value is not positive anywhere,
    which signals the excluded inverted-confinement regime.
    """
    _check_mode_frequency(mode_frequency)
    val = mode_frequency**2 + pulse.coupling * envelope(pulse, t)
    if np.any(val <= 0.0):
        raise IonizationRegimeError(
            f"Omega^2(t) <= 0 for Omega0={mode_frequency}, Lambda={pulse.Lambda}: "
            "drive inverts the confinement (ionization-like regime)"
        )
    return val


# Gauss-Legendre nodes on [0, 1] of the 6th-order Magnus step.
_GAUSS = np.array([0.5 - 0.1 * math.sqrt(15.0), 0.5, 0.5 + 0.1 * math.sqrt(15.0)])


def _propagators(om: float, pulse: Pulse, t, h):
    """Magnus propagators of (xi, xi') over [t, t + h], elementwise in t and h.

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
    exp(Omega) = cos(th) I + (sin(th)/th) Omega with th^2 = -(a^2 + bc), or
    cosh and sinh of sqrt(a^2 + bc) where that is real.
    Scalar t and h give numpy scalars, which keeps one-time reads cheap.
    Returns the entries (u00, u01, u10, u11).
    """
    # omega_squared inline: integrate_mode has checked positivity once for
    # the whole window, so this hot loop skips the per-call check.
    w1, w2, w3 = om * om + pulse.coupling * envelope(pulse, t + np.multiply.outer(_GAUSS, h))
    W, D1, D2 = h * w2, h * (w3 - w1), h * (w1 + w3 - 2.0 * w2)
    E = D1 * D1
    a = (math.sqrt(15.0) / 3.0) * h * D1 * (h * (W + D2 / 12.0) / 180.0 + 1.0 / 12.0)
    b = h * (1.0 + h * (h * E / 2160.0 + D2 / 54.0))
    c = h * (D2 * (6.0 * W + D2) / 324.0 - E * (30.0 + h * W) / 2160.0) - W - D2 * (5.0 / 18.0)
    q = -(a * a + b * c)
    if (q >= 0.0).all():
        th = np.sqrt(q)
        # the offset gives sin(th)/th = 1 at th = 0 (a read on a node) and
        # leaves every th above 1e-284 unchanged
        nz = th + 1e-300
        cos, sinc = np.cos(th), np.sin(nz) / nz
    else:  # a hyperbolic exponent: cos(i x) = cosh(x)
        th = np.sqrt(q + 0j)
        cos, sinc = np.cos(th).real, np.sinc(th / math.pi).real
    a *= sinc
    return cos + a, sinc * b, sinc * c, cos - a


def _halves(om: float, pulse: Pulse, lo: np.ndarray, hi: np.ndarray, whole: bool = False):
    """Midpoints of the steps [lo, hi] and the propagator entries, (4, m)
    each, of their first and second halves, preceded with ``whole`` by those
    of the steps themselves; all from one ``_propagators`` call."""
    mid = lo + 0.5 * (hi - lo)
    t, h = [lo, mid], [mid - lo, hi - mid]
    if whole:
        t, h = [lo, *t], [hi - lo, *h]
    u = np.array(_propagators(om, pulse, np.concatenate(t), np.concatenate(h)))
    m = len(lo)
    return (mid, *(u[:, i : i + m] for i in range(0, len(u[0]), m)))


def _check_budget(om: float, pulse: Pulse, n: float) -> None:
    """Reject a grid of n steps whose half steps would exceed MAX_STEPS."""
    if not 2 * n <= MAX_STEPS:  # NaN and inf fail
        raise ValueError(
            f"integrate_mode at beta = {pulse.beta}, Omega0 = {om} needs at least "
            f"{n:.0f} Magnus steps and {2 * n:.0f} half steps to check them, above "
            f"MAX_STEPS = {MAX_STEPS}"
        )


@dataclass(eq=False)
class Trajectory:
    """Integrated width scale of one mode under one pulse.

    ``t`` holds the nodes of the Magnus grid on ``[t_start, t_end]``,
    increasing, with steps refined where the pulse acts.  The rows of
    ``state`` hold B, B'/B, gamma' and gamma at every node: |xi|, the real
    and imaginary parts of xi'/xi, and the phase of xi = B exp(i gamma).
    ``state_at`` applies the same closed-form Magnus step from the node at
    or below each requested time, for all times in one numpy pass, so it
    reproduces every node exactly and is smooth between them.  Immutable
    after construction.
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
        t = np.asarray(t, dtype=float)[()]  # a 0-d array becomes a scalar
        if t.size and not (t.min() >= self.t_start and t.max() <= self.t_end):  # NaN fails
            raise ValueError(
                f"time outside trajectory range [{self.t_start}, {self.t_end}]"
            )
        k = np.searchsorted(self.t[1:-1], t, side="right")
        t_k = self.t[k]
        u00, u01, u10, u11 = _propagators(self.mode_frequency, self.pulse, t_k, t - t_k)
        # xi(t) = xi_k z and xi'(t) = xi_k z' with z = u00 + u01 rho,
        # z' = u10 + u11 rho and rho = xi'_k / xi_k = B'/B + i gamma' at the node.
        # Real arithmetic only, so that a scalar read equals its array read.
        B_k, rho_re, rho_im, gamma_k = self.state.take(k, axis=1)
        z_re, z_im = u00 + u01 * rho_re, u01 * rho_im
        dz_re, dz_im = u10 + u11 * rho_re, u11 * rho_im
        z2 = z_re * z_re + z_im * z_im
        B = B_k * np.sqrt(z2)
        return B, B * (dz_re * z_re + dz_im * z_im) / z2, gamma_k + np.arctan2(z_im, z_re)

    def invariant_at(self, t):
        """K(t) = (1/4 B^2) [1 + (B Bdot / Omega0)^2 + B^4].

        Constant once the pulse is off; equals (1/2)(1+R)/(1-R).
        """
        B, Bdot, _ = self.state_at(t)
        return 0.25 / B**2 * (1.0 + (B * Bdot / self.mode_frequency) ** 2 + B**4)


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

    The first grid is the union of two uniform grids: the window in steps
    of FIRST_STEP_ANGLE over the peak frequency, and the pulse core
    ``|t - t0| < acosh(PULSE_OFF^-1/2) / (2 beta)``, where the envelope
    exceeds PULSE_OFF, in steps of FIRST_STEP_ANGLE over 2 beta.  Each
    step's 6th-order Magnus propagator, scaled to ``(xi, xi'/Omega0)``, is
    compared with the product of its two half steps.  A step that agrees
    within ``atol + rtol`` is kept as its two halves; a step that fails is
    replaced by its halves, which the next level checks in turn.  Each level
    evaluates the halves of its new steps only, in one numpy pass.  The node
    states come from one prefix-product pass over the step propagators, and
    gamma sums the node-to-node phase advances, each in (0, pi) by the Sturm
    bound stated at FIRST_STEP_ANGLE.

    Parameters
    ----------
    mode_frequency : float
        Unperturbed frequency Omega0 > 0 of this mode.
    pulse : Pulse
        The drive.
    rtol, atol : float
        Local error request per step, finite and > 0.

    Returns
    -------
    Trajectory

    Raises
    ------
    ValueError
        If the grid, the error check's half steps included, would need more
        than MAX_STEPS steps: checked on the first grid before any array is
        built, and on the running total at every refinement.
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
    n_window = (t_end - t_start) * math.sqrt(om**2 + max(pulse.coupling, 0.0)) / FIRST_STEP_ANGLE
    n_core = 2.0 * edge / FIRST_STEP_ANGLE
    _check_budget(om, pulse, n_window + n_core)  # before any array, and before ceil(inf)
    nodes = np.sort(np.concatenate([
        np.linspace(t_start, t_end, math.ceil(n_window) + 1),
        np.linspace(pulse.t0 - core, pulse.t0 + core, math.ceil(n_core) + 1),
    ]))
    nodes = nodes[np.concatenate([[True], nodes[1:] > nodes[:-1]])]  # no zero-width steps

    # the error check compares with the half steps: one entry per (xi, xi'/Omega0) pair
    scale = np.array([1.0, om, 1.0 / om, 1.0])[:, None]
    lo, hi, whole = nodes[:-1], nodes[1:], None
    starts, halves, n_kept = [], [], 0  # accepted steps: their halves, and their count
    while True:
        _check_budget(om, pulse, n_kept + len(lo))
        if whole is None:  # the first grid's own steps join the first pass
            mid, whole, first, second = _halves(om, pulse, lo, hi, whole=True)
        else:
            mid, first, second = _halves(om, pulse, lo, hi)
        a00, a01, a10, a11 = first
        b00, b01, b10, b11 = second
        # second @ first: the two halves in sequence
        both = np.array([b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
                         b10 * a00 + b11 * a10, b10 * a01 + b11 * a11])
        ok = np.all(np.abs(whole - both) * scale <= atol + rtol, axis=0)
        starts += [lo[ok], mid[ok]]
        halves += [first[:, ok], second[:, ok]]
        n_ok = int(np.count_nonzero(ok))
        if n_ok == len(ok):
            break
        n_kept += n_ok
        fail = ~ok  # each failing step is replaced by its halves
        lo, hi = np.concatenate([lo[fail], mid[fail]]), np.concatenate([mid[fail], hi[fail]])
        whole = np.concatenate([first[:, fail], second[:, fail]], axis=1)

    starts = np.concatenate(starts)
    order = np.argsort(starts)
    nodes = np.append(starts[order], t_end)
    prod = np.concatenate(halves, axis=1)[:, order].T.reshape(-1, 2, 2)
    n, d = len(prod), 1
    # inclusive prefix product of the steps: after it, prod[k] = step_k @ ... @ step_0
    while d < n:
        prod[d:] = prod[d:] @ prod[:-d]
        d *= 2
    c, s = math.cos(om * t_start), math.sin(om * t_start)
    x0 = np.array([[c, s], [-om * s, om * c]])
    # Re xi, Im xi, Re xi', Im xi' at every node
    x, y, xd, yd = np.concatenate([x0[None], prod @ x0]).reshape(n + 1, 4).T
    # the angle of xi_{k+1} / xi_k, which is gamma's advance only inside (0, pi)
    advance = np.arctan2(y[1:] * x[:-1] - x[1:] * y[:-1], x[1:] * x[:-1] + y[1:] * y[:-1])
    if not np.all((advance > 0.0) & (advance < math.pi)):  # NaN fails
        raise RuntimeError(
            f"integrate_mode at beta = {pulse.beta}, Omega0 = {om}: a node-to-node "
            f"phase advance outside (0, pi); FIRST_STEP_ANGLE = {FIRST_STEP_ANGLE} "
            "must stay below pi"
        )
    B2 = x * x + y * y
    gamma = np.full(n + 1, om * t_start)
    gamma[1:] += np.cumsum(advance)
    state = np.array([np.sqrt(B2), (x * xd + y * yd) / B2, (x * yd - y * xd) / B2, gamma])
    return Trajectory(
        mode_frequency=om, pulse=pulse, t=nodes, t_start=t_start, t_end=t_end, state=state
    )


def extract_reflection(traj: Trajectory) -> ReflectionResult:
    """Reflection coefficient from the post-pulse invariant of a trajectory.

    K = (1/2)(1+R)/(1-R) is exact once the envelope is off, so R is read
    from K at ``t_end`` alone.  This is the ODE oracle for
    ``analytic_reflection``, which every observable uses.
    """
    if envelope(traj.pulse, traj.t_end) > PULSE_OFF:
        raise ValueError("trajectory does not extend beyond the pulse support")
    K = float(traj.invariant_at(traj.t_end))
    if K < 0.5 - 1e-9:
        raise RuntimeError(
            f"post-pulse invariant K = {K} < 1/2: unphysical, integration failed"
        )
    return ReflectionResult(R=max(0.0, (2.0 * K - 1.0) / (2.0 * K + 1.0)))


@dataclass(frozen=True)
class OneMatrixSnapshot:
    """The time-dependent one-matrix at one instant, or at every instant of
    an array of times.

    ``omega_d_t`` is the mode-mixed density frequency, ``D_t`` the pair
    Gaussian exponent, ``alpha_t`` the current coefficient (probability
    current j = x n alpha), and ``Z_t`` the geometric occupation ratio; the
    mode widths behind them are read with ``Trajectory.state_at``.  Every
    field is a float for a scalar time and a 1-d numpy array for a 1-d array
    of times.
    """

    t: float
    omega_d_t: float
    D_t: float
    alpha_t: float
    Z_t: float


def onematrix_snapshot(
    modes: ModeSet, traj1: Trajectory, traj2: Trajectory, t
) -> OneMatrixSnapshot:
    """Evaluate the time-dependent one-matrix at time(s) t.

    ``traj1``/``traj2`` must be the center-of-mass and relative mode
    trajectories integrated under the same pulse.  ``t`` is a scalar or a
    1-d array; either way each trajectory is read by one ``state_at`` call and
    the formulas run once over arrays, so a scalar time gives exactly the
    element an array holding it would give.  A scalar ``t`` returns float
    fields: the one-matrix alone, not the mode states it is built from.
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
    B1, B1d, _ = traj1.state_at(ts)
    B2, B2d, _ = traj2.state_at(ts)
    o1 = w1 / B1**2
    o2 = w2 / B2**2
    od = 2.0 * o1 * o2 / (o1 + o2)
    D_t = 0.25 * ((o1 - o2) ** 2 + (B1d / B1 - B2d / B2) ** 2) / (o1 + o2)
    alpha = od * 0.5 * (B1 * B1d / w1 + B2 * B2d / w2)
    root = np.sqrt(1.0 + 2.0 * D_t / od)
    Z_t = (root - 1.0) / (root + 1.0)
    values = (ts, od, D_t, alpha, Z_t)
    if t.ndim == 0:
        return OneMatrixSnapshot(*(float(v[0]) for v in values))
    return OneMatrixSnapshot(*values)


def gamma1_time(snapshot: OneMatrixSnapshot, x1, x2):
    """Time-dependent one-matrix Gamma_1(x1, x2, t); Hermitian, complex."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    od, D_t, alpha = snapshot.omega_d_t, snapshot.D_t, snapshot.alpha_t
    amp = math.sqrt(od / math.pi) * np.exp(-0.5 * od * (x1 * x1 + x2 * x2))
    phase = np.exp(0.5j * alpha * (x1 * x1 - x2 * x2))
    return amp * phase * np.exp(-0.5 * D_t * np.square(x1 - x2))


@dataclass(eq=False)
class SnapshotSeries:
    """One-matrix snapshots on a uniform time grid for stencil derivatives.

    ``snapshots`` holds one scalar OneMatrixSnapshot per entry of ``times``,
    which ``effective_potential`` and ``energy_expectation_ks`` read.
    """

    modes: ModeSet
    pulse: Pulse
    times: np.ndarray
    snapshots: list
    spacing: float

    def index_at(self, t: float) -> int:
        if math.isfinite(t):
            i = int(round((t - self.times[0]) / self.spacing))
            if 0 <= i < len(self.times) and abs(self.times[i] - t) <= 0.5 * self.spacing + 1e-12:
                return i
        raise ValueError(f"time {t} not covered by the snapshot series")

    def _d2_inv_sqrt_omega_d(self, i: int) -> float:
        """5-point second derivative of omega_d(t)**-1/2 at grid index i."""
        if i < 2 or i > len(self.times) - 3:
            raise ValueError("stencil reaches past the snapshot-series edges")
        w = [self.snapshots[i + k].omega_d_t ** -0.5 for k in (-2, -1, 0, 1, 2)]
        return (-w[0] + 16.0 * w[1] - 30.0 * w[2] + 16.0 * w[3] - w[4]) / (
            12.0 * self.spacing**2
        )


def snapshot_series(
    modes: ModeSet,
    traj1: Trajectory,
    traj2: Trajectory,
    t_min: float,
    t_max: float,
) -> SnapshotSeries:
    """Build a uniformly spaced snapshot series on [t_min, t_max].

    The spacing min(0.01/omega1, 0.02/beta) keeps the 5-point stencil
    truncation error far below the asymptotic observables.  All times are
    evaluated by one array ``onematrix_snapshot`` call, that is one
    ``state_at`` call per trajectory, and then split into scalar snapshots.
    The window must lie inside the time range of both trajectories.
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
    table = onematrix_snapshot(modes, traj1, traj2, times)
    columns = (getattr(table, f.name).tolist() for f in fields(OneMatrixSnapshot))
    snaps = [OneMatrixSnapshot(*row) for row in zip(*columns)]
    return SnapshotSeries(
        modes=modes, pulse=traj1.pulse, times=times, snapshots=snaps, spacing=spacing
    )


def effective_potential(series: SnapshotSeries, x, t: float, variant: str) -> np.ndarray:
    """Effective single-particle potential behind the density orbital.

    ``inverted`` differentiates the mode-mixed omega_d(t) of the exact
    density (formally exact, physically pathological at late times);
    ``preoptimized`` is the closed form (1/2) x^2 [omega_d^2 + coupling*F(t)]
    of the drive acting on the density-optimal initial state.
    """
    x2 = np.square(np.asarray(x, dtype=float))
    if variant == "preoptimized":
        return 0.5 * x2 * omega_squared(series.modes.omega_d, series.pulse, t)
    if variant == "inverted":
        i = series.index_at(t)
        od_t = series.snapshots[i].omega_d_t
        d2 = series._d2_inv_sqrt_omega_d(i)
        return 0.5 * x2 * od_t**2 - 0.5 * x2 * math.sqrt(od_t) * d2
    raise ValueError(f"variant must be 'inverted' or 'preoptimized', got {variant!r}")


def energy_expectation_ks(series: SnapshotSeries, t: float) -> float:
    """Two-particle energy expectation of the density-orbital description.

    Kinetic part (1/2) omega_d(t) [1 + alpha^2/omega_d^2] plus potential
    part (1/2) omega_d(t) [1 - omega_d^{-3/2} d^2/dt^2 omega_d^{-1/2}].
    Oscillates at late times when the modes differ.
    """
    i = series.index_at(t)
    snap = series.snapshots[i]
    od, alpha = snap.omega_d_t, snap.alpha_t
    d2 = series._d2_inv_sqrt_omega_d(i)
    kinetic = 0.5 * od * (1.0 + alpha**2 / od**2)
    potential = 0.5 * od * (1.0 - od**-1.5 * d2)
    return kinetic + potential


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
    five stencil times are read by one array ``onematrix_snapshot`` call.

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
    od = snap.omega_d_t[:, None]
    n = np.sqrt(od / math.pi) * np.exp(-od * x * x)
    dndt = (n[0] - 8.0 * n[1] + 8.0 * n[3] - n[4]) / (12.0 * dt)
    djdx = snap.alpha_t[2] * n[2] * (1.0 - 2.0 * snap.omega_d_t[2] * x * x)
    return float(np.max(np.abs(dndt + djdx)) / np.max(np.abs(dndt)))


def trajectory_table(traj: Trajectory, n: int = 2001) -> np.ndarray:
    """Dense (t, B, Bdot, gamma) samples for export."""
    ts = np.linspace(traj.t_start, traj.t_end, n)
    B, Bdot, gamma = traj.state_at(ts)
    return np.column_stack([ts, B, Bdot, gamma])
