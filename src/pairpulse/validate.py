"""Invariant registry: the one implementation of each invariant check.

Each ``check_*`` takes its inputs and returns ``(passed, detail)``, with the
measured value in ``detail``.  ``CHECKS`` binds them to the quick inputs of
``pairpulse validate``; the acceptance suite runs the same tuple and calls
the same functions on larger inputs.  The Mehler and partial-trace sums run
in ``np.einsum``'s own loops, not BLAS, so the errors they print do not
depend on the BLAS kernel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import dynamics, model, observables
from .closed_form import ModelParams, Pulse, analytic_reflection, derive_modes, overlap
from .dynamics import extract_reflection, integrate_mode


def check_mode_ordering(n):
    """omega2 < omega_d < omega_w < omega_e < omega1 on an n x n grid of models,
    omega0 and lam log-spaced over [0.2, 8] and [1e-6, 0.5 - 1e-9], ends included."""
    lams = np.geomspace(1e-6, 0.5 - 1e-9, n).tolist()
    for w0 in np.geomspace(0.2, 8.0, n).tolist():
        for lam in lams:
            m = derive_modes(ModelParams(w0, lam))
            if not (m.omega2 < m.omega_d < m.omega_w < m.omega_e < m.omega1):
                return False, f"ordering violated at omega0={w0}, lam={lam}"
    return True, (f"strict on a {n} x {n} log grid, omega0 in [0.2, 8], "
                  "lam in [1e-6, 0.5 - 1e-9]")


def check_frequency_table(m):
    """The reference frequencies at omega0 = 3, lam = 3/8."""
    ok = m.omega2 == 1.5 and all(abs(got - want) < 1e-3 for got, want in (
        (m.omega_e, 2.372), (m.omega_w, 2.121), (m.omega_d, 2.0)))
    return ok, f"omega2={m.omega2}, omega_e={m.omega_e:.4f}, omega_w={m.omega_w:.4f}, omega_d={m.omega_d}"


def _grid(m, n):
    """n points over 8 sigmas of the density-optimal Gaussian on either side,
    which put its tails below 1e-13 at the bounds, and their spacing."""
    half = 8.0 / math.sqrt(m.omega_d)
    return np.linspace(-half, half, n, retstep=True)


def check_mehler_reconstruction(models):
    """sum_k P_k phi_k(x1) phi_k(x2) over the natural orbitals, k <= 40, is the one-matrix.

    Each orbital is the public ``natural_orbital``, so the row checks the
    orbitals users read."""
    errs = []
    for m in models:
        x, _ = _grid(m, 200)
        orbitals = np.array([model.natural_orbital(m, k, x) for k in range(41)])
        weights = np.asarray(model.occupation_spectrum(m, 40).weights)
        recon = np.einsum("ki,kj->ij", orbitals * weights[:, None], orbitals)
        errs.append(np.max(np.abs(recon - model.gamma1_static(m, x[:, None], x[None, :]))))
    err = float(np.max(errs))
    return err < 1e-12, f"max |sum_k P_k phi_k phi_k - Gamma_1| = {err:.2e} for k <= 40"


def check_partial_trace(models):
    """Integrating Psi_exact(x1, y) Psi_exact(x2, y) over y gives the one-matrix, and its
    diagonal the density."""
    kernel_errs, density_errs = [], []
    for m in models:
        x, dx = _grid(m, 200)
        psi = model.model_wavefunction("exact", m, x[:, None], x[None, :])
        # a plain sum: the tails at the ends are below 1e-13
        gamma = np.einsum("ik,jk->ij", psi, psi) * dx
        kernel_errs.append(np.max(np.abs(gamma - model.gamma1_static(m, x[:, None], x[None, :]))))
        density_errs.append(np.max(np.abs(np.diag(gamma) - model.density(m, x))))
    kernel_err, density_err = float(np.max(kernel_errs)), float(np.max(density_errs))
    ok = kernel_err < 1e-12 and density_err < 1e-12
    return ok, f"max |Tr_2 Psi Psi - Gamma_1| = {kernel_err:.2e}, max |diagonal - n| = {density_err:.2e}"


def check_trace_identity(m, k_max):
    """Purity: the squared occupations sum to omega_d / omega_w."""
    spec = model.occupation_spectrum(m, k_max)
    err = abs(float(np.sum(np.asarray(spec.weights)**2)) - m.omega_d / m.omega_w)
    return err < 1e-10, f"|sum P_k^2 - omega_d/omega_w| = {err:.2e}"


def check_spectral_oracle(models):
    """Eigenvalues of the discretized kernel equal the closed-form occupations."""
    errs = []
    for m in models:
        x, dx = _grid(m, 400)
        eigs = np.linalg.eigvalsh(model.gamma1_static(m, x[:, None], x[None, :]) * dx)[::-1]
        errs.append(np.max(np.abs(eigs[:11] - np.asarray(model.occupation_spectrum(m, 10).weights))))
    err = float(np.max(errs))
    return err < 1e-6, f"max |eig - P_k| = {err:.2e} for k <= 10"


def check_weight_ladder(Rs):
    """Transition weights sum to 1, and their ladder sum is the closed-form R/(1-R)."""
    errs = []
    for R in Rs:
        tw = observables.transition_weights(R, 200)
        errs.append((abs(float(np.sum(tw.weights)) + tw.tail_bound - 1.0),
                     abs(observables.statistical_shift(tw, 1.0) - R / (1.0 - R))))
    norm, shift = np.max(errs, axis=0)
    at = ", ".join(f"{R:g}" for R in Rs)
    ok = bool(norm < 1e-9 and shift < 1e-10)
    return ok, f"max norm error {norm:.2e}, max shift error {shift:.2e} at R in {{{at}}}"


def check_reflection_agreement(trajs):
    """R extracted from each trajectory equals the closed form for its mode and pulse."""
    dR = [extract_reflection(t).R - analytic_reflection(t.mode_frequency, t.pulse).R for t in trajs]
    worst = float(np.max(np.abs(dR)))
    return worst < 1e-6, f"max |R_ode - R_analytic| = {worst:.2e}"


def check_wronskian_and_ermakov(traj):
    """B'' + Omega^2(t) B = Omega0^2 / B^3 and the Wronskian gamma' B^2 = Omega0."""
    om = traj.mode_frequency
    ts, h = np.linspace(traj.t_start + 1e-3, traj.t_end - 1e-3, 400), 1e-4
    B0, _, _ = traj.state_at(ts)
    Bm, _, gm = traj.state_at(ts - h)
    Bp, _, gp = traj.state_at(ts + h)
    wr_err = float(np.max(np.abs((gp - gm) / (2 * h) * B0**2 - om)))
    Bdd = (Bp - 2 * B0 + Bm) / h**2
    o2 = dynamics.omega_squared(om, traj.pulse, ts)
    resid = float(np.max(np.abs(Bdd + o2 * B0 - om**2 / B0**3)))
    ok = resid < 1e-6 and wr_err < 1e-6
    return ok, f"max Ermakov residual {resid:.2e}, Wronskian error {wr_err:.2e}"


def check_berry_limits(trajs):
    """Berry connection Omega0/2 before the pulse and (Omega0/2)(1+R)/(1-R) after it."""
    errs = []
    for t in trajs:
        om, R = t.mode_frequency, analytic_reflection(t.mode_frequency, t.pulse).R
        start, end = (observables.berry_connection(t, t.pulse, s) for s in (t.t_start, t.t_end))
        errs.append((abs(start - om / 2.0), abs(end - 0.5 * om * (1.0 + R) / (1.0 - R))))
    err0, err1 = np.max(errs, axis=0)
    return bool(err0 < 1e-10 and err1 < 1e-6), f"start err {err0:.2e}, end err {err1:.2e}"


def check_continuity(m, t1, t2, times):
    """Relative continuity residual; pick in-pulse or later times (before the pulse it is 0/0)."""
    x, _ = _grid(m, 256)
    worst = float(np.max([dynamics.continuity_residual(m, t1, t2, t, x) for t in times]))
    return worst < 1e-6, f"max relative residual {worst:.2e}"


def check_snapshot_positivity(m, t1, t2, n_times):
    """The pair exponent D(t) >= 0 and the occupation ratio Z(t) in [0, 1)."""
    hi = min(t1.t_end, t2.t_end)
    s = dynamics.onematrix_snapshot(m, t1, t2, np.linspace(t1.t_start, hi, n_times))
    d_min, z_min, z_max = float(np.min(s.D_t)), float(np.min(s.Z_t)), float(np.max(s.Z_t))
    ok = d_min >= 0.0 and z_min >= 0.0 and z_max < 1.0
    return ok, f"min D(t) = {d_min:.2e} (>= 0), max Z(t) = {z_max:.2e} (< 1) at {n_times} times"


def check_shift_zero(trajs):
    """Numeric R vanishes where 1 + Lambda*omega0^2/beta^2 = (2n+1)^2."""
    worst = float(np.max([extract_reflection(t).R for t in trajs]))
    ns = sorted({round((math.sqrt(1 + t.pulse.coupling / t.pulse.beta**2) - 1) / 2) for t in trajs})
    where = " and ".join(("first", "second", "third")[n - 1] for n in ns)
    return worst < 1e-8, f"numeric R = {worst:.2e} at the {where} shift zero" + "s" * (len(ns) > 1)


def check_overlap_limits(m):
    """Unit overlap without a drive; exact and KS overlaps agree without interaction."""
    w0 = m.params.omega0
    unit_err = abs(overlap(m, Pulse(Lambda=0.0, beta=2.0, omega0=w0), "exact") - 1.0)
    m0, p0 = derive_modes(ModelParams(w0, 0.0)), Pulse(Lambda=0.2, beta=2.0, omega0=w0)
    ks_err = abs(overlap(m0, p0, "exact") - overlap(m0, p0, "ks"))
    ok = unit_err < 1e-12 and ks_err < 1e-12
    return ok, f"|overlap - 1| = {unit_err:.2e} at Lambda = 0, |exact - ks| = {ks_err:.2e} at lam = 0"


def _integrate(m, mode_frequency, Lambda, beta):
    pulse = Pulse(Lambda, beta, m.params.omega0)
    return integrate_mode(mode_frequency, pulse, rtol=1e-11, atol=1e-13)


# (name, check(m, pair)) at the quick inputs; for m and pair() see run_validation.
CHECKS = (
    ("mode-frequency ordering", lambda m, pair: check_mode_ordering(15)),
    ("reference frequency table", lambda m, pair: check_frequency_table(m)),
    ("Mehler reconstruction", lambda m, pair: check_mehler_reconstruction([m])),
    ("partial trace", lambda m, pair: check_partial_trace([m])),
    ("purity trace identity", lambda m, pair: check_trace_identity(m, 200)),
    ("occupation spectral oracle", lambda m, pair: check_spectral_oracle([m])),
    ("weight ladder equivalence", lambda m, pair: check_weight_ladder((0.01, 0.3, 0.8))),
    ("analytic vs ODE reflection", lambda m, pair: check_reflection_agreement(
        (*pair(), _integrate(m, m.omega2, -2.0 / 9.0, 1.0)))),
    ("Ermakov residual", lambda m, pair: check_wronskian_and_ermakov(pair()[0])),
    ("Berry connection limits", lambda m, pair: check_berry_limits(pair()[:1])),
    ("continuity equation", lambda m, pair: check_continuity(m, *pair(), (-0.5, 0.0, 1.5, 4.0))),
    ("snapshot positivity", lambda m, pair: check_snapshot_positivity(m, *pair(), 160)),
    ("shift zero", lambda m, pair: check_shift_zero([_integrate(m, m.omega1, 2.0 / 9.0, 0.5)])),
    ("overlap limits", lambda m, pair: check_overlap_limits(m)),
)


def run_validation() -> list[tuple[str, bool, str]]:
    """Run ``CHECKS`` on the reference model (omega0 = 3, lam = 3/8); ``pair()``
    integrates its mode trajectories (Lambda = 2/9, beta = 3) once, on first use."""
    m = derive_modes(ModelParams(3.0, 0.375))
    pair = functools.cache(lambda: [_integrate(m, om, 2.0 / 9.0, 3.0) for om in (m.omega1, m.omega2)])
    return [(name, *check(m, pair)) for name, check in CHECKS]
