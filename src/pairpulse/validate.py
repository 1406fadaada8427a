"""Self-contained invariant suite behind the ``validate`` CLI command.

Each check returns (name, passed, detail).  The suite favors breadth over
depth; the pytest suite carries the exhaustive versions with oracles.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, model, observables
from .dynamics import Pulse, analytic_reflection, extract_reflection, integrate_mode
from .model import ModelParams, derive_modes


def _check_mode_ordering():
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        w0 = float(rng.uniform(0.2, 8.0))
        lam = float(rng.uniform(1e-6, 0.5 - 1e-9))
        m = derive_modes(ModelParams(w0, lam))
        if not (m.omega2 < m.omega_d < m.omega_w < m.omega_e < m.omega1):
            return False, f"ordering violated at omega0={w0}, lam={lam}"
    return True, "strict for 200 random draws"


def _check_caption_frequencies():
    m = derive_modes(ModelParams(3.0, 0.375))
    ok = (
        m.omega2 == 1.5
        and abs(m.omega_e - 2.372) < 1e-3
        and abs(m.omega_w - 2.121) < 1e-3
        and abs(m.omega_d - 2.0) < 1e-3
    )
    return ok, f"omega2={m.omega2}, omega_e={m.omega_e:.4f}, omega_w={m.omega_w:.4f}, omega_d={m.omega_d}"


def _check_mehler_closure():
    m = derive_modes(ModelParams(3.0, 0.375))
    same, cross = model.mehler_coefficients(m.Z, m.omega_w)
    err = max(abs(same - (m.omega_d + m.D)), abs(cross - m.D))
    return err < 1e-12, f"max closure error {err:.2e}"


def _check_trace_identity():
    m = derive_modes(ModelParams(3.0, 0.375))
    spec = model.occupation_spectrum(m, 200)
    err = abs(float(np.sum(spec.weights**2)) - m.omega_d / m.omega_w)
    return err < 1e-10, f"|sum P_k^2 - omega_d/omega_w| = {err:.2e}"


def _check_spectral_oracle():
    m = derive_modes(ModelParams(3.0, 0.375))
    grid = model.GridSpec.for_modes(m, n_points=400)
    x = grid.points()
    kernel = model.gamma1_static(m, x[:, None], x[None, :]) * grid.spacing
    eigs = np.linalg.eigvalsh(kernel)[::-1]
    spec = model.occupation_spectrum(m, 10)
    err = float(np.max(np.abs(eigs[:11] - spec.weights)))
    return err < 1e-6, f"max |eig - P_k| = {err:.2e} for k <= 10"


def _check_weights_equivalence():
    for R in (0.01, 0.3, 0.8):
        tw = observables.transition_weights(R, 200)
        norm_err = abs(float(np.sum(tw.weights)) + tw.tail_bound - 1.0)
        shift_err = abs(observables.statistical_shift(tw, 1.0) - R / (1.0 - R))
        if norm_err > 1e-9 or shift_err > 1e-10:
            return False, f"R={R}: norm err {norm_err:.2e}, shift err {shift_err:.2e}"
    return True, "ladder sum matches closed form at R in {0.01, 0.3, 0.8}"


def _trajectories():
    m = derive_modes(ModelParams(3.0, 0.375))
    pulse = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
    t1 = integrate_mode(m.omega1, pulse, rtol=1e-11, atol=1e-13)
    t2 = integrate_mode(m.omega2, pulse, rtol=1e-11, atol=1e-13)
    return m, pulse, t1, t2


def _check_reflection_agreement(state):
    m, pulse, t1, t2 = state
    worst = 0.0
    for om, traj in ((m.omega1, t1), (m.omega2, t2)):
        worst = max(worst, abs(extract_reflection(traj).R - analytic_reflection(om, pulse).R))
    neg = Pulse(Lambda=-2.0 / 9.0, beta=1.0, omega0=3.0)
    traj = integrate_mode(m.omega2, neg, rtol=1e-11, atol=1e-13)
    worst = max(worst, abs(extract_reflection(traj).R - analytic_reflection(m.omega2, neg).R))
    return worst < 1e-6, f"max |R_ode - R_analytic| = {worst:.2e}"


def _check_wronskian_and_ermakov(state):
    m, pulse, t1, _ = state
    ts = np.linspace(t1.t_start + 1e-3, t1.t_end - 1e-3, 400)
    h = 1e-4
    B0, _, g0 = t1.state_at(ts)
    Bm, _, gm = t1.state_at(ts - h)
    Bp, _, gp = t1.state_at(ts + h)
    # gamma' B^2 = Omega0, the conserved oscillator Wronskian
    wr_err = float(np.max(np.abs((gp - gm) / (2 * h) * B0**2 - m.omega1)))
    Bdd = (Bp - 2 * B0 + Bm) / h**2
    o2 = m.omega1**2 + pulse.coupling * pulse.envelope(ts)
    resid = float(np.max(np.abs(Bdd + o2 * B0 - m.omega1**2 / B0**3)))
    ok = resid < 1e-6 and wr_err < 1e-6
    return ok, f"max Ermakov residual {resid:.2e}, Wronskian error {wr_err:.2e}"


def _check_berry_limits(state):
    m, pulse, t1, _ = state
    start = observables.berry_connection(t1, pulse, t1.t_start)
    end = observables.berry_connection(t1, pulse, t1.t_end)
    R = analytic_reflection(m.omega1, pulse).R
    err0 = abs(start - m.omega1 / 2.0)
    err1 = abs(end - 0.5 * m.omega1 * (1.0 + R) / (1.0 - R))
    return err0 < 1e-10 and err1 < 1e-6, f"start err {err0:.2e}, end err {err1:.2e}"


def _check_continuity(state):
    m, _, t1, t2 = state
    x = np.linspace(-8.0 / math.sqrt(m.omega_d), 8.0 / math.sqrt(m.omega_d), 256)
    worst = max(
        dynamics.continuity_residual(m, t1, t2, t, x) for t in (-0.5, 0.0, 1.5, 4.0)
    )
    return worst < 1e-6, f"max relative residual {worst:.2e}"


def _check_snapshot_positivity(state):
    m, _, t1, t2 = state
    hi = min(t1.t_end, t2.t_end)
    s = dynamics.onematrix_snapshot(m, t1, t2, np.linspace(t1.t_start, hi, 160))
    d_min, z_min, z_max = float(np.min(s.D_t)), float(np.min(s.Z_t)), float(np.max(s.Z_t))
    ok = d_min >= 0.0 and z_min >= 0.0 and z_max < 1.0
    return ok, f"min D(t) = {d_min:.2e} (>= 0), max Z(t) = {z_max:.2e} (< 1) at 160 times"


def _check_shift_zero():
    pulse = Pulse(Lambda=2.0 / 9.0, beta=0.5, omega0=3.0)
    traj = integrate_mode(3.0, pulse, rtol=1e-11, atol=1e-13)
    R = extract_reflection(traj).R
    return R < 1e-8, f"numeric R = {R:.2e} at the first shift zero"


def _check_overlap_limits():
    m = derive_modes(ModelParams(3.0, 0.375))
    null = Pulse(Lambda=0.0, beta=2.0, omega0=3.0)
    ok1 = abs(observables.overlap(m, null, "exact") - 1.0) < 1e-12
    m0 = derive_modes(ModelParams(3.0, 0.0))
    p0 = Pulse(Lambda=0.2, beta=2.0, omega0=3.0)
    ok2 = abs(
        observables.overlap(m0, p0, "exact") - observables.overlap(m0, p0, "ks")
    ) < 1e-12
    return ok1 and ok2, "unit overlap at Lambda=0; exact = ks at lam=0"


def run_validation() -> list[tuple[str, bool, str]]:
    """Run every invariant check; returns (name, passed, detail) rows."""
    results = []
    results.append(("mode-frequency ordering", *_check_mode_ordering()))
    results.append(("reference frequency table", *_check_caption_frequencies()))
    results.append(("kernel closure", *_check_mehler_closure()))
    results.append(("purity trace identity", *_check_trace_identity()))
    results.append(("occupation spectral oracle", *_check_spectral_oracle()))
    results.append(("weight ladder equivalence", *_check_weights_equivalence()))
    state = _trajectories()
    results.append(("analytic vs ODE reflection", *_check_reflection_agreement(state)))
    results.append(("Ermakov residual", *_check_wronskian_and_ermakov(state)))
    results.append(("Berry connection limits", *_check_berry_limits(state)))
    results.append(("continuity equation", *_check_continuity(state)))
    results.append(("snapshot positivity", *_check_snapshot_positivity(state)))
    results.append(("shift zero", *_check_shift_zero()))
    results.append(("overlap limits", *_check_overlap_limits()))
    return results
