import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from pairpulse import (
    IonizationRegimeError,
    ModelParams,
    Pulse,
    analytic_reflection,
    derive_modes,
)
from pairpulse import dynamics
from pairpulse.dynamics import (
    FIRST_STEP_ANGLE,
    MAX_STEPS,
    _propagators,
    _read,
    OneMatrixSnapshot,
    SnapshotSeries,
    Trajectory,
    continuity_residual,
    effective_potential,
    energy_expectation_ks,
    envelope,
    extract_reflection,
    integrate_mode,
    omega_squared,
    onematrix_snapshot,
    snapshot_series,
    trajectory_table,
)
from pairpulse.closed_form import occupation_spectrum
from pairpulse.model import gamma1_static

from conftest import BETA, BETA_GRID, LAMBDA, MODE_GRID, OMEGA0, mp_rho

_FREE = math.acosh(1e10)  # the envelope is below 1e-20 where 2 beta |t| > _FREE


def _invariant(traj, t):
    """K = (1/4 B^2) [1 + (B Bdot / Omega0)^2 + B^4], (1/2)(1+R)/(1-R) once the pulse is off."""
    B, Bdot, _ = traj.state_at(t)
    return 0.25 / B**2 * (1.0 + (B * Bdot / traj.mode_frequency) ** 2 + B**4)


class TestPulse:
    def test_envelope_peak_and_decay(self):
        p = Pulse(Lambda=0.1, beta=2.0, omega0=3.0)
        assert envelope(p, 0.0) == 1.0
        assert envelope(p, 1e3) == 0.0
        assert envelope(p, -1e3) == 0.0
        # sech^2(2*beta*t) at a hand value
        assert envelope(p, 0.25) == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-14)

    def test_center_is_a_constant(self):
        assert Pulse(Lambda=0.1, beta=2.0, omega0=3.0).t0 == 0.0
        with pytest.raises(TypeError):
            Pulse(Lambda=0.1, beta=2.0, omega0=3.0, t0=1.0)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Pulse(Lambda=0.1, beta=0.0, omega0=3.0)
        with pytest.raises(ValueError):
            Pulse(Lambda=float("nan"), beta=1.0, omega0=3.0)
        with pytest.raises(ValueError):
            Pulse(Lambda=0.1, beta=1.0, omega0=-3.0)
        for omega0 in (1e200, 1e-320):  # the coupling Lambda*omega0**2 overflowed or vanished
            with pytest.raises(ValueError, match="omega0 must lie in"):
                Pulse(Lambda=0.1, beta=1.0, omega0=omega0)


class TestOmegaSquared:
    def test_pulse_off_at_infinity(self, pulse_ref):
        assert omega_squared(2.0, pulse_ref, -1e4) == pytest.approx(4.0, abs=1e-15)
        assert omega_squared(2.0, pulse_ref, 1e4) == pytest.approx(4.0, abs=1e-15)

    def test_peak_values(self):
        p = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
        assert omega_squared(2.0, p, 0.0) == pytest.approx(6.0, rel=1e-14)
        m = Pulse(Lambda=-2.0 / 9.0, beta=3.0, omega0=3.0)
        assert omega_squared(1.5, m, 0.0) == pytest.approx(0.25, rel=1e-12)

    def test_flags_inverted_confinement(self):
        p = Pulse(Lambda=-2.0 / 9.0, beta=3.0, omega0=3.0)
        with pytest.raises(IonizationRegimeError):
            omega_squared(1.0, p, 0.0)


class TestIntegrateMode:
    def test_null_pulse_keeps_unit_width(self):
        p = Pulse(Lambda=0.0, beta=2.0, omega0=3.0)
        traj = integrate_mode(2.0, p)
        ts = np.linspace(traj.t_start, traj.t_end, 200)
        B, Bdot, _ = traj.state_at(ts)
        np.testing.assert_allclose(B, 1.0, atol=1e-9)
        np.testing.assert_allclose(Bdot, 0.0, atol=1e-8)

    def test_initial_conditions(self, traj_pair_ref):
        for traj in traj_pair_ref:
            assert traj.state_at(traj.t_start)[:2] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_phase_rate_positive_and_wronskian(self, traj_pair_ref):
        traj = traj_pair_ref[0]
        advance = np.diff(traj.state_at(traj.t)[2])
        assert np.all((advance > 0) & (advance < math.pi))
        ts = np.linspace(traj.t_start + 1e-3, traj.t_end - 1e-3, 300)
        h = 1e-4
        B, _, _ = traj.state_at(ts)
        _, _, gp = traj.state_at(ts + h)
        _, _, gm = traj.state_at(ts - h)
        gdot = (gp - gm) / (2 * h)
        np.testing.assert_allclose(gdot * B**2, traj.mode_frequency, atol=1e-7)

    def test_ermakov_residual_from_dense_output(self, traj_pair_ref, pulse_ref):
        traj = traj_pair_ref[0]
        ts = np.linspace(traj.t_start + 0.01, traj.t_end - 0.01, 400)
        h = 1e-4
        B0, _, _ = traj.state_at(ts)
        Bp, _, _ = traj.state_at(ts + h)
        Bm, _, _ = traj.state_at(ts - h)
        bdd = (Bp - 2 * B0 + Bm) / h**2
        o2 = traj.mode_frequency**2 + pulse_ref.coupling * envelope(pulse_ref, ts)
        residual = np.abs(bdd + o2 * B0 - traj.mode_frequency**2 / B0**3)
        assert float(np.max(residual)) < 1e-6

    def test_post_pulse_invariant_matches_analytic(self, traj_pair_ref, pulse_ref):
        traj = traj_pair_ref[0]
        K = _invariant(traj, traj.t_end)
        R = analytic_reflection(traj.mode_frequency, pulse_ref).R
        assert K == pytest.approx(0.5 * (1 + R) / (1 - R), abs=1e-9)

    def test_strong_reflection(self):
        # R = 0.994: B dips to 0.039, where xi turns fastest between nodes
        p = Pulse(Lambda=300.0 / 9.0, beta=10.0, omega0=3.0)
        traj = integrate_mode(0.5, p)
        assert extract_reflection(traj).R == pytest.approx(analytic_reflection(0.5, p).R, abs=1e-6)
        advance = np.diff(traj.state_at(traj.t)[2])
        assert np.all((advance > 0) & (advance < math.pi))

    @pytest.mark.parametrize("beta", [3.0, 0.5, 0.1])
    def test_node_states_follow_the_steps_in_order(self, beta):
        # the scan runs over each accepted step's product of its two halves,
        # and only the start-to-midpoint propagators are bit for bit the ones
        # integrate_mode applies; still, multiplying the node-to-node steps on
        # from the left, one at a time, must give its states, and
        # step_0 @ ... @ step_k would not
        p = Pulse(LAMBDA, beta, OMEGA0)
        traj = integrate_mode(OMEGA0, p)
        steps = np.array(_propagators(OMEGA0, p, traj.t[:-1], np.diff(traj.t))).T.reshape(-1, 2, 2)
        phase = OMEGA0 * traj.t_start
        X = np.array([[math.cos(phase), math.sin(phase)],
                      [-OMEGA0 * math.sin(phase), OMEGA0 * math.cos(phase)]])
        states = [X]
        for step in steps:
            states.append(X := step @ X)
        x, y, xd, yd = np.array(states).reshape(-1, 4).T
        B2 = x * x + y * y
        expected = [np.sqrt(B2), (x * xd + y * yd) / B2, (x * yd - y * xd) / B2]
        np.testing.assert_allclose(traj.state[:3], expected, rtol=0, atol=1e-13)

    def test_work_budget_rejects_slow_pulse_before_allocating(self):
        import tracemalloc

        p = Pulse(Lambda=LAMBDA, beta=1e-4, omega0=OMEGA0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"beta = 0.0001, Omega0 = 3.0 needs at least "
                                                 r"\d+ Magnus steps.*MAX_STEPS = \d+"):
                integrate_mode(OMEGA0, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("beta", [0.1, 3.0])
    def test_substeps_tile_failed_steps_and_kept_steps_pass(self, monkeypatch, beta):
        # every level's steps [lo, hi], recorded: a step that the next level
        # subdivides failed, and its substeps must tile it bit for bit; every
        # other step was kept as its two halves and must pass the check
        original, levels = dynamics._halves, []

        def recording(om, pulse, lo, hi):
            levels.append((lo.copy(), hi.copy()))
            return original(om, pulse, lo, hi)

        monkeypatch.setattr(dynamics, "_halves", recording)
        om, pulse = 3.0, Pulse(0.225, beta, 3.0)
        traj = integrate_mode(om, pulse)
        kept = []
        for (plo, phi), (lo, hi) in zip(levels, levels[1:] + [(np.empty(0), np.empty(0))]):
            order = np.argsort(plo)
            plo, phi = plo[order], phi[order]
            parent = np.searchsorted(plo, lo, side="right") - 1
            assert np.all((plo[parent] <= lo) & (hi <= phi[parent]))
            split = np.zeros(len(plo), bool)
            split[parent] = True
            for k in np.flatnonzero(split):
                sub_lo, sub_hi = np.sort(lo[parent == k]), np.sort(hi[parent == k])
                assert len(sub_lo) >= 2 and sub_lo[0] == plo[k] and sub_hi[-1] == phi[k]
                assert np.array_equal(sub_hi[:-1], sub_lo[1:])
            kept.append((plo[~split], phi[~split]))
        lo, hi = (np.concatenate(v) for v in zip(*kept))
        mid = lo + 0.5 * (hi - lo)
        assert np.array_equal(np.sort(np.concatenate([lo, mid, [traj.t_end]])), traj.t)
        whole, first, second = (np.array(_propagators(om, pulse, t, h)).T.reshape(-1, 2, 2)
                                for t, h in ((lo, hi - lo), (lo, mid - lo), (mid, hi - mid)))
        err = np.max(np.abs(whole - second @ first) * np.array([[1.0, om], [1.0 / om, 1.0]]), axis=(1, 2))
        assert np.max(err) <= 1e-10 + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, 1e100], ids=["nan", "huge"])
    def test_bad_step_errors_end_in_the_work_budget(self, monkeypatch, bad):
        # a NaN step error bisects until MAX_STEPS rejects the grid; a huge one
        # asks for ~1e16 substeps, which are rejected before any array of that
        # level is built
        import tracemalloc

        original, sizes = dynamics._propagators, []

        def poisoned(om, pulse, t, h):
            sizes.append(np.size(t))
            core = np.abs(t) < 1.0 / pulse.beta
            return tuple(np.where(core, bad, u) for u in original(om, pulse, t, h))

        monkeypatch.setattr(dynamics, "_propagators", poisoned)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"beta = 3.0, Omega0 = 3.0 needs at least "
                                                 r"\d+ Magnus steps.*MAX_STEPS = \d+"):
                integrate_mode(OMEGA0, Pulse(LAMBDA, BETA, OMEGA0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # no level beyond the budget is evaluated: at most MAX_STEPS / 2 steps,
        # each with its two halves
        assert max(sizes) <= 3 * MAX_STEPS // 2
        assert peak < (64 * 2**20 if math.isnan(bad) else 100_000)

    @pytest.mark.parametrize("tol", [(1e-10, 1e-12), (1e-11, 1e-13)], ids=["default", "tight"])
    def test_ode_reflect_corners_take_at_most_three_passes(self, propagator_calls, tol):
        # the error-sized split: bisection took 4 passes at every default
        # corner of the ode_reflect benchmark and 4-5 at the tight tolerances
        passes = {}
        for om in (3.0, 1.5):
            for beta in (0.1, 0.3, 1.0, 3.0, 10.0):
                for Lambda in (0.225, -0.225):
                    propagator_calls.clear()
                    integrate_mode(om, Pulse(Lambda, beta, 3.0), *tol)
                    passes[om, beta, Lambda] = len(propagator_calls)
        assert {k: v for k, v in passes.items() if v > 3} == {}

    @pytest.mark.parametrize(
        "mode_frequency, Lambda, beta",
        [(3.0, 0.225, 0.1), (3.0, -0.225, 0.1), (OMEGA0, LAMBDA, 0.12)],
        ids=["ode_reflect-edge+", "ode_reflect-edge-", "beta0.12"],
    )
    def test_slow_pulses_stay_well_under_the_budget(self, mode_frequency, Lambda, beta):
        traj = integrate_mode(mode_frequency, Pulse(Lambda, beta, OMEGA0))
        assert len(traj.t) - 1 <= MAX_STEPS // 8

    @pytest.mark.parametrize("beta", [5300.0, 1e4])
    def test_sudden_pulses_integrate(self, beta):
        # a grid resolving 2 beta over the whole window would exceed MAX_STEPS here
        p = Pulse(LAMBDA, beta, OMEGA0)
        R = extract_reflection(integrate_mode(OMEGA0, p)).R
        assert abs(R - analytic_reflection(OMEGA0, p).R) < 1e-6

    @pytest.mark.parametrize("beta", [100.0, 1000.0])
    def test_sudden_pulses_refine_only_the_core(self, beta):
        # only the pulse core needs steps of order 1/(2 beta), so no grid that
        # is uniform at that scale passes
        traj = integrate_mode(1.5, Pulse(LAMBDA, beta, OMEGA0))
        assert len(traj.t) <= 1024

    def test_steps_advancing_past_pi_are_rejected(self, monkeypatch):
        # free-oscillation steps are exact at any width, so with first steps of
        # 7 rad the error check keeps halves of 3.5 rad; gamma would lose 2 pi
        # per such step, so the integrator must refuse the grid
        import pairpulse.dynamics as dynamics

        monkeypatch.setattr(dynamics, "FIRST_STEP_ANGLE", 7.0)
        with pytest.raises(RuntimeError, match=r"phase advance outside \(0, pi\)"):
            integrate_mode(2.0, Pulse(0.0, 2.0, OMEGA0))

    def test_rejects_inverted_confinement(self):
        p = Pulse(Lambda=-2.0 / 9.0, beta=3.0, omega0=3.0)
        with pytest.raises(IonizationRegimeError):
            integrate_mode(1.0, p)

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tolerance(self, name, tol):
        # a NaN tolerance used to hang the integrator; 0 and -1 were raised silently
        p = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            integrate_mode(1.5, p, **{name: tol})

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.5])
    def test_rejects_bad_mode_frequency(self, omega):
        p = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
        for f in (integrate_mode, analytic_reflection):
            with pytest.raises(ValueError, match="mode frequency must be > 0"):
                f(omega, p)

    def test_state_at_outside_range(self, traj_pair_ref):
        traj = traj_pair_ref[0]
        for bad in (traj.t_start - 1.0, traj.t_end + 1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="outside trajectory range"):
                traj.state_at(bad)
            with pytest.raises(ValueError, match="outside trajectory range"):
                traj.state_at(np.array([traj.t_start, bad]))

    def test_table_columns(self, traj_pair_ref):
        table = trajectory_table(traj_pair_ref[0], n=101)
        assert table.shape == (101, 4)
        assert table[0, 0] == traj_pair_ref[0].t_start
        assert table[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert trajectory_table(traj_pair_ref[0], n=0).shape == (0, 4)


class TestDomainEdges:
    @pytest.mark.parametrize("lam", [0.4999, 0.499999])
    @pytest.mark.parametrize("fraction", [0.5, -0.5, 1.0 - 1e-9, -(1.0 - 1e-9)])
    @pytest.mark.parametrize("rate", ["omega2", "reference"])
    def test_relative_mode_near_lam_half(self, lam, fraction, rate):
        # omega2 -> 0 as lam -> 1/2, so the window's SETTLE_PERIODS pi/omega2
        # grows; Lambda runs up to the bound (omega2/omega0)^2
        m = derive_modes(ModelParams(OMEGA0, lam))
        beta = m.omega2 if rate == "omega2" else BETA
        p = Pulse(fraction * (m.omega2 / m.omega1) ** 2, beta, OMEGA0)
        traj = integrate_mode(m.omega2, p)
        assert abs(extract_reflection(traj).R - analytic_reflection(m.omega2, p).R) < 1e-6
        # a few hundred nodes: the free oscillation plus the refined pulse core
        assert len(traj.t) <= 512
        # dense reads on the nodes and at 200 random times stay finite, with B > 0
        times = np.random.default_rng(17).uniform(traj.t_start, traj.t_end, 200)
        for t in (traj.t, times):
            B, Bdot, gamma = traj.state_at(t)
            assert np.all(np.isfinite([B, Bdot, gamma])) and np.all(B > 0.0)


def _magnus_by_expm(om, pulse, t, h):
    """The 6th-order Magnus step with generic 2 x 2 commutators and mpmath's expm
    at 30 digits."""
    mpmath = pytest.importorskip("mpmath")

    def comm(x, y):
        return x @ y - y @ x

    r = math.sqrt(15.0) / 10.0
    A1, A2, A3 = (
        np.array([[0.0, 1.0], [-(om * om + pulse.coupling * envelope(pulse, t + c * h)), 0.0]])
        for c in (0.5 - r, 0.5, 0.5 + r)
    )
    a1, a2, a3 = h * A2, math.sqrt(15.0) / 3.0 * h * (A3 - A1), 10.0 / 3.0 * h * (A3 - 2.0 * A2 + A1)
    c1 = comm(a1, a2)
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    exponent = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(exponent.tolist())).tolist(), dtype=float)


class TestMagnusStep:
    def test_closed_form_matches_generic_exponential(self):
        # admissible drives only, Omega0^2 + Lambda omega0^2 > 0, every third
        # one at (1 - 1e-12) of that bound, and steps no longer than the first
        # grid's, which is where the elliptic exponent is proven
        rng = np.random.default_rng(11)
        for i in range(60):
            om, beta = rng.uniform(0.3, 4.0), rng.uniform(0.1, 10.0)
            bound = (om / 3.0) ** 2
            Lam = -(1.0 - 1e-12) * bound if i % 3 == 0 else rng.uniform(-bound, 1.0)
            pulse = Pulse(Lam, beta, 3.0)
            t = rng.uniform(-2.0, 2.0, 4) / beta
            h_max = FIRST_STEP_ANGLE / math.sqrt(om**2 + max(pulse.coupling, 0.0))
            h = np.array([0.0, *rng.uniform(0.0, h_max, 3)])
            got = np.array(_propagators(om, pulse, t, h)).T.reshape(-1, 2, 2)
            for k in range(len(t)):
                np.testing.assert_allclose(got[k], _magnus_by_expm(om, pulse, t[k], h[k]),
                                           rtol=1e-13, atol=1e-14)


def _exact_states(traj, times):
    """(B, Bdot, gamma mod 2 pi) of the exact solution of traj's mode equation.

    An oracle that shares no code with the Magnus path, from the Poschl-Teller
    problem (Landau & Lifshitz, QM section 25, problem 4).  With alpha = 2 beta,
    kappa = Omega0/alpha, s (s + 1) = Lambda omega0^2 / alpha^2 and
    z = 1/(1 + exp(-2 alpha t)), so that dz/dt = 2 alpha z (1 - z), the solution
    that is exp(i Omega0 t) before the pulse is xi = conj(g), with
    g = (z (1 - z))^(-i kappa/2) 2F1(-i kappa - s, -i kappa + s + 1; 1 - i kappa; z).
    As z -> 1, 2F1 loses about 2 alpha t / ln 10 digits, which the working
    precision adds back.  For |t| >= t1 the envelope is below 1e-20: before the
    pulse xi = exp(i Omega0 t), after it the free oscillation from t1.
    """
    mpmath = pytest.importorskip("mpmath")
    om, beta, pulse = traj.mode_frequency, traj.pulse.beta, traj.pulse
    t1 = _FREE / (2.0 * beta)

    def exact(t):
        with mpmath.workdps(20 + 4.0 * beta * max(t, 0.0) / math.log(10.0)):
            alpha, kappa = 2 * mpmath.mpf(beta), mpmath.mpf(om) / (2.0 * beta)
            s = (mpmath.sqrt(1 + mpmath.mpf(pulse.Lambda) * (mpmath.mpf(pulse.omega0) / beta) ** 2) - 1) / 2
            a, b, c = -1j * kappa - s, -1j * kappa + s + 1, 1 - 1j * kappa
            e = mpmath.exp(-2 * alpha * mpmath.mpf(t))
            z, zc = 1 / (1 + e), e / (1 + e)  # z and 1 - z without cancellation
            phase = mpmath.exp(-0.5j * kappa * mpmath.log(z * zc))
            F = mpmath.hyp2f1(a, b, c, z)
            dF = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)
            dg = phase * (-1j * om * (zc - z) * F + 2 * alpha * z * zc * dF)
            return complex(mpmath.conj(phase * F)), complex(mpmath.conj(dg))

    xi = np.exp(1j * om * times)
    dxi = 1j * om * xi
    for i in np.flatnonzero(np.abs(times) < t1):
        xi[i], dxi[i] = exact(times[i])
    x1, d1 = exact(t1)
    after = times >= t1
    c, s = np.cos(om * (times[after] - t1)), np.sin(om * (times[after] - t1))
    xi[after], dxi[after] = x1 * c + d1 / om * s, d1 * c - om * x1 * s
    B = np.abs(xi)
    return B, (xi.conj() * dxi).real / B, np.angle(xi) % (2.0 * np.pi)


def _assert_exact(traj, times, got):
    """got = traj.state_at(times) holds B, Bdot and gamma mod 2 pi within 1e-8 of
    _exact_states, and gamma itself within 1e-8 of Omega0 t before the pulse."""
    d = np.array(got) - _exact_states(traj, times)
    d[2] = (d[2] + np.pi) % (2.0 * np.pi) - np.pi
    before = times <= -_FREE / (2.0 * traj.pulse.beta)
    worst = [*np.max(np.abs(d), axis=1), np.max(np.abs(got[2] - traj.mode_frequency * times)[before])]
    assert max(worst) < 1e-8, f"max |Magnus - exact| of B, Bdot, gamma mod 2 pi, gamma before: {worst}"


def _domain_draws(rng, n, edge_every=0):
    """n seeded (Omega0, pulse) draws over the admissible domain: omega0
    log-uniform on [0.3, 10], lam on [0, 0.499), |Lambda| up to 0.999 of the
    bound (omega2/omega0)^2 of either sign, either mode and beta/Omega0
    log-uniform on [0.05, 10]; every edge_every-th draw, if any, puts |Lambda|
    at (1 - 1e-9) of the bound."""
    for i in range(n):
        omega0, lam = 0.3 * (10.0 / 0.3) ** rng.random(), 0.499 * rng.random()
        m = derive_modes(ModelParams(omega0, lam))
        sign, fraction = rng.choice((1.0, -1.0)), 0.999 * rng.random()
        if edge_every and i % edge_every == 0:
            fraction = 1.0 - 1e-9
        om = rng.choice((m.omega1, m.omega2))
        Lam = sign * fraction * (m.omega2 / m.omega1) ** 2
        yield om, Pulse(Lam, om * 0.05 * 200.0 ** rng.random(), omega0)


@pytest.fixture(scope="module")
def grid_trajectories():
    """The acceptance grid's trajectories at the default tolerances, by (sign, beta, Omega0)."""
    return {
        (sign, beta, om): integrate_mode(om, Pulse(sign * LAMBDA, beta, OMEGA0))
        for sign in (1.0, -1.0)
        for beta in BETA_GRID
        for om in MODE_GRID
    }


class TestDenseOutput:
    @pytest.mark.parametrize(
        "mode_frequency, Lambda, beta, tol",
        [
            (OMEGA0, LAMBDA, BETA, (1e-11, 1e-13)),
            (1.5, LAMBDA, BETA, (1e-11, 1e-13)),
            (OMEGA0, LAMBDA, 0.12, (1e-10, 1e-12)),
            (1.5, -LAMBDA, 0.7, (1e-10, 1e-12)),
        ],
        ids=["reference-mode1", "reference-mode2", "beta0.12", "negative-Lambda"],
    )
    def test_state_at_equals_scipy_dense_output(self, mode_frequency, Lambda, beta, tol):
        # against _exact_states (the name predates it): every free point of the
        # 2001-point grid, the ends, 24 nodes and 24 random times inside +-t1
        traj = integrate_mode(mode_frequency, Pulse(Lambda, beta, OMEGA0), *tol)
        t1 = _FREE / (2.0 * beta)
        grid, nodes = np.linspace(traj.t_start, traj.t_end, 2001), traj.t[np.abs(traj.t) < t1]
        times = np.concatenate([grid[np.abs(grid) >= t1], [traj.t_start, traj.t_end],
                                nodes[:: -(-len(nodes) // 24)], np.random.default_rng(7).uniform(-t1, t1, 24)])
        got = traj.state_at(times)
        _assert_exact(traj, times, got)
        for i in list(range(0, len(times), 41)) + [len(times) - 1]:
            scalar = traj.state_at(float(times[i]))
            assert all(type(v) is np.float64 for v in scalar)
            assert scalar == tuple(column[i] for column in got)

    def test_state_at_matches_dop853_oracle(self, grid_trajectories):
        # the 50-point acceptance grid at the default tolerances, against
        # _exact_states (the name predates it): 4 free times, 8 inside +-t1 each
        rng = np.random.default_rng(29)
        for sign in (1.0, -1.0):
            for beta in BETA_GRID:
                t1 = _FREE / (2.0 * beta)
                for om in MODE_GRID:
                    traj = grid_trajectories[sign, beta, om]
                    times = np.array([traj.t_start, -t1, t1, traj.t_end, *rng.uniform(-t1, t1, 8)])
                    _assert_exact(traj, times, traj.state_at(times))

    def test_state_at_matches_exact_over_the_domain(self):
        # 24 draws of _domain_draws, every fourth at (1 - 1e-9) of the bound,
        # read at t_start, +-t1, t_end and 4 random times inside +-t1; the
        # worst reads 9.9e-11.  Each grid meets the premise of the proof at
        # FIRST_STEP_ANGLE that every step's exponent is elliptic.
        assert FIRST_STEP_ANGLE <= 1.0
        times_rng = np.random.default_rng(2033)
        for om, p in _domain_draws(random.Random(2033), 24, edge_every=4):
            traj = integrate_mode(om, p)
            peak = math.sqrt(om**2 + max(p.coupling, 0.0))
            assert np.max(np.diff(traj.t)) * peak <= FIRST_STEP_ANGLE * (1.0 + 1e-12)
            t1 = _FREE / (2.0 * p.beta)
            times = np.array([traj.t_start, -t1, t1, traj.t_end, *times_rng.uniform(-t1, t1, 4)])
            _assert_exact(traj, times, traj.state_at(times))

    @pytest.mark.parametrize("om", [3.0, 1.5])
    @pytest.mark.parametrize("Lambda", [0.225, -0.225])
    def test_midpoint_nodes_match_exact_on_slow_pulses(self, om, Lambda):
        # each midpoint state comes from its step's start by the first half
        # step, off the scan: 16 seeded midpoint nodes and t_start at the
        # ode_reflect benchmark's slowest corners
        traj = integrate_mode(om, Pulse(Lambda, 0.1, 3.0))
        mids = np.random.default_rng(34).choice(traj.t[1::2], 16, replace=False)
        times = np.concatenate([[traj.t_start], mids])
        _assert_exact(traj, times, traj.state_at(times))

    def test_scalar_reads_are_numpy_scalars(self, traj_pair_ref):
        traj = traj_pair_ref[0]
        times = np.concatenate([traj.t[::97], np.linspace(traj.t_start, traj.t_end, 13)])
        table = traj.state_at(times)
        for i, t in enumerate(times.tolist()):
            got = traj.state_at(t)
            assert all(type(v) is np.float64 for v in got)
            assert got == tuple(column[i] for column in table)

    def test_trajectory_and_series_are_frozen(self, modes_ref, pulse_ref):
        # a changed t_end would also change what extract_reflection checks
        traj = Trajectory(OMEGA0, pulse_ref, np.zeros(1), 0.0, 0.0, np.zeros((4, 1)))
        series = SnapshotSeries(modes_ref, pulse_ref, np.zeros(1), [], 1.0)
        for obj, name in ((traj, "t_end"), (traj, "state"), (series, "spacing"), (series, "snapshots")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 5.0)
        # and the arrays integrate_mode and snapshot_series store are read-only:
        # (scaling the last B by 1.01 would move extract_reflection's R by 14%)
        t1, t2 = (integrate_mode(om, pulse_ref) for om in (modes_ref.omega1, modes_ref.omega2))
        series = snapshot_series(modes_ref, t1, t2, 0.0, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            t1.state[0, -1] *= 1.01
        for array in (t1.t, t2.state, series.times):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0


class TestExtractReflection:
    def test_null_pulse_zero_reflection(self):
        p = Pulse(Lambda=0.0, beta=2.0, omega0=3.0)
        res = extract_reflection(integrate_mode(2.0, p))
        assert res.R == pytest.approx(0.0, abs=1e-10)

    def test_invariant_constant_at_late_times(self, traj_pair_ref):
        traj = traj_pair_ref[0]
        late = np.linspace(traj.t_end - 4.0, traj.t_end, 10)
        ks = np.array([_invariant(traj, t) for t in late])
        assert float(np.max(ks) - np.min(ks)) < 1e-8

    def test_matches_analytic_at_reference_point(self, traj_pair_ref, pulse_ref):
        for traj in traj_pair_ref:
            r_ode = extract_reflection(traj).R
            r_an = analytic_reflection(traj.mode_frequency, pulse_ref).R
            assert r_ode == pytest.approx(r_an, abs=1e-9)

    def test_fitted_cosine_reproduces_width(self, traj_pair_ref):
        # B^2(t) = (1+R)/(1-R) - 2 sqrt(R)/(1-R) cos(2 Omega0 t + delta), with
        # R from the invariant and delta fitted over the last five periods
        traj = traj_pair_ref[0]
        om, R = traj.mode_frequency, extract_reflection(traj).R
        fit = np.linspace(traj.t_end - 5.0 * math.pi / om, traj.t_end, 512)
        design = np.column_stack([np.ones_like(fit), np.cos(2 * om * fit), np.sin(2 * om * fit)])
        (_, c1, c2), *_ = np.linalg.lstsq(design, traj.state_at(fit)[0] ** 2, rcond=None)
        delta = math.atan2(c2, -c1)
        ts = np.linspace(traj.t_end - 3.0, traj.t_end, 64)
        B, _, _ = traj.state_at(ts)
        predicted = (1 + R) / (1 - R) - 2 * math.sqrt(R) / (1 - R) * np.cos(
            2 * om * ts + delta
        )
        np.testing.assert_allclose(B**2, predicted, atol=1e-8)

    @pytest.mark.parametrize("B_end,error", [
        (math.nan, RuntimeError),  # K = NaN
        (math.inf, RuntimeError),  # K = NaN
        (1e-160, RuntimeError),  # 1/B^2 overflows: K = inf
        (1e-9, IonizationRegimeError),  # K = 2.5e17: (2K - 1)/(2K + 1) rounds to 1
    ])
    def test_rejects_unphysical_end_state(self, B_end, error):
        # one node at t_end, so the invariant is read from B_end itself
        p = Pulse(Lambda=0.1, beta=2.0, omega0=3.0)
        state = np.array([[B_end], [0.0], [0.0], [0.0]])
        traj = Trajectory(mode_frequency=2.0, pulse=p, t=np.array([20.0]), t_start=-10.0,
                          t_end=20.0, state=state)
        with np.errstate(all="ignore"), pytest.raises(error):
            extract_reflection(traj)

    def test_matches_analytic_over_the_domain(self):
        # 60 draws of _domain_draws; the worst reads 4.9e-12
        worst = (0.0,)
        for om, p in _domain_draws(random.Random(2031), 60):
            dR = abs(extract_reflection(integrate_mode(om, p)).R - analytic_reflection(om, p).R)
            worst = max(worst, (dR, om, p), key=lambda w: w[0])
        assert worst[0] <= 1e-9, worst

    def test_rejects_trajectory_ending_inside_pulse(self):
        p = Pulse(Lambda=0.1, beta=2.0, omega0=3.0)
        traj = Trajectory(mode_frequency=2.0, pulse=p, t=np.array([1.0]), t_start=-10.0,
                          t_end=1.0, state=np.array([[1.0], [0.0], [0.0], [0.0]]))
        with pytest.raises(ValueError, match="does not extend beyond the pulse support"):
            extract_reflection(traj)


class TestAnalyticReflection:
    def test_null_pulse(self):
        p = Pulse(Lambda=0.0, beta=2.0, omega0=3.0)
        assert analytic_reflection(2.0, p).R == 0.0
        # sinh v overflows at v = 1500 pi: 0 / sinh v is taken as 0, not as NaN
        assert analytic_reflection(3.0, Pulse(Lambda=0.0, beta=1e-3, omega0=3.0)).R == 0.0

    def test_zeros_at_odd_square_resonances(self):
        # (2n+1)^2 = 1 + Lambda*omega0^2/beta^2 kills the reflection; the
        # cosine's rounding residue there must not leak into R
        for n in (1, 2, 3, 10):
            beta = math.sqrt(2.0 / ((2 * n + 1) ** 2 - 1))
            p = Pulse(Lambda=2.0 / 9.0, beta=beta, omega0=3.0)
            assert analytic_reflection(2.0, p).R == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_extended_precision_near_the_bound(self, modes_ref, sign):
        # relative error against 50 digits from slow (beta = 1e-3) to sudden
        # (1e7) pulses with |Lambda| 1e-12 below (omega2/omega0)^2; the cosine
        # of (pi/2) sqrt(1 + e) lost 1.4e-7 at beta = 1e5 and 5e-4 at 1e7.  A
        # subnormal R only keeps its absolute spacing.
        mpmath = pytest.importorskip("mpmath")
        Lam = sign * ((modes_ref.omega2 / modes_ref.omega1) ** 2 - 1e-12)
        worst = {}
        with mpmath.workdps(50):
            for k in range(41):
                p = Pulse(Lambda=Lam, beta=10.0 ** (-3.0 + k / 4.0), omega0=OMEGA0)
                for om in (modes_ref.omega1, modes_ref.omega2, modes_ref.omega_e,
                           modes_ref.omega_d, modes_ref.omega_w):
                    rho = mp_rho(mpmath, om, p.Lambda, p.beta, p.omega0)
                    exact = rho / (1 + rho)
                    err = abs(analytic_reflection(om, p).R - exact) / max(exact, sys.float_info.min)
                    worst[p.beta] = max(worst.get(p.beta, 0.0), float(err))
        assert {b: e for b, e in worst.items() if not e <= 1e-12} == {}

    def test_reference_value_frozen_from_ode_oracle(self, pulse_ref):
        # ODE pipeline at rtol 1e-11 gives R = 0.017147968811; Eq. value frozen
        res = analytic_reflection(2.0, pulse_ref)
        assert res.R == pytest.approx(0.01714796881103318, abs=1e-9)
        assert 2.0 * res.R / (1.0 - res.R) == pytest.approx(0.034894304059765936, abs=2e-9)

    def test_cosh_branch_continuity(self):
        # radicand crosses zero at beta = sqrt(|coupling|) for Lambda < 0
        beta_c = math.sqrt(2.0)
        eps = 1e-8
        vals = [
            analytic_reflection(2.0, Pulse(Lambda=-2.0 / 9.0, beta=b, omega0=3.0)).R
            for b in (beta_c - eps, beta_c, beta_c + eps)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=1e-5)
        assert vals[2] == pytest.approx(vals[1], rel=1e-5)

    def test_extreme_rates_underflow_gracefully(self):
        # beta**2 underflows below ~1e-162 and overflows above ~1e154
        cases = [(1.5, Lam, beta) for beta in (1e-300, 1e-170, 1e-158, 1e-3, 1e5, 1e155, 1e300)
                 for Lam in (2.0 / 9.0, -2.0 / 9.0)]
        # a fast switch-on-and-off pulse excites nothing, unlike a one-sided quench
        cases.append((2.0, LAMBDA, 1e4))
        for om, Lam, beta in cases:
            r = analytic_reflection(om, Pulse(Lambda=Lam, beta=beta, omega0=3.0)).R
            assert 0.0 <= r < 1e-8

    def test_radicand_outside_float_range(self):
        # Lambda omega0^2 / beta^2 = 1e310 overflows; R is decided by the
        # sign of Omega0 - sqrt(max(-coupling, 0)) where that gap over beta is
        # large, and is rejected, naming beta, where it is not
        assert analytic_reflection(2.0, Pulse(Lambda=0.2, beta=1e-150, omega0=1e150)).R == 0.0
        assert analytic_reflection(2e150, Pulse(Lambda=-0.2, beta=1e-150, omega0=1e150)).R == 0.0
        with pytest.raises(IonizationRegimeError):
            analytic_reflection(1e-3, Pulse(Lambda=-1.0, beta=1e-5, omega0=1e150))
        with pytest.raises(ValueError, match="beta = 1e-05 is too small"):
            analytic_reflection(1e-3, Pulse(Lambda=1.0, beta=1e-5, omega0=1e150))
        # a mode frequency so far below beta that (pi/2) Omega0 / beta underflows
        # to 0 has rho = (c / v)**2 beyond every float, not R = 0
        for om in (1e-300, 1e-320):
            with pytest.raises(IonizationRegimeError):
                analytic_reflection(om, Pulse(Lambda=0.2, beta=1e10, omega0=3.0))
        # rho between 2**53 and the float maximum, where R = rho / (1 + rho) rounds to 1
        with pytest.raises(IonizationRegimeError):
            analytic_reflection(1e-10, Pulse(Lambda=0.2, beta=1.0, omega0=3.0))

    def test_cosh_numerator_and_infinite_v(self):
        # cosh u and sinh v both beyond the float range, with v = (pi/2) Omega0 / beta
        # itself infinite: rho is 0 from their logarithms, not inf / inf = NaN
        assert analytic_reflection(1e306, Pulse(Lambda=-0.2, beta=1e-3, omega0=3.0)).R == 0.0


@pytest.fixture(scope="module")
def traj_pair_free():
    """Both mode trajectories of the noninteracting model (lam = 0)."""
    m = derive_modes(ModelParams(OMEGA0, 0.0))
    p = Pulse(Lambda=LAMBDA, beta=BETA, omega0=OMEGA0)
    return m, integrate_mode(m.omega1, p), integrate_mode(m.omega2, p)


@pytest.fixture
def propagator_calls(monkeypatch):
    """Record the number of (t, h) entries of every Magnus-propagator call."""
    calls = []
    original = dynamics._propagators

    def counting(om, pulse, t, h):
        calls.append(np.size(h))
        return original(om, pulse, t, h)

    monkeypatch.setattr(dynamics, "_propagators", counting)
    return calls


def _range_error(trajs, t):
    """The ValueError text of the first trajectory whose own read of t fails."""
    for traj in trajs:
        try:
            traj.state_at(t)
        except ValueError as error:
            return str(error)
    return None


class TestPairRead:
    """One Magnus pass over several trajectories reads each as its own state_at does."""

    @staticmethod
    def _assert_own_reads(pair, times):
        B, Bdot, *_ = _read(pair, times)
        for traj, b, bdot in zip(pair, B.reshape(len(pair), -1), Bdot.reshape(len(pair), -1)):
            own = traj.state_at(times)
            assert b.tobytes() == own[0].tobytes() and bdot.tobytes() == own[1].tobytes()
        # a one-time read of the pair, against each trajectory's scalar read
        for t in times[:: max(1, len(times) // 8)].tolist():
            B, Bdot, *_ = _read(pair, np.array([t]))
            assert (B[0], Bdot[0], B[1], Bdot[1]) == (*pair[0].state_at(t)[:2], *pair[1].state_at(t)[:2])

    def test_grid_pairs_equal_own_reads(self, grid_trajectories):
        # every mode of the acceptance grid with the next one, so each pair's
        # t_end differ: nodes of both, the shared ends and random times
        rng = np.random.default_rng(30)
        for sign in (1.0, -1.0):
            for beta in BETA_GRID:
                row = [grid_trajectories[sign, beta, om] for om in MODE_GRID]
                for pair in zip(row, row[1:] + row[:1]):
                    lo, hi = pair[0].t_start, min(traj.t_end for traj in pair)
                    nodes = np.concatenate([traj.t[::5] for traj in pair])
                    times = np.concatenate([[lo, hi], nodes[nodes <= hi], rng.uniform(lo, hi, 64)])
                    self._assert_own_reads(pair, times)

    def test_reference_and_noninteracting_pairs(self, traj_pair_ref, traj_pair_free):
        # lam = 0 gives both modes the same frequency
        for pair in (traj_pair_ref, traj_pair_free[1:]):
            hi = min(traj.t_end for traj in pair)
            times = np.concatenate([pair[0].t[pair[0].t <= hi], [hi]])
            self._assert_own_reads(pair, times)

    def test_empty_read(self, modes_ref, traj_pair_ref):
        B, Bdot, *_ = _read(traj_pair_ref, np.empty(0))
        assert B.shape == Bdot.shape == (0,)
        snap = onematrix_snapshot(modes_ref, *traj_pair_ref, np.empty(0))
        assert all(column.shape == (0,) for column in snap)

    def test_2d_times_keep_their_shape(self, modes_ref, traj_pair_ref):
        times = np.linspace(-1.0, 2.0, 12)
        flat = onematrix_snapshot(modes_ref, *traj_pair_ref, times)
        for column, expected in zip(onematrix_snapshot(modes_ref, *traj_pair_ref, times.reshape(3, 4)), flat):
            assert column.shape == (3, 4) and column.ravel().tobytes() == expected.tobytes()

    def test_range_errors_match_own_reads(self, grid_trajectories):
        # a time between the two t_end lies inside one range only
        for sign in (1.0, -1.0):
            pair = (grid_trajectories[sign, 1.0, 3.0], grid_trajectories[sign, 1.0, 1.5])
            between = 0.5 * (pair[0].t_end + pair[1].t_end)
            for trajs in (pair, pair[::-1]):
                for bad in (pair[0].t_start - 1.0, between, pair[1].t_end + 1.0,
                            math.nan, math.inf, -math.inf):
                    times = np.array([0.0, bad])
                    expected = _range_error(trajs, times)
                    assert expected is not None
                    with pytest.raises(ValueError) as error:
                        _read(trajs, times)
                    assert str(error.value) == expected

    def test_snapshot_range_error_text(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        assert t1.t_end < t2.t_end
        for bad in (t1.t_end + 0.5 * (t2.t_end - t1.t_end), math.nan):
            for t in (bad, np.array([0.0, bad])):
                with pytest.raises(ValueError) as error:
                    onematrix_snapshot(modes_ref, t1, t2, t)
                assert str(error.value) == f"time outside trajectory range [{t1.t_start}, {t1.t_end}]"


class TestOneMatrixSnapshot:
    @pytest.mark.parametrize("pair", ["reference", "noninteracting"])
    def test_array_call_matches_scalar_calls(
        self, pair, modes_ref, traj_pair_ref, traj_pair_free
    ):
        if pair == "reference":
            m, (t1, t2) = modes_ref, traj_pair_ref
        else:
            m, t1, t2 = traj_pair_free
        times = np.linspace(t1.t_start, min(t1.t_end, t2.t_end), 97)
        table = onematrix_snapshot(m, t1, t2, times)
        for name in OneMatrixSnapshot._fields:
            assert getattr(table, name).shape == times.shape
        for i, t in enumerate(times):
            snap = onematrix_snapshot(m, t1, t2, t)
            for name in OneMatrixSnapshot._fields:
                value = getattr(snap, name)
                assert type(value) is float
                assert value == getattr(table, name)[i]

    def test_series_splits_one_array_call(self, modes_ref, traj_pair_ref, propagator_calls):
        t1, t2 = traj_pair_ref
        series = snapshot_series(modes_ref, t1, t2, -1.0, 2.0)
        # one Magnus pass over both trajectories at every time
        assert propagator_calls == [2 * len(series.times)]
        table = onematrix_snapshot(modes_ref, t1, t2, series.times)
        assert len(series.snapshots) == len(series.times)
        for i, snap in enumerate(series.snapshots):
            assert type(snap) is OneMatrixSnapshot
            assert snap == tuple(column[i] for column in table)
            for name in OneMatrixSnapshot._fields:
                value = getattr(snap, name)
                assert type(value) is float
                assert value == getattr(table, name)[i]

    def test_fields_are_fixed_and_immutable(self, modes_ref, traj_pair_ref):
        assert OneMatrixSnapshot._fields == ("t", "omega_d_t", "D_t", "alpha_t", "Z_t")
        t1, t2 = traj_pair_ref
        snap = onematrix_snapshot(modes_ref, t1, t2, 0.5)
        for name in OneMatrixSnapshot._fields:
            with pytest.raises(AttributeError):
                setattr(snap, name, 1.0)

    def test_continuity_reads_each_trajectory_once(
        self, modes_ref, traj_pair_ref, x_grid_ref, propagator_calls
    ):
        # one Magnus pass over both trajectories at the five stencil times
        t1, t2 = traj_pair_ref
        continuity_residual(modes_ref, t1, t2, 1.5, x_grid_ref)
        assert propagator_calls == [2 * 5]

    def test_start_reproduces_static(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        snap = onematrix_snapshot(modes_ref, t1, t2, t1.t_start)
        assert snap.omega_d_t == pytest.approx(modes_ref.omega_d, abs=1e-10)
        assert snap.D_t == pytest.approx(modes_ref.D, abs=1e-10)
        assert snap.alpha_t == pytest.approx(0.0, abs=1e-10)
        assert snap.Z_t == pytest.approx(modes_ref.Z, abs=1e-10)

    def test_noninteracting_modes_never_mix(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        p = Pulse(Lambda=LAMBDA, beta=BETA, omega0=3.0)
        t1 = integrate_mode(m.omega1, p)
        t2 = integrate_mode(m.omega2, p)
        for t in np.linspace(t1.t_start, min(t1.t_end, t2.t_end), 40):
            snap = onematrix_snapshot(m, t1, t2, t)
            assert abs(snap.D_t) < 1e-18
            assert abs(snap.Z_t) < 1e-18

    def test_pair_exponent_nonnegative_along_pulse(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        for t in np.linspace(t1.t_start, min(t1.t_end, t2.t_end), 300):
            snap = onematrix_snapshot(modes_ref, t1, t2, t)
            assert snap.D_t >= 0.0
            assert 0.0 <= snap.Z_t < 1.0

    def test_time_dependent_occupations_normalized(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        snap = onematrix_snapshot(modes_ref, t1, t2, 1.7)
        spec = occupation_spectrum(modes_ref._replace(Z=snap.Z_t), 60)
        assert spec.total() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(spec.weights) < 0)

    def test_purity_against_quadrature(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        for t in (0.0, 1.0, 4.0):
            snap = onematrix_snapshot(modes_ref, t1, t2, t)
            closed = (1.0 + 2.0 * snap.D_t / snap.omega_d_t) ** -0.5
            half = 8.0 / math.sqrt(snap.omega_d_t)
            x = np.linspace(-half, half, 400)
            # the phase of Gamma_1(t) has unit modulus: |Gamma_1(t)| is the static kernel
            g = gamma1_static(modes_ref._replace(omega_d=snap.omega_d_t, D=snap.D_t),
                              x[:, None], x[None, :])
            quad = np.trapezoid(np.trapezoid(g**2, x, axis=1), x)
            assert quad == pytest.approx(closed, abs=1e-9)

    def test_mismatched_pulses_rejected(self, modes_ref, traj_pair_ref):
        t1, _ = traj_pair_ref
        other = integrate_mode(
            modes_ref.omega2, Pulse(Lambda=LAMBDA, beta=2.0, omega0=OMEGA0)
        )
        with pytest.raises(ValueError):
            onematrix_snapshot(modes_ref, t1, other, 0.0)
        # the same pulse, but each trajectory at the other mode's frequency
        with pytest.raises(ValueError, match="do not match the model mode frequencies"):
            onematrix_snapshot(modes_ref, *traj_pair_ref[::-1], 0.0)


class TestContinuityEquation:
    """The density of the time-dependent one-matrix obeys the continuity equation."""

    def test_continuity_default_step_at_strong_fast_pulse(self):
        # omega0 = 3.5, |Lambda| near its bound 0.9, beta = 4: a fixed
        # dt = 5e-3 gave 1.15e-6 at the fastest-moving in-pulse time
        m = derive_modes(ModelParams(3.5, 0.05))
        p = Pulse(Lambda=0.81, beta=4.0, omega0=3.5)
        t1 = integrate_mode(m.omega1, p, rtol=1e-11, atol=1e-13)
        t2 = integrate_mode(m.omega2, p, rtol=1e-11, atol=1e-13)
        ts = np.linspace(p.t0 - 1.0 / p.beta, p.t0 + 1.0 / p.beta, 401)
        od = onematrix_snapshot(m, t1, t2, ts).omega_d_t
        t = float(ts[np.argmax(np.abs(np.gradient(od, ts)))])
        half = 8.0 / math.sqrt(m.omega_d)
        x = np.linspace(-half, half, 256)
        assert continuity_residual(m, t1, t2, t, x) < 1e-6

    def test_continuity_default_step_at_reference(self, modes_ref, traj_pair_ref, x_grid_ref):
        t1, t2 = traj_pair_ref
        for t in (-0.5, 0.0, 1.5, 4.0):
            assert continuity_residual(modes_ref, t1, t2, t, x_grid_ref) == continuity_residual(
                modes_ref, t1, t2, t, x_grid_ref, dt=5e-3
            )

    @pytest.mark.parametrize("dt", [0.0, -5e-3, math.nan, math.inf])
    def test_continuity_rejects_bad_step(self, modes_ref, traj_pair_ref, x_grid_ref, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            continuity_residual(modes_ref, *traj_pair_ref, 0.0, x_grid_ref, dt=dt)

    def test_current_sign_convention(self, modes_ref, traj_pair_ref, x_grid_ref):
        # with the sign of alpha flipped the residual is O(1), not O(1e-6)
        t1, t2 = traj_pair_ref
        t, dt = 1.5, 5e-3
        x = x_grid_ref

        def dens(tt):
            od = onematrix_snapshot(modes_ref, t1, t2, tt).omega_d_t
            return np.sqrt(od / np.pi) * np.exp(-od * x * x)

        dndt = (dens(t - 2 * dt) - 8 * dens(t - dt) + 8 * dens(t + dt) - dens(t + 2 * dt)) / (
            12 * dt
        )
        snap = onematrix_snapshot(modes_ref, t1, t2, t)
        n = np.sqrt(snap.omega_d_t / np.pi) * np.exp(-snap.omega_d_t * x * x)
        djdx = snap.alpha_t * n * (1 - 2 * snap.omega_d_t * x * x)
        flipped = np.max(np.abs(dndt - djdx)) / np.max(np.abs(dndt))
        assert flipped > 1.0


@pytest.fixture(scope="module")
def series_ref(modes_ref, traj_pair_ref):
    t1, t2 = traj_pair_ref
    return snapshot_series(modes_ref, t1, t2, -1.0, 6.0)


class TestEffectivePotential:
    def test_preoptimized_reduces_to_static_after_pulse(self, series_ref, modes_ref):
        x = np.array([0.7, 1.3])
        v = effective_potential(series_ref, x, 5.9, "preoptimized")
        np.testing.assert_allclose(v, 0.5 * modes_ref.omega_d**2 * x**2, rtol=1e-10)

    def test_preoptimized_identity_along_trajectory(self, modes_ref, pulse_ref):
        # (1/2)x^2[omega_d^2/B^4 - B''/B] equals the closed form; B'' from
        # central differences of the density-optimal mode trajectory
        traj_d = integrate_mode(modes_ref.omega_d, pulse_ref, rtol=1e-11, atol=1e-13)
        t1 = integrate_mode(modes_ref.omega1, pulse_ref)
        t2 = integrate_mode(modes_ref.omega2, pulse_ref)
        series = snapshot_series(modes_ref, t1, t2, -1.0, 2.0)
        x = 1.1
        h = 1e-4
        for t in (-0.8, -0.2, 0.0, 0.4, 1.6):
            B0 = float(traj_d.state_at(t)[0])
            bdd = float((traj_d.state_at(t + h)[0] - 2 * B0 + traj_d.state_at(t - h)[0]) / h**2)
            lhs = 0.5 * x**2 * (modes_ref.omega_d**2 / B0**4 - bdd / B0)
            rhs = float(effective_potential(series, x, t, "preoptimized"))
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_inverted_equals_preoptimized_without_interaction(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        p = Pulse(Lambda=LAMBDA, beta=BETA, omega0=3.0)
        t1 = integrate_mode(m.omega1, p, rtol=1e-11, atol=1e-13)
        t2 = integrate_mode(m.omega2, p, rtol=1e-11, atol=1e-13)
        series = snapshot_series(m, t1, t2, -1.0, 2.0)
        x = np.array([0.5, 1.5])
        for t in (-0.6, 0.0, 0.9, 1.8):
            vi = effective_potential(series, x, t, "inverted")
            vp = effective_potential(series, x, t, "preoptimized")
            np.testing.assert_allclose(vi, vp, atol=1e-7)

    def test_stencil_edges_rejected(self, series_ref):
        with pytest.raises(ValueError):
            effective_potential(series_ref, 1.0, series_ref.times[0], "inverted")
        with pytest.raises(ValueError):
            effective_potential(series_ref, 1.0, series_ref.times[-1], "inverted")

    def test_unknown_variant_rejected(self, series_ref):
        with pytest.raises(ValueError):
            effective_potential(series_ref, 1.0, 0.0, "adiabatic")


class TestEnergyExpectation:
    def test_static_limit(self):
        # stencil second derivative amplifies dense-output noise by 1/h^2,
        # which sets the ~1e-7 floor here
        m = derive_modes(ModelParams(3.0, 0.0))
        p = Pulse(Lambda=1e-30, beta=BETA, omega0=3.0)
        t1 = integrate_mode(m.omega1, p, rtol=1e-12, atol=1e-14)
        t2 = integrate_mode(m.omega2, p, rtol=1e-12, atol=1e-14)
        series = snapshot_series(m, t1, t2, -1.0, 1.0)
        val = energy_expectation_ks(series, 0.0)
        assert val == pytest.approx(m.E0, abs=1e-6)

    def test_noninteracting_late_time_matches_mode_shift(self):
        # without mode mixing the description is exact: the late-time value
        # is constant and equals omega0/2 + shift per particle
        m = derive_modes(ModelParams(3.0, 0.0))
        p = Pulse(Lambda=LAMBDA, beta=BETA, omega0=3.0)
        t1 = integrate_mode(m.omega1, p, rtol=1e-11, atol=1e-13)
        t2 = integrate_mode(m.omega2, p, rtol=1e-11, atol=1e-13)
        hi = min(t1.t_end, t2.t_end) - 0.05
        series = snapshot_series(m, t1, t2, hi - 3.0, hi)
        R = analytic_reflection(m.omega1, p).R
        expected = 2.0 * (m.omega1 / 2.0 + m.omega1 * R / (1.0 - R))
        vals = [energy_expectation_ks(series, t) for t in np.linspace(hi - 2.5, hi - 0.5, 30)]
        assert float(np.max(np.abs(np.asarray(vals) - expected))) < 1e-6

    def test_correlated_late_time_oscillates_off_exact_total(
        self, modes_ref, pulse_ref, traj_pair_ref
    ):
        t1, t2 = traj_pair_ref
        hi = min(t1.t_end, t2.t_end) - 0.05
        period = 2 * math.pi / modes_ref.omega2  # common period of both mode beats
        series = snapshot_series(modes_ref, t1, t2, hi - period - 0.2, hi)
        ts = np.linspace(hi - period - 0.1, hi - 0.1, 300)
        vals = np.array([energy_expectation_ks(series, t) for t in ts])
        R1 = analytic_reflection(modes_ref.omega1, pulse_ref).R
        R2 = analytic_reflection(modes_ref.omega2, pulse_ref).R
        exact_total = (
            modes_ref.E0
            + modes_ref.omega1 * R1 / (1.0 - R1)
            + modes_ref.omega2 * R2 / (1.0 - R2)
        )
        assert vals.max() - vals.min() > 1e-3
        assert abs(vals.mean() - exact_total) > 1e-2


class TestSnapshotSeries:
    def test_readers_snap_to_the_nearest_grid_time(self, series_ref):
        # energy_expectation_ks and the inverted potential read the grid time
        # nearest to t, as their docstrings say; reading t itself would move
        # these values
        x = np.array([0.4, 1.2])
        for t in np.random.default_rng(31).uniform(series_ref.times[2], series_ref.times[-3], 20):
            grid_t = series_ref.times[series_ref.index_at(t)]
            assert grid_t != t
            assert energy_expectation_ks(series_ref, t) == energy_expectation_ks(series_ref, grid_t)
            assert (effective_potential(series_ref, x, t, "inverted").tobytes()
                    == effective_potential(series_ref, x, grid_t, "inverted").tobytes())

    def test_uniform_spacing_default(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        series = snapshot_series(modes_ref, t1, t2, 0.0, 0.5)
        assert series.spacing == pytest.approx(min(0.01 / OMEGA0, 0.02 / BETA))
        np.testing.assert_allclose(np.diff(series.times), series.spacing, rtol=1e-9)

    def test_time_lookup_rejects_outside(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        series = snapshot_series(modes_ref, t1, t2, 0.0, 0.5)
        for bad in (1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not covered"):
                series.index_at(bad)

    def test_empty_window_rejected(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        with pytest.raises(ValueError):
            snapshot_series(modes_ref, t1, t2, 1.0, 1.0)

    def test_window_outside_trajectories_rejected(self, modes_ref, traj_pair_ref):
        t1, t2 = traj_pair_ref
        for lo, hi in ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1.0, t1.t_end + 1)):
            with pytest.raises(ValueError, match="outside trajectory range"):
                snapshot_series(modes_ref, t1, t2, lo, hi)
