import math
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
from pairpulse.dynamics import (
    MAX_STEPS,
    _propagators,
    OneMatrixSnapshot,
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

    @pytest.mark.parametrize("beta", [3.0, 0.5])
    def test_node_states_follow_the_steps_in_order(self, beta):
        # the node-to-node propagators are bit for bit the accepted half steps;
        # multiplying them on from the left, one at a time, must give the
        # prefix scan's states, and step_0 @ ... @ step_k would not
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
        rng = np.random.default_rng(11)
        cases = [(rng.uniform(0.3, 4.0), Pulse(rng.uniform(-0.2, 1.0), rng.uniform(0.1, 10.0), 3.0))
                 for _ in range(40)]
        # Omega^2 < 0 near the peak gives a hyperbolic exponent
        cases.append((0.1, Pulse(-2.0 / 9.0, 1.0, 3.0)))
        for om, pulse in cases:
            t = rng.uniform(-2.0, 2.0, 4) / pulse.beta
            h = np.array([0.0, *rng.uniform(0.0, 1.5, 3)]) / om
            got = np.array(_propagators(om, pulse, t, h)).T.reshape(-1, 2, 2)
            for k in range(len(t)):
                np.testing.assert_allclose(got[k], _magnus_by_expm(om, pulse, t[k], h[k]),
                                           rtol=1e-13, atol=1e-14)


def _dop853_solution(trajs):
    """scipy's DOP853 dense output at rtol 1e-13, atol 1e-15 for trajs, as a
    function of the time s in [0, 1] that maps onto each window.

    An oracle that shares no code with the Magnus path: the real 5-component
    form of the mode equation, with its own sech^2 envelope and the phase
    rate Omega0/B^2 as a quadrature.  All trajectories are integrated as one
    system in s, so one call serves the whole grid.  DOP853 bounds the RMS of
    the scaled error over all components, so one trajectory's share may
    exceed the tolerance by at most sqrt(5 * len(trajs)).
    """
    from scipy.integrate import solve_ivp

    om, start, span, coupling, beta, center = np.array([
        (tr.mode_frequency, tr.t_start, tr.t_end - tr.t_start, tr.pulse.coupling,
         tr.pulse.beta, tr.pulse.t0) for tr in trajs
    ]).T

    def rhs(s, y):
        re, im, red, imd, _ = y.reshape(5, -1)
        o2 = om * om + coupling / np.cosh(2.0 * beta * (start + s * span - center)) ** 2
        return (span * np.stack([red, imd, -o2 * re, -o2 * im, om / (re * re + im * im)])).ravel()

    c, s = np.cos(om * start), np.sin(om * start)
    y0 = np.concatenate([c, s, -om * s, om * c, om * start])
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    assert sol.success, sol.message
    return sol.sol


def _dop853_states(trajs, s):
    """(B, Bdot, gamma) of each trajectory at the normalized times s."""
    re, im, red, imd, gamma = _dop853_solution(trajs)(s).reshape(5, len(trajs), -1)
    B = np.hypot(re, im)
    return B, (re * red + im * imd) / B, gamma


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
        traj = integrate_mode(mode_frequency, Pulse(Lambda, beta, OMEGA0), *tol)
        rng = np.random.default_rng(7)
        times = np.concatenate(
            [
                np.linspace(traj.t_start, traj.t_end, 2001),
                traj.t,  # every node
                [traj.t_start, traj.t_end],
                rng.uniform(traj.t_start, traj.t_end, 1000),
            ]
        )
        got = traj.state_at(times)
        want = _dop853_states([traj], (times - traj.t_start) / (traj.t_end - traj.t_start))
        for name, g, w in zip(("B", "Bdot", "gamma"), got, want):
            worst = float(np.max(np.abs(g - w[0])))
            assert worst < 1e-8, f"{name}: max |Magnus - DOP853 dense output| = {worst:.2e}"
        for i in list(range(0, len(times), 41)) + [2001, len(times) - 1000 - 1]:
            scalar = traj.state_at(float(times[i]))
            assert all(type(v) is np.float64 for v in scalar)
            assert scalar == tuple(column[i] for column in got)

    def test_reads_do_not_call_scipy(self, modes_ref, pulse_ref, x_grid_ref, monkeypatch):
        import sys

        from scipy.integrate import DenseOutput, OdeSolution

        def forbidden(*args, **kwargs):
            raise AssertionError("integration or dense read went through scipy")

        monkeypatch.setattr(OdeSolution, "__call__", forbidden)
        monkeypatch.setattr(DenseOutput, "__call__", forbidden)
        # an import of scipy from here on raises ImportError
        for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
            monkeypatch.setitem(sys.modules, name, None)

        t1 = integrate_mode(modes_ref.omega1, pulse_ref)
        t2 = integrate_mode(modes_ref.omega2, pulse_ref)
        assert trajectory_table(t1).shape == (2001, 4)
        series = snapshot_series(modes_ref, t1, t2, -0.5, 0.5)
        assert len(series.snapshots) == len(series.times)
        assert continuity_residual(modes_ref, t1, t2, 0.1, x_grid_ref) < 1e-6
        assert extract_reflection(t1).R == pytest.approx(
            analytic_reflection(t1.mode_frequency, pulse_ref).R, abs=1e-8
        )

    def test_state_at_matches_dop853_oracle(self):
        # the 50-point acceptance grid at the default tolerances
        trajs = [
            integrate_mode(om, Pulse(sign * LAMBDA, beta, OMEGA0))
            for sign in (1.0, -1.0) for beta in BETA_GRID for om in MODE_GRID
        ]
        want = _dop853_states(trajs, np.linspace(0.0, 1.0, 2001))
        got = [traj.state_at(np.linspace(traj.t_start, traj.t_end, 2001)) for traj in trajs]
        for name, g, w in zip(("B", "Bdot", "gamma"), zip(*got), want):
            worst = float(np.max(np.abs(np.array(g) - w)))
            assert worst < 1e-8, f"{name}: max |Magnus - DOP853| = {worst:.2e}"

    def test_scalar_reads_are_numpy_scalars(self, traj_pair_ref):
        traj = traj_pair_ref[0]
        times = np.concatenate([traj.t[::97], np.linspace(traj.t_start, traj.t_end, 13)])
        table = traj.state_at(times)
        for i, t in enumerate(times.tolist()):
            got = traj.state_at(t)
            assert all(type(v) is np.float64 for v in got)
            assert got == tuple(column[i] for column in table)


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
def state_at_calls(monkeypatch):
    """Record the trajectory behind every Trajectory.state_at call."""
    calls = []
    original = Trajectory.state_at

    def counting(self, t):
        calls.append(self)
        return original(self, t)

    monkeypatch.setattr(Trajectory, "state_at", counting)
    return calls


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
                if name == "t":
                    assert value == getattr(table, name)[i]
                else:
                    assert value == pytest.approx(getattr(table, name)[i], rel=1e-12)

    def test_series_splits_one_array_call(self, modes_ref, traj_pair_ref, state_at_calls):
        t1, t2 = traj_pair_ref
        series = snapshot_series(modes_ref, t1, t2, -1.0, 2.0)
        assert state_at_calls == [t1, t2]
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
        self, modes_ref, traj_pair_ref, x_grid_ref, state_at_calls
    ):
        t1, t2 = traj_pair_ref
        continuity_residual(modes_ref, t1, t2, 1.5, x_grid_ref)
        assert state_at_calls.count(t1) <= 1
        assert state_at_calls.count(t2) <= 1

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
