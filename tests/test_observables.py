import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairpulse import (
    KINDS,
    EnergyShiftReport,
    ModelParams,
    Pulse,
    analytic_reflection,
    born_shift,
    derive_modes,
    energy_shift_report,
    mode_frequencies,
    overlap,
    sign_effect_rows,
    sudden_shift,
    total_shift,
)
from pairpulse import cli
from pairpulse.closed_form import ZERO_COS_RTOL
from pairpulse.dynamics import integrate_mode, omega_squared
from pairpulse.observables import berry_connection, statistical_shift, transition_weights

from conftest import LAM, LAMBDA, OMEGA0, mp_rho


class TestEnergyShift:
    def test_reference_value(self, modes_ref, pulse_ref):
        # frozen from the ODE oracle (rtol 1e-11): dE = 0.0348943040598 at Omega0 = 2,
        # which is omega_d of the reference model; ks counts it twice
        assert modes_ref.omega_d == 2.0
        shift = energy_shift_report(modes_ref, pulse_ref).ks / 2.0
        assert shift == pytest.approx(0.034894304059766, abs=1e-9)


class TestTotalShift:
    def test_noninteracting_all_kinds_equal(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        p = Pulse(Lambda=0.2, beta=2.0, omega0=3.0)
        vals = [total_shift(m, p, kind) for kind in ("exact", "hf", "ks", "natural")]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-13)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_model_ordering(self, modes_ref, sign):
        for beta in (0.3, 0.7, 1.5, 3.0, 6.0, 10.0):
            p = Pulse(Lambda=sign * LAMBDA, beta=beta, omega0=OMEGA0)
            hf = total_shift(modes_ref, p, "hf")
            nat = total_shift(modes_ref, p, "natural")
            ks = total_shift(modes_ref, p, "ks")
            assert hf < nat < ks

    def test_sudden_regime_closes_exact_and_ks(self, modes_ref):
        rels = []
        for beta in (20.0, 50.0, 100.0):
            p = Pulse(Lambda=LAMBDA, beta=beta, omega0=OMEGA0)
            exact = total_shift(modes_ref, p, "exact")
            ks = total_shift(modes_ref, p, "ks")
            rels.append(abs(exact - ks) / exact)
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 1e-3

    def test_inadmissible_pulse_rejected(self, modes_ref):
        from pairpulse import IonizationRegimeError

        p = Pulse(Lambda=-0.3, beta=2.0, omega0=OMEGA0)  # |Lambda| >= 1 - 2 lam = 0.25
        with pytest.raises(IonizationRegimeError):
            total_shift(modes_ref, p, "exact")
        # a pulse scaled by another model's omega0
        with pytest.raises(ValueError, match="omega0=2.0 does not match .* frequency 3.0"):
            total_shift(modes_ref, Pulse(0.1, 2.0, 2.0), "exact")

    def test_reference_kinds_reflect_once(self, modes_ref, pulse_ref, monkeypatch):
        # one kernel call per pulse evaluates one numerator (a sine, or a cosh
        # for 1 + e < 0) and one sinh per distinct frequency; a reference kind
        # puts both particles at one frequency, so it is reflected once and
        # its shift counted twice
        import pairpulse.closed_form as closed_form

        kernel = closed_form._rhos
        calls, counts = [], {"sin": 0, "cosh": 0, "sinh": 0}

        class CountingMath:
            def __getattr__(self, name):
                fn = getattr(math, name)
                if name not in counts:
                    return fn

                def counted(x):
                    counts[name] += 1
                    return fn(x)

                return counted

        def counting_kernel(Lambda, beta, omega0, frequencies):
            calls.append(tuple(frequencies))
            return kernel(Lambda, beta, omega0, frequencies)

        def evaluations(fn, *args):
            calls.clear()
            counts.update(dict.fromkeys(counts, 0))
            fn(*args)
            return calls[:], counts["sin"] + counts["cosh"], counts["sinh"]

        monkeypatch.setattr(closed_form, "_rhos", counting_kernel)
        monkeypatch.setattr(closed_form, "math", CountingMath())
        for kind in KINDS:
            pair = mode_frequencies(modes_ref, kind)
            assert evaluations(total_shift, modes_ref, pulse_ref, kind) == ([pair], 1, len(set(pair)))
        assert evaluations(overlap, modes_ref, pulse_ref, "ks") == ([(modes_ref.omega_d,) * 2], 1, 1)
        five = (modes_ref.omega1, modes_ref.omega2, modes_ref.omega_e, modes_ref.omega_d,
                modes_ref.omega_w)
        assert evaluations(energy_shift_report, modes_ref, pulse_ref) == ([five], 1, 5)
        slow = Pulse(Lambda=-LAMBDA, beta=0.5, omega0=OMEGA0)  # 1 + e < 0: cosh numerator
        assert evaluations(energy_shift_report, modes_ref, slow) == ([five], 1, 5)
        assert counts["cosh"] == 1
        # two pulses per velocity, both modes each
        exact = (modes_ref.omega1, modes_ref.omega2)
        assert evaluations(sign_effect_rows, modes_ref, LAMBDA, [4.0, 5.0]) == ([exact] * 4, 4, 8)
        # every shift is Omega * rho exactly, and R = rho / (1 + rho)
        rep = energy_shift_report(modes_ref, pulse_ref)
        (rho,) = kernel(pulse_ref.Lambda, pulse_ref.beta, pulse_ref.omega0, (modes_ref.omega_e,))
        assert rep.hf == 2.0 * (modes_ref.omega_e * rho)
        assert analytic_reflection(modes_ref.omega_e, pulse_ref).R == rho / (1.0 + rho)

    def test_report_consistency(self, modes_ref, pulse_ref):
        rep = energy_shift_report(modes_ref, pulse_ref)
        assert EnergyShiftReport._fields == ("omega0", "lam", "Lambda", "beta", "shift_mode1",
                                             "shift_mode2", "exact", "hf", "ks", "natural")
        assert rep[:4] == (3.0, 0.375, pulse_ref.Lambda, pulse_ref.beta)
        with pytest.raises(AttributeError):
            rep.hf = 0.0

    @pytest.mark.parametrize("Lambda", [LAMBDA, -LAMBDA], ids=["figure1", "figure2"])
    def test_report_on_the_figure_grids(self, modes_ref, Lambda):
        # every field is Omega * rho of one kernel call, and every total the
        # total_shift of its kind, to the last bit
        import pairpulse.closed_form as closed_form

        freqs = (modes_ref.omega1, modes_ref.omega2, modes_ref.omega_e, modes_ref.omega_d,
                 modes_ref.omega_w)
        for beta in cli._beta_grid(cli.FIGURE_BETA_MIN, cli.FIGURE_BETA_MAX, cli.FIGURE_BETA_POINTS):
            pulse = Pulse(Lambda=Lambda, beta=beta, omega0=OMEGA0)
            rep = energy_shift_report(modes_ref, pulse)
            rhos = closed_form._rhos(Lambda, beta, OMEGA0, freqs)
            d1, d2, de, dd, dw = (f * rho for f, rho in zip(freqs, rhos))
            assert rep == (OMEGA0, LAM, Lambda, beta, d1, d2, d1 + d2, de + de, dd + dd, dw + dw)
            for kind in KINDS:
                assert getattr(rep, kind) == total_shift(modes_ref, pulse, kind)

    def test_report_totals_over_random_models(self):
        # the report spells each total out by hand: every one equals the
        # total_shift of its kind, and exact the sum of the two mode shifts,
        # to the last bit, away from the reference model too
        rng = np.random.default_rng(2026)
        reports = []
        for omega0, lam in zip(10.0 ** rng.uniform(-1, 1, 50), rng.uniform(0.0, 0.5, 50)):
            modes = derive_modes(ModelParams(omega0, lam))
            Lambda = rng.uniform(0.0, 1.0) * (modes.omega2 / modes.omega1) ** 2
            for beta in 10.0 ** rng.uniform(math.log10(0.25), 1.0, 3):
                for sign in (-1.0, 1.0):
                    pulse = Pulse(Lambda=sign * Lambda, beta=beta, omega0=omega0)
                    rep = energy_shift_report(modes, pulse)
                    assert rep.exact == rep.shift_mode1 + rep.shift_mode2
                    for kind in KINDS:
                        assert getattr(rep, kind) == total_shift(modes, pulse, kind)
                    reports.append(rep)
        assert len(reports) == 300 and all(rep.exact > 0.0 for rep in reports)


def test_small_drive_at_the_bottom_of_the_omega0_range():
    # Lambda*omega0**2 = 2.25e-325 underflows to 0, yet e = Lambda (omega0/beta)**2
    # = 2.25e-17: every closed form must see the drive
    mpmath = pytest.importorskip("mpmath")
    m = derive_modes(ModelParams(1.5e-154, LAM))
    p = Pulse(Lambda=1e-17, beta=1e-154, omega0=1.5e-154)
    assert p.coupling == 0.0
    om = m.omega1
    with mpmath.workdps(50):
        rho = {f: mp_rho(mpmath, f, p.Lambda, p.beta, p.omega0) for f in (m.omega1, m.omega2)}
        e = mpmath.mpf(p.Lambda) * (mpmath.mpf(p.omega0) / mpmath.mpf(p.beta)) ** 2
        x = mpmath.pi / 2 * mpmath.mpf(om) / mpmath.mpf(p.beta)
        exact = {
            "R": rho[om] / (1 + rho[om]),
            "exact": sum(f * r for f, r in rho.items()),
            "born": (mpmath.pi * e / 4) ** 2 * om / mpmath.sinh(x) ** 2,
            "sudden": om * (e * mpmath.mpf(p.beta) / (2 * om)) ** 2 * (1 - x**2 / 3) * (1 - e / 2),
        }
    computed = {
        "R": analytic_reflection(om, p).R,
        "exact": energy_shift_report(m, p).exact,
        "born": born_shift(om, p),
        "sudden": sudden_shift(om, p).value,
    }
    for name, value in computed.items():
        assert value != 0.0, name
        assert value == pytest.approx(float(exact[name]), rel=1e-12, abs=0.0), name


class TestBornShift:
    def test_sign_blind(self):
        for beta in (0.5, 2.0, 8.0):
            p_plus = Pulse(Lambda=1e-3, beta=beta, omega0=3.0)
            p_minus = Pulse(Lambda=-1e-3, beta=beta, omega0=3.0)
            assert born_shift(2.0, p_plus) == born_shift(2.0, p_minus)

    def test_zero_drive(self):
        assert born_shift(2.0, Pulse(Lambda=0.0, beta=2.0, omega0=3.0)) == 0.0

    def test_agrees_with_full_formula_at_weak_drive(self, modes_ref):
        p = Pulse(Lambda=1e-4, beta=3.0, omega0=3.0)
        full = energy_shift_report(modes_ref, p).ks / 2.0  # the one-mode shift at omega_d = 2
        approx = born_shift(2.0, p)
        assert abs(full - approx) / approx < 1e-3

    @pytest.mark.parametrize("beta", [0.5, 3.0, 1e3, 1e5, 1e17, 1e100])
    def test_matches_extended_precision(self, beta):
        # 1 - exp(-2v) lost digits at small v = pi Omega0 / 2 beta (2.6e-10 relative
        # at beta = 1e5) and had none left at beta = 1e17 (a math domain error)
        mpmath = pytest.importorskip("mpmath")
        p = Pulse(Lambda=LAMBDA, beta=beta, omega0=OMEGA0)
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            exact = (p.coupling * mpmath.pi / (4 * b**2)) ** 2 * 2 / mpmath.sinh(mpmath.pi / b) ** 2
        assert born_shift(2.0, p) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("Lambda", [LAMBDA, -LAMBDA])
    @pytest.mark.parametrize("beta", [1e-300, 1e-170, 1e300])
    def test_extreme_rates_underflow_to_zero(self, beta, Lambda):
        # beta**2 under- or overflows here, and at the second omega0 so does omega0/beta
        for omega0 in (OMEGA0, 1e150 if beta < 1.0 else 1e-150):
            assert born_shift(2.0, Pulse(Lambda=Lambda, beta=beta, omega0=omega0)) == 0.0

    def test_shift_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="born_shift at beta = 1e-100, Omega0 = 1e-150 exceeds"):
            born_shift(1e-150, Pulse(0.2, 1e-100, 3.0))


class TestSuddenShift:
    def test_sign_effect_direction(self):
        # repulsive drive deposits more energy in the fast regime
        plus = sudden_shift(2.0, Pulse(Lambda=0.2, beta=50.0, omega0=3.0))
        minus = sudden_shift(2.0, Pulse(Lambda=-0.2, beta=50.0, omega0=3.0))
        assert plus.valid and minus.valid
        assert plus.value < minus.value

    def test_agrees_with_full_formula_at_large_rate(self, modes_ref):
        p = Pulse(Lambda=LAMBDA, beta=50.0, omega0=3.0)
        full = energy_shift_report(modes_ref, p).ks / 2.0  # the one-mode shift at omega_d = 2
        est = sudden_shift(2.0, p)
        assert est.valid
        assert abs(est.value - full) / full < 1e-3

    def test_zero_drive(self):
        est = sudden_shift(2.0, Pulse(Lambda=0.0, beta=50.0, omega0=3.0))
        assert est.value == 0.0

    def test_validity_flag_lowers_at_slow_rate(self):
        assert not sudden_shift(2.0, Pulse(Lambda=0.2, beta=3.0, omega0=3.0)).valid

    @pytest.mark.parametrize("Lambda", [LAMBDA, -LAMBDA])
    def test_extreme_rates(self, Lambda):
        # beta**2 overflowed at 1e300 and underflowed at 1e-170; the expansion
        # underflows to 0 at the first and overflows at the second
        fast = sudden_shift(2.0, Pulse(Lambda=Lambda, beta=1e300, omega0=OMEGA0))
        assert fast.value == 0.0 and fast.valid
        for beta in (1e-170, 1e-300):
            with pytest.raises(ValueError, match=f"beta = {beta}"):
                sudden_shift(2.0, Pulse(Lambda=Lambda, beta=beta, omega0=OMEGA0))


class TestTransitionWeights:
    def test_no_reflection_single_weight(self):
        for n_max in (50, 50.0):
            tw = transition_weights(0.0, n_max)
            assert len(tw.weights) == 51 and tw.weights[0] == 1.0
            assert np.all(tw.weights[1:] == 0.0)
            assert tw.tail_bound == 0.0

    def test_default_tail_edge(self):
        # the docstring's edge of the default n_max = 200: tail below 1e-12 up to R = 0.86
        assert transition_weights(0.86).tail_bound < 1e-12 < transition_weights(0.87).tail_bound

    def test_normalization_with_tail(self):
        tw = transition_weights(0.5, 100)
        assert float(np.sum(tw.weights)) + tw.tail_bound == pytest.approx(1.0, abs=1e-12)

    def test_weights_within_unit_interval(self):
        tw = transition_weights(0.9, 300)
        assert np.all(tw.weights >= 0.0)
        assert np.all(tw.weights <= 1.0)

    @pytest.mark.parametrize("R", [0.01, 0.3, 0.8, 1e-17])
    def test_ladder_sum_equals_closed_shift(self, R):
        tw = transition_weights(R, 200)
        ladder = statistical_shift(tw, 1.0)
        assert ladder >= 0.0
        assert ladder == pytest.approx(R / (1.0 - R), abs=1e-10)

    def test_large_index_no_overflow(self):
        tw = transition_weights(0.999, 2000)
        assert np.all(np.isfinite(tw.weights))

    @pytest.mark.parametrize("R", [0.01, 0.5, 0.9, 0.999])
    def test_against_exact_binomial_oracle(self, R):
        # exact integer oracle, no floating-point logs:
        # Gamma(n+1/2) / (sqrt(pi) n!) R^n = C(2n, n) R^n / 4^n.  With the
        # float R = num / 2^k taken exactly, top = C(2n, n) num^n is an
        # integer (C(2n, n) = C(2n-2, n-1) (2n)(2n-1) / n^2), and the weight
        # is top / 2^((2 + k) n) rounded to a float once
        n_max = 2000
        num, den = R.as_integer_ratio()
        k = den.bit_length() - 1
        top = 1
        exact = np.empty(n_max + 1)
        for n in range(n_max + 1):
            if n:
                top = top * (2 * n) * (2 * n - 1) * num // (n * n)
            shift = max(top.bit_length() - 64, 0)
            exact[n] = math.ldexp(float(top >> shift), shift - (2 + k) * n)
        assert top == math.comb(2 * n_max, n_max) * num**n_max
        exact *= math.sqrt(1.0 - R)
        weights = transition_weights(R, n_max).weights
        normal = exact > 1e-290  # below, the exact weight leaves the float range
        np.testing.assert_allclose(weights[normal], exact[normal], rtol=1e-11, atol=0.0)
        assert np.all(weights[~normal] < 1e-280)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            transition_weights(1.0, 10)
        with pytest.raises(ValueError):
            transition_weights(0.5, -1)

    @pytest.mark.parametrize("n_max", [math.inf, math.nan, 2.5])
    def test_rejects_bad_size(self, n_max):
        with pytest.raises(ValueError, match="n_max must be a finite integer >= 0"):
            transition_weights(0.5, n_max)


class TestOverlap:
    def test_null_pulse_unit_overlap(self, modes_ref):
        p = Pulse(Lambda=0.0, beta=2.0, omega0=OMEGA0)
        assert overlap(modes_ref, p, "exact") == 1.0
        assert overlap(modes_ref, p, "ks") == 1.0

    def test_noninteracting_exact_equals_ks(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        p = Pulse(Lambda=0.2, beta=2.0, omega0=3.0)
        # at lam = 0 all frequencies coincide, and both kinds are the same
        # product of sqrt(1-R) over their two mode frequencies
        assert overlap(m, p, "exact") == overlap(m, p, "ks")

    def test_reference_values_against_wavefunction_quadrature(
        self, modes_ref, pulse_ref, traj_pair_ref
    ):
        # oracle: trapezoid quadrature of the evolved two-mode state against
        # the initial ground state (values frozen from that quadrature)
        t1, t2 = traj_pair_ref
        t_c = min(t1.t_end, t2.t_end)
        X = np.linspace(-6.0, 6.0, 801)

        def evolved(traj, X):
            om = traj.mode_frequency
            B, Bd, g = traj.state_at(t_c)
            return (om / (B * B * math.pi)) ** 0.25 * np.exp(
                -X * X / 2 * om / B**2 * (1 - 1j * B * Bd / om)
            ) * np.exp(-1j * g / 2)

        def ground(om, X):
            return (om / math.pi) ** 0.25 * np.exp(-om * X * X / 2)

        o1 = np.trapezoid(np.conj(ground(t1.mode_frequency, X)) * evolved(t1, X), X)
        o2 = np.trapezoid(np.conj(ground(t2.mode_frequency, X)) * evolved(t2, X), X)
        quad_exact = abs(o1 * o2) ** 2
        val_exact = overlap(modes_ref, pulse_ref, "exact")
        assert val_exact == pytest.approx(quad_exact, abs=1e-9)
        assert val_exact == pytest.approx(0.9799126324992044, abs=1e-9)

        traj_d = integrate_mode(modes_ref.omega_d, pulse_ref, rtol=1e-11, atol=1e-13)
        od = np.trapezoid(
            np.conj(ground(modes_ref.omega_d, X)) * evolved(traj_d, X), X
        )
        # product state: squared one-particle overlap enters twice
        quad_ks = abs(od) ** 4
        val_ks = overlap(modes_ref, pulse_ref, "ks")
        assert val_ks == pytest.approx(quad_ks, abs=1e-9)
        assert val_ks == pytest.approx(0.9828520311889668, abs=1e-9)
        assert val_exact != pytest.approx(val_ks, abs=1e-4)

    def test_rejects_unknown_kind(self, modes_ref, pulse_ref):
        for kind in ("hf", "natural", "bogus"):
            with pytest.raises(ValueError):
                overlap(modes_ref, pulse_ref, kind)


_P = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
_M = derive_modes(ModelParams(3.0, 0.375))


@pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.5])
@pytest.mark.parametrize("function", [
    lambda om: born_shift(om, _P),
    lambda om: sudden_shift(om, _P),
    lambda om: omega_squared(om, _P, 0.0),
    lambda om: statistical_shift(transition_weights(0.1), om),
    # every entry to the closed-form kernel, also a pulse with no drive and one too
    # slow for Lambda (omega0/beta)**2 to be a float
    lambda om: analytic_reflection(om, Pulse(Lambda=0.0, beta=3.0, omega0=3.0)),
    lambda om: analytic_reflection(om, Pulse(Lambda=2.0 / 9.0, beta=1e-160, omega0=3.0)),
    lambda om: energy_shift_report(_M._replace(omega_w=om), _P),
    lambda om: total_shift(_M._replace(omega_w=om), _P, "natural"),
    lambda om: overlap(_M._replace(omega_d=om), _P, "ks"),
], ids=["born_shift", "sudden_shift", "omega_squared", "statistical_shift",
        "analytic_reflection_no_drive", "analytic_reflection_slow", "energy_shift_report",
        "total_shift", "overlap"])
def test_rejects_bad_mode_frequency(function, omega):
    # these used to return garbage (a negative sudden shift flagged valid, omega_squared(nan, ...) = nan,
    # a negative ladder shift) or a bare math domain error
    with pytest.raises(ValueError, match="mode frequency must be > 0"):
        function(omega)


class TestBerryConnection:
    def test_final_value_is_shift_plus_ground(self, traj_pair_ref, pulse_ref):
        traj = traj_pair_ref[0]
        om = traj.mode_frequency
        R = analytic_reflection(om, pulse_ref).R
        val = berry_connection(traj, pulse_ref, traj.t_end)
        assert val == pytest.approx(om * R / (1.0 - R) + om / 2.0, abs=1e-6)

    def test_rejects_other_pulse(self, traj_pair_ref, pulse_ref):
        # B(t) belongs to the trajectory's pulse; Omega^2(t) of another
        # pulse would mix two drives
        traj = traj_pair_ref[0]
        for other in (
            Pulse(Lambda=-pulse_ref.Lambda, beta=pulse_ref.beta, omega0=OMEGA0),
            Pulse(Lambda=pulse_ref.Lambda, beta=2.0, omega0=OMEGA0),
        ):
            with pytest.raises(ValueError):
                berry_connection(traj, other, 0.0)
        equal = Pulse(Lambda=pulse_ref.Lambda, beta=pulse_ref.beta, omega0=OMEGA0)
        assert berry_connection(traj, equal, 0.0) == berry_connection(traj, pulse_ref, 0.0)

    def test_null_pulse_constant(self):
        p = Pulse(Lambda=0.0, beta=2.0, omega0=3.0)
        traj = integrate_mode(2.0, p)
        for t in np.linspace(traj.t_start, traj.t_end, 20):
            assert berry_connection(traj, p, t) == pytest.approx(1.0, abs=1e-8)


class TestLimits:
    def test_shift_vanishes_in_both_limits(self, modes_ref):
        # thresholds from the closed formula: the adiabatic side decays like
        # exp(-pi omega2 / beta), the sudden side like 1/beta^2
        slow = Pulse(Lambda=LAMBDA, beta=1e-2, omega0=OMEGA0)
        fast = Pulse(Lambda=LAMBDA, beta=1e3, omega0=OMEGA0)
        assert total_shift(modes_ref, slow, "exact") < 1e-100
        assert total_shift(modes_ref, fast, "exact") < 1e-5

    def test_sign_asymmetry_scales_with_drive(self, modes_ref):
        # relative sign asymmetry tracks Lambda*omega0^2/beta^2 in the
        # weak-drive regime
        for beta in (2.0, 4.0, 8.0):
            p_plus = Pulse(Lambda=1e-4, beta=beta, omega0=OMEGA0)
            p_minus = Pulse(Lambda=-1e-4, beta=beta, omega0=OMEGA0)
            plus = total_shift(modes_ref, p_plus, "exact")
            minus = total_shift(modes_ref, p_minus, "exact")
            rel = abs(plus - minus) / plus
            scale = 1e-4 * OMEGA0**2 / beta**2
            assert rel == pytest.approx(scale, rel=0.2)


@st.composite
def _domain_points(draw):
    """(modes, Omega0, pulse) over the admissible domain: omega0 log-uniform on
    [1e-3, 1e3], lam on [0, 0.5), Lambda of either sign up to (1 - 1e-12) of
    its bound (omega2/omega0)^2, beta/omega0 log-uniform on [10^-2.5, 10^4], and
    one of the five mode frequencies."""
    omega0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    modes = derive_modes(ModelParams(omega0, draw(st.floats(0.0, 0.5, exclude_max=True))))
    bound = (modes.omega2 / modes.omega1) ** 2
    Lambda = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.0, 1.0 - 1e-12)) * bound
    beta = omega0 * 10.0 ** draw(st.floats(-2.5, 4.0))
    fields = ("omega1", "omega2", "omega_e", "omega_w", "omega_d")
    return modes, getattr(modes, draw(st.sampled_from(fields))), Pulse(Lambda, beta, omega0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_domain_points())
def test_reflection_and_shifts_stay_in_range_over_the_domain(point):
    # R in [0, 1) and every shift >= 0 of either sign of the drive, and the
    # Born shift bit for bit blind to that sign
    modes, om, pulse = point
    assert 0.0 <= analytic_reflection(om, pulse).R < 1.0
    for kind in KINDS:
        assert total_shift(modes, pulse, kind) >= 0.0, kind
    flipped = Pulse(-pulse.Lambda, pulse.beta, pulse.omega0)
    assert born_shift(om, pulse) == born_shift(om, flipped)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_domain_points())
def test_born_sudden_and_overlap_match_extended_precision_over_the_domain(point):
    # against 50-digit mpmath forms at the same float inputs.  Each bound is
    # the worst measured over 5,000 draws of this domain with a margin:
    # - born_shift, 1e-12 relative (worst 1.3e-13, x8): it is exp of a sum of
    #   logarithms up to ~745 in size, so its rounding reaches ~745 u;
    # - sudden_shift, 32 u kappa relative (worst 6.0 u kappa, x5), kappa the
    #   condition number of its two differences 1 - x^2/3 and 1 - e/2, which
    #   cancel near x^2 = 3 and e = 2;
    # - overlap, 1e-13 relative (worst 4.3e-15, x23);
    # plus, for born_shift and sudden_shift, an absolute 2^-1074 and 1e-290
    # where the value or the square of its drive ratio underflows.
    mpmath = pytest.importorskip("mpmath")
    modes, om, pulse = point
    u = 2.0**-53
    with mpmath.workdps(50):
        Om, Lam, b, w0 = map(mpmath.mpf, (om, pulse.Lambda, pulse.beta, pulse.omega0))
        e, x2 = Lam * (w0 / b) ** 2, (mpmath.pi * Om / (2 * b)) ** 2 / 3
        born = (mpmath.pi * e / 4) ** 2 * Om / mpmath.sinh(mpmath.pi * Om / (2 * b)) ** 2
        assert abs(born_shift(om, pulse) - born) <= 1e-12 * born + 2.0**-1074
        sudden = Om * (e * b / (2 * Om)) ** 2 * (1 - x2) * (1 - e / 2)
        kappa = 1 + abs(x2 / (1 - x2)) + abs(e / (2 - e))
        assert abs(sudden_shift(om, pulse).value - sudden) <= 32 * u * kappa * abs(sudden) + 1e-290
        for kind, frequencies in (("exact", (modes.omega1, modes.omega2)),
                                  ("ks", (modes.omega_d, modes.omega_d))):
            rho1, rho2 = (mp_rho(mpmath, f, pulse.Lambda, pulse.beta, pulse.omega0) for f in frequencies)
            exact = 1 / mpmath.sqrt((1 + rho1) * (1 + rho2))
            assert abs(overlap(modes, pulse, kind) - exact) <= 1e-13 * exact, kind


# analytic_reflection's stated accuracy: |Delta R / R| <= R_C u kappa
R_C = 16


def _mp_reflection_bound(mpmath, om, pulse):
    """R of the sech^2 closed form at 50 digits, and the error that
    ``analytic_reflection``'s docstring allows it.

    That is R_C u kappa R, kappa = 1 + |d ln rho / d ln e| + 2 v coth v at the
    exact float inputs, plus (ZERO_COS_RTOL arg / sinh v)^2 for a zero snapped
    to R = 0 and 2^-1074 where R is subnormal.
    """
    with mpmath.workdps(50):
        Om, Lam, b, w0 = map(mpmath.mpf, (om, pulse.Lambda, pulse.beta, pulse.omega0))
        e, v = Lam * (w0 / b) ** 2, mpmath.pi / 2 * Om / b
        if e >= -1:
            s = mpmath.sqrt(1 + e)
            arg = mpmath.pi / 2 * e / (1 + s)
            # rho ~ e^2 as e -> 0
            slope = 2 if e == 0 else mpmath.pi / 2 * abs(e) / s * abs(mpmath.cot(arg))
            floor = (ZERO_COS_RTOL * arg / mpmath.sinh(v)) ** 2
        else:
            root = mpmath.sqrt(-1 - e)
            slope, floor = mpmath.pi / 2 * -e / root * mpmath.tanh(mpmath.pi / 2 * root), 0
        kappa = 1 + slope + 2 * v * mpmath.coth(v)
        rho = mp_rho(mpmath, om, pulse.Lambda, pulse.beta, pulse.omega0)
        R = rho / (1 + rho)
        return R, R_C * 2.0**-53 * kappa * R + floor + 2.0**-1074


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_domain_points())
def test_reflection_matches_extended_precision_at_its_stated_bound(point):
    # R_C = 16: over 400,000 draws, half of this domain's distribution and
    # half of _zero_points', the worst error was 4.1 u kappa (x3.9)
    mpmath = pytest.importorskip("mpmath")
    _, om, pulse = point
    R_mp, allowed = _mp_reflection_bound(mpmath, om, pulse)
    assert abs(analytic_reflection(om, pulse).R - R_mp) <= allowed


@st.composite
def _zero_points(draw):
    """(Omega0, pulse) next to a shift zero 1 + e = (2n+1)^2, n log-uniform on
    [1, 1000], so down to beta/omega0 ~ 5e-4, with 1 + e off the zero by a
    relative 10^-17 to 10^-3 of either sign, or by the rounding of beta alone.
    omega0, lam and the mode are drawn as in ``_domain_points``, and
    0 < Lambda < (omega2/omega0)^2, near the bound in half the draws.  The
    values come from a Python ``Random`` that hypothesis seeds: its own float
    draws cling to their bounds, which put most draws on the zero itself."""
    rng = draw(st.randoms(use_true_random=True))
    omega0 = 10.0 ** rng.uniform(-3.0, 3.0)
    modes = derive_modes(ModelParams(omega0, rng.uniform(0.0, 0.5)))
    share = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0) if rng.random() < 0.5 else rng.uniform(1e-3, 1.0)
    Lambda = share * (modes.omega2 / modes.omega1) ** 2
    n = int(10.0 ** rng.uniform(0.0, 3.0))
    off = rng.choice((1.0, -1.0, 0.0)) * 10.0 ** rng.uniform(-17.0, -3.0)
    beta = omega0 * math.sqrt(Lambda / ((2 * n + 1) ** 2 * (1.0 + off) - 1.0))
    fields = ("omega1", "omega2", "omega_e", "omega_w", "omega_d")
    return getattr(modes, rng.choice(fields)), Pulse(Lambda, beta, omega0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_zero_points())
def test_reflection_next_to_shift_zeros_matches_extended_precision(point):
    # kappa grows like 1/|sin(arg)| next to a zero, and a snapped zero is
    # R = 0 within (ZERO_COS_RTOL arg / sinh v)^2; the same R_C as above
    mpmath = pytest.importorskip("mpmath")
    om, pulse = point
    R_mp, allowed = _mp_reflection_bound(mpmath, om, pulse)
    assert abs(analytic_reflection(om, pulse).R - R_mp) <= allowed
