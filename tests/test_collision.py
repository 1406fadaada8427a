import math

import numpy as np
import pytest
from scipy.integrate import quad

from pairpulse import ModelParams, Pulse, derive_modes, total_shift
from pairpulse.collision import (
    CollisionParams,
    alpha_timing,
    collision_time_avg,
    collision_time_exact,
    sign_effect_ratio,
)

# proton on helium at the reference screening radius
REF = dict(Z1=1.0, Z2=2.0, M1=1836.0, M2=4 * 1836.0, r0=0.75)


def orbit_time_quadrature(cp: CollisionParams) -> float:
    """Independent oracle: twice the radial time integral over the orbit.

    v_r^2 = v^2 [p - (Z1 Z2/E)/r - b^2/r^2]; the substitution
    r = r_min + s^2 removes the turning-point singularity.
    """
    E, p = cp.energy, cp.p
    q = cp.Z1 * cp.Z2 / E
    disc = math.sqrt(q * q + 4.0 * p * cp.b**2)
    r_min = (q + disc) / (2.0 * p)
    r_neg = (q - disc) / (2.0 * p)

    def integrand(s):
        r = r_min + s * s
        return 2.0 * r / (cp.v * math.sqrt(p) * math.sqrt(r - r_neg))

    val, err = quad(integrand, 0.0, math.sqrt(cp.r0 - r_min), epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-9
    return 2.0 * val


class TestCollisionTimeExact:
    def test_against_orbit_quadrature(self):
        cp = CollisionParams(**REF, v=5.0, b=0.3)
        closed = collision_time_exact(cp)
        assert closed == pytest.approx(orbit_time_quadrature(cp), abs=1e-10)
        assert closed == pytest.approx(0.2749487398204861, abs=1e-12)

    @pytest.mark.parametrize("v,b", [(0.5, 0.0), (1.0, 0.5), (5.0, 0.7), (40.0, 0.2)])
    def test_quadrature_oracle_across_regimes(self, v, b):
        cp = CollisionParams(**REF, v=v, b=b)
        assert collision_time_exact(cp) == pytest.approx(
            orbit_time_quadrature(cp), rel=1e-9
        )

    def test_grazing_geometry_vanishes(self):
        cp = CollisionParams(**REF, v=5.0, b=0.75 * (1 - 1e-9))
        assert collision_time_exact(cp) < 1e-4

    def test_fast_head_on_is_chord_traversal(self):
        cp = CollisionParams(**REF, v=500.0, b=0.0)
        assert collision_time_exact(cp) == pytest.approx(2 * 0.75 / 500.0, rel=1e-6)

    def test_monotone_decreasing_in_impact_parameter(self):
        times = [
            collision_time_exact(CollisionParams(**REF, v=5.0, b=b))
            for b in (0.0, 0.2, 0.4, 0.6, 0.74)
        ]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_rejects_no_window_and_attraction(self):
        with pytest.raises(ValueError, match="no interaction window"):
            collision_time_exact(CollisionParams(**REF, v=5.0, b=0.75))
        attract = dict(REF, Z1=-1.0)
        with pytest.raises(ValueError, match="repulsive"):
            collision_time_exact(CollisionParams(**attract, v=5.0, b=0.3))

    def test_rejects_bad_params(self):
        bad = [{"v": -1.0}, {"r0": 0.0}, {"b": -0.1}]
        bad += [{name: x} for name in ("v", "r0", "M1", "Z1") for x in (math.nan, math.inf)]
        for fields in bad:
            with pytest.raises(ValueError):
                CollisionParams(**{**REF, "v": 5.0, **fields})

    def test_chord_prefactor_band(self):
        # head-on time stays inside the [2, 4] envelope of the chord
        # approximation over the whole velocity range
        for v in np.geomspace(0.5, 50.0, 24):
            cp = CollisionParams(**REF, v=float(v), b=0.0)
            alpha_implied = collision_time_exact(cp) * cp.v * cp.p / cp.r0
            assert 2.0 <= alpha_implied <= 4.0


class TestCollisionTimeAvg:
    def test_high_velocity_limit(self):
        cp = CollisionParams(**REF, v=2000.0)
        assert collision_time_avg(cp) == pytest.approx(2.0 / 3.0 * 0.75 / 2000.0, rel=1e-4)

    def test_alpha_limits(self):
        assert alpha_timing(CollisionParams(**REF, v=1e-4)) == pytest.approx(4.0, abs=1e-4)
        assert alpha_timing(CollisionParams(**REF, v=1e4)) == pytest.approx(2.0, abs=1e-4)

    def test_one_third_factor_identity(self):
        # the 1/3 in the closed form stems from int_0^r0 b sqrt(1-b^2/r0^2) db
        r0 = REF["r0"]
        val, _ = quad(lambda b: b * math.sqrt(1 - b**2 / r0**2), 0.0, r0)
        assert val == pytest.approx(r0**2 / 3.0, rel=1e-10)

    def test_consistency_with_numerical_average(self):
        # the closed form carries half the b-weighted mean of the exact time
        # (its conventional 1/3 normalization); compare against 2x closed
        cp = CollisionParams(**REF, v=5.0)
        num, _ = quad(
            lambda b: b * collision_time_exact(CollisionParams(**REF, v=5.0, b=b)),
            0.0,
            cp.r0,
            limit=200,
        )
        num *= 2.0 / cp.r0**2
        assert abs(num - 2.0 * collision_time_avg(cp)) / num < 0.15

    def test_rejects_attraction(self):
        with pytest.raises(ValueError):
            collision_time_avg(CollisionParams(**dict(REF, Z2=-2.0), v=5.0))


class TestSignEffectRatio:
    def test_positive_decreasing_and_in_band(self, modes_ref):
        table = sign_effect_ratio(modes_ref, 2.0 / 9.0, np.linspace(4.0, 12.0, 33))
        v, ratio = table[:, 0], table[:, 1]
        assert np.all(ratio > 0)
        assert np.all(np.diff(ratio) < 0)
        in_low_band = ratio[(v >= 4.0) & (v <= 5.0)]
        assert np.all((in_low_band >= 0.05) & (in_low_band <= 0.20))
        assert ratio[-1] < 0.02

    def test_reference_values(self, modes_ref):
        table = sign_effect_ratio(modes_ref, 2.0 / 9.0, [4.0, 5.0, 12.0])
        assert table[0, 1] == pytest.approx(0.13315446620175653, rel=1e-10)
        assert table[1, 1] == pytest.approx(0.08328857449227511, rel=1e-10)
        assert table[2, 1] == pytest.approx(0.013985794971596466, rel=1e-10)
        w0 = modes_ref.params.omega0
        for v, ratio in table:
            minus, plus = (
                total_shift(modes_ref, Pulse(Lambda=s * 2.0 / 9.0, beta=v, omega0=w0), "exact")
                for s in (-1.0, 1.0)
            )
            assert ratio == minus / plus - 1.0

    def test_weak_drive_symmetry(self, modes_ref):
        table = sign_effect_ratio(modes_ref, 1e-6, [4.0, 8.0, 12.0])
        assert np.all(np.abs(table[:, 1]) < 1e-5)
        zero = sign_effect_ratio(modes_ref, 0.0, [4.0])
        assert zero[0, 1] == 0.0

    def test_repulsive_shift_dominates(self, modes_ref):
        # ratio >= 0 is exactly the statement dE(-|L|) >= dE(+|L|)
        table = sign_effect_ratio(modes_ref, 2.0 / 9.0, np.geomspace(4.0, 40.0, 12))
        assert np.all(table[:, 1] >= 0.0)

    def test_rejects_inadmissible_magnitude(self, modes_ref):
        from pairpulse.dynamics import IonizationRegimeError

        with pytest.raises(IonizationRegimeError):
            sign_effect_ratio(modes_ref, 0.26, [5.0])
        with pytest.raises(ValueError):
            sign_effect_ratio(modes_ref, -0.1, [5.0])

    def test_nan_at_shift_zero(self, modes_ref):
        # 1 + Lambda*omega0^2/v^2 = 9 at v = 0.5: both modes stop reflecting
        # at +|Lambda|, so the ratio has no denominator
        table = sign_effect_ratio(modes_ref, 2.0 / 9.0, [0.5, 0.5000001])
        assert math.isnan(table[0, 1])
        assert table[1, 1] == pytest.approx(1.45e15, rel=0.01)

    @pytest.mark.parametrize("Lambda_mag", [0.0, 2.0 / 9.0])
    @pytest.mark.parametrize("v", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_velocity(self, modes_ref, Lambda_mag, v):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            sign_effect_ratio(modes_ref, Lambda_mag, [5.0, v])

    @pytest.mark.parametrize("Lambda_mag", [0.0, 2.0 / 9.0])
    def test_empty_velocity_grid(self, modes_ref, Lambda_mag):
        assert sign_effect_ratio(modes_ref, Lambda_mag, []).shape == (0, 2)

    def test_noninteracting_still_shows_sign_effect(self):
        # the asymmetry comes from the drive, not the coupling
        m = derive_modes(ModelParams(3.0, 0.0))
        table = sign_effect_ratio(m, 2.0 / 9.0, [5.0])
        assert table[0, 1] > 0.05
