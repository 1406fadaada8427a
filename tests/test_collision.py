import math

import numpy as np
import pytest

from pairpulse import ModelParams, Pulse, derive_modes, total_shift
from pairpulse.collision import sign_effect_ratio


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
        assert isinstance(table, np.ndarray) and table.dtype == float and table.shape == (3, 2)
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
        from pairpulse import IonizationRegimeError

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
