import math
import sys

import numpy as np
import pytest

from pairpulse import ModelParams, derive_modes, model
from pairpulse.model import (
    OccupationSpectrum,
    density,
    entropies,
    gamma1_static,
    model_wavefunction,
    natural_orbital,
    occupation_spectrum,
)
from pairpulse.validate import check_mode_ordering

# omega0 and omega0**2 finite and normal: the accepted confinement frequencies
OMEGA0_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


def quad_2d(f, half, n=501):
    """Trapezoid quadrature of f(x1, x2) on [-half, half]^2."""
    x = np.linspace(-half, half, n)
    vals = f(x[:, None], x[None, :])
    return np.trapezoid(np.trapezoid(vals, x, axis=1), x)


class TestDeriveModes:
    def test_reference_frequency_table(self):
        m = derive_modes(ModelParams(3.0, 0.375))
        assert m.omega2 == 1.5
        assert m.omega_e == pytest.approx(2.372, abs=1e-3)
        assert m.omega_w == pytest.approx(2.121, abs=1e-3)
        assert m.omega_d == pytest.approx(2.0, abs=1e-12)
        assert m.E0 == pytest.approx(2.25)

    def test_noninteracting_limit_degenerate(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        assert m.omega2 == m.omega_e == m.omega_w == m.omega_d == 3.0
        assert m.D == 0.0 and m.Z == 0.0 and m.C1 == 0.0

    def test_kernel_constants(self):
        m = derive_modes(ModelParams(3.0, 0.375))
        assert m.D == pytest.approx(0.125, abs=1e-15)
        assert m.Z == pytest.approx(0.029437251522859424, abs=1e-12)
        assert m.C1 == pytest.approx(0.125, abs=1e-15)

    def test_ratio_matches_grid_eigendecomposition(self):
        # independent spectral oracle for Z: the two largest eigenvalues of
        # the discretized kernel are (1-Z) and (1-Z)Z
        m = derive_modes(ModelParams(3.0, 0.375))
        half = 8.0 / math.sqrt(m.omega_d)
        x, dx = np.linspace(-half, half, 400, retstep=True)
        eigs = np.linalg.eigvalsh(gamma1_static(m, x[:, None], x[None, :]) * dx)
        eigs = eigs[::-1]
        assert eigs[1] / eigs[0] == pytest.approx(m.Z, abs=1e-9)

    @pytest.mark.parametrize("lam", [-0.01, 0.5, 0.7, float("nan")])
    def test_rejects_unbound_coupling(self, lam):
        with pytest.raises(ValueError):
            ModelParams(3.0, lam)

    @pytest.mark.parametrize("omega0", [
        0.0, -1.0, float("inf"), float("nan"), 1e200, 1e160, 1e-160, 1e-320,
        math.nextafter(OMEGA0_RANGE[1], math.inf), math.nextafter(OMEGA0_RANGE[0], 0.0),
    ])
    def test_rejects_bad_frequency(self, omega0):
        # beyond the range omega0**2 overflowed in derive_modes or underflowed to 0
        with pytest.raises(ValueError, match="omega0 must lie in"):
            ModelParams(omega0, 0.2)

    @pytest.mark.parametrize("omega0", OMEGA0_RANGE)
    def test_frequency_range_edges(self, omega0):
        m = derive_modes(ModelParams(omega0, 0.375))
        assert m.omega2 < m.omega_d < m.omega_w < m.omega_e < m.omega1
        for value in (m.omega2, m.D, m.E0, m.C1, omega0**2):
            assert sys.float_info.min <= value <= sys.float_info.max

    def test_strict_frequency_ordering_dense_grid(self):
        # the validate row's check on 10,000 models instead of 225
        ok, detail = check_mode_ordering(100)
        assert ok, detail

    @pytest.mark.parametrize("lam", [0.0, 1e-12, 1e-9])
    def test_ordering_within_one_ulp_at_tiny_coupling(self, lam):
        # below lam ~ 1e-7 the order holds to one ulp (see derive_modes)
        for w0 in np.linspace(0.2, 8.0, 1000).tolist():
            m = derive_modes(ModelParams(w0, lam))
            freqs = [m.omega2, m.omega_d, m.omega_w, m.omega_e, m.omega1]
            assert all(a <= math.nextafter(b, math.inf) for a, b in zip(freqs, freqs[1:]))


class TestGamma1Static:
    def test_unit_trace(self, modes_ref):
        val = np.trapezoid(
            gamma1_static(modes_ref, x := np.linspace(-8, 8, 2001), x), x
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_positive(self, modes_ref):
        rng = np.random.default_rng(7)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        ga = gamma1_static(modes_ref, a, b)
        gb = gamma1_static(modes_ref, b, a)
        np.testing.assert_allclose(ga, gb, rtol=0, atol=0)
        assert np.all(ga > 0)

    def test_purity_against_quadrature(self, modes_ref):
        # operator-trace identity: Tr Gamma^2 = (1 + 2 D / omega_d)^(-1/2)
        closed = (1.0 + 2.0 * modes_ref.D / modes_ref.omega_d) ** -0.5
        assert closed == pytest.approx(0.9428090415820634, abs=1e-12)
        quad = quad_2d(
            lambda x1, x2: gamma1_static(modes_ref, x1, x2) ** 2,
            8.0 / math.sqrt(modes_ref.omega_d),
            n=801,
        )
        assert quad == pytest.approx(closed, abs=1e-9)
        assert closed == pytest.approx(modes_ref.omega_d / modes_ref.omega_w, abs=1e-12)

    def test_density_is_diagonal(self, modes_ref):
        x = np.linspace(-3, 3, 17)
        np.testing.assert_allclose(density(modes_ref, x), gamma1_static(modes_ref, x, x), rtol=1e-14)

    def test_density_tail_below_threshold_at_eight_sigma(self, modes_ref):
        # the half width of the validate spectral-oracle grid
        assert float(density(modes_ref, 8.0 / math.sqrt(modes_ref.omega_d))) < 1e-13


class TestOccupationSpectrum:
    def test_noninteracting_is_pure(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        spec = occupation_spectrum(m, 10)
        assert spec.weights[0] == 1.0
        assert np.all(spec.weights[1:] == 0.0)
        assert spec.tail_mass == 0.0

    def test_leading_occupation_against_eigen_oracle(self, modes_ref):
        spec = occupation_spectrum(modes_ref, 5)
        assert spec.weights[0] == pytest.approx(0.9705627484771405, abs=1e-12)
        half = 8.0 / math.sqrt(modes_ref.omega_d)
        x, dx = np.linspace(-half, half, 400, retstep=True)
        eigs = np.linalg.eigvalsh(gamma1_static(modes_ref, x[:, None], x[None, :]) * dx)
        assert eigs[-1] == pytest.approx(spec.weights[0], abs=1e-9)

    @pytest.mark.parametrize("lam,k_max", [(0.0, 5), (0.1, 3), (0.375, 60), (0.49, 200)])
    def test_normalization_with_tail(self, lam, k_max):
        spec = occupation_spectrum(derive_modes(ModelParams(2.0, lam)), k_max)
        assert spec.total() == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self, modes_ref):
        spec = occupation_spectrum(modes_ref, 30)
        assert np.all(np.diff(spec.weights) < 0)

    def test_rejects_negative_k_max(self, modes_ref):
        with pytest.raises(ValueError):
            occupation_spectrum(modes_ref, -1)

    @pytest.mark.parametrize("Z", [1.0, math.nan])
    def test_rejects_ratio_outside_unit_interval(self, modes_ref, Z):
        with pytest.raises(ValueError, match="geometric ratio must lie in"):
            occupation_spectrum(modes_ref._replace(Z=Z), 5)

    @pytest.mark.parametrize("k_max", [math.nan, math.inf, 2.5])
    def test_rejects_bad_size(self, modes_ref, k_max):
        with pytest.raises(ValueError, match="k_max must be a finite integer >= 0"):
            occupation_spectrum(modes_ref, k_max)


class TestNaturalOrbital:
    def test_ground_orbital_at_origin(self, modes_ref):
        expect = (modes_ref.omega_w / math.pi) ** 0.25
        assert float(natural_orbital(modes_ref, 0, 0.0)) == pytest.approx(expect, rel=1e-14)

    def test_orthonormality(self, modes_ref):
        x = np.linspace(-12, 12, 4001)
        orbs = np.array([natural_orbital(modes_ref, k, x) for k in range(11)])
        gram = orbs @ orbs.T * (x[1] - x[0])
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-10)

    @pytest.mark.parametrize("x", [np.linspace(-9, 9, 301), 0.3, np.ones((2, 3))],
                             ids=["grid", "scalar", "2-d"])
    def test_orbital_has_the_shape_of_x(self, modes_ref, x):
        for k in range(13):
            assert np.shape(natural_orbital(modes_ref, k, x)) == np.shape(x)

    def test_high_index_stays_bounded(self, modes_ref):
        vals = natural_orbital(modes_ref, 60, np.linspace(-10, 10, 101))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1.5

    def test_rejects_out_of_range_index(self, modes_ref):
        with pytest.raises(ValueError):
            natural_orbital(modes_ref, -1, 0.0)
        with pytest.raises(ValueError):
            natural_orbital(modes_ref, model.MAX_ORBITAL_INDEX + 1, 0.0)

    # the natural orbitals of omega0 = 1, lam = 0 (omega_w = 1) are the Hermite functions
    @pytest.mark.parametrize("params", [(1.0, 0.0), (3.0, 0.375)],
                             ids=["hermite_function", "natural_orbital"])
    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    def test_rejects_non_integer_index(self, params, k):
        with pytest.raises(ValueError, match="k must be a finite integer >= 0"):
            natural_orbital(derive_modes(ModelParams(*params)), k, 0.3)

    def test_hermite_recurrence_against_explicit_low_orders(self):
        unit = derive_modes(ModelParams(1.0, 0.0))
        assert unit.omega_w == 1.0
        xi = np.linspace(-3, 3, 7)
        h0 = math.pi**-0.25 * np.exp(-xi * xi / 2)
        np.testing.assert_allclose(natural_orbital(unit, 0, xi), h0, rtol=1e-14)
        np.testing.assert_allclose(natural_orbital(unit, 1, xi), math.sqrt(2) * xi * h0, rtol=1e-14)
        h2 = (2 * xi * xi - 1) / math.sqrt(2) * h0
        for k in (2, 2.0, np.int64(2)):
            np.testing.assert_allclose(natural_orbital(unit, k, xi), h2, rtol=1e-13, atol=1e-15)


class TestEntropies:
    def test_pure_state_zero(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        for k_max in (20, 20.0):
            ent = entropies(occupation_spectrum(m, k_max), renyi_orders=(0.5, 2.0))
            assert ent.von_neumann == 0.0
            assert ent.renyi == (0.0, 0.0)

    def test_closed_form_against_truncated_sum(self, modes_ref):
        spec = occupation_spectrum(modes_ref, 200)
        ent = entropies(spec, renyi_orders=(0.5, 2.0, 3.0))
        w = spec.weights
        svn_sum = -float(np.sum(w * np.log(w)))
        assert ent.von_neumann == pytest.approx(svn_sum, abs=1e-12)
        for q, s_q in zip((0.5, 2.0, 3.0), ent.renyi):
            direct = math.log(float(np.sum(w**q))) / (1.0 - q)
            assert s_q == pytest.approx(direct, abs=1e-10)

    def test_renyi_bracket_converges_to_von_neumann(self, modes_ref):
        spec = occupation_spectrum(modes_ref, 100)
        ent = entropies(spec, renyi_orders=(1.0 - 1e-4, 1.0 + 1e-4))
        mid = 0.5 * (ent.renyi[0] + ent.renyi[1])
        assert mid == pytest.approx(ent.von_neumann, abs=1e-6)

    def test_rejects_unnormalized_spectrum(self):
        spectrum = OccupationSpectrum(Z=0.5, weights=np.array([0.5, 0.25]), tail_mass=0.0)
        with pytest.raises(ValueError, match="not normalized"):
            entropies(spectrum)

    def test_rejects_bad_orders(self, modes_ref):
        spec = occupation_spectrum(modes_ref, 20)
        for q in (-1.0, 0.0, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="Renyi order"):
                entropies(spec, renyi_orders=(q,))


class TestModelWavefunction:
    def test_noninteracting_all_kinds_coincide(self):
        m = derive_modes(ModelParams(3.0, 0.0))
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=30)
        x2 = rng.normal(size=30)
        ref = model_wavefunction("exact", m, x1, x2)
        for kind in ("hf", "ks", "natural"):
            np.testing.assert_allclose(model_wavefunction(kind, m, x1, x2), ref, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["exact", "hf", "ks", "natural"])
    def test_unit_normalization(self, modes_ref, kind):
        half = 7.0 / math.sqrt(modes_ref.omega2)
        norm = quad_2d(
            lambda x1, x2: model_wavefunction(kind, modes_ref, x1, x2) ** 2, half, n=601
        )
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_natural_product_has_maximal_overlap(self, modes_ref):
        half = 7.0 / math.sqrt(modes_ref.omega2)
        overlaps = {}
        for kind in ("hf", "ks", "natural"):
            val = quad_2d(
                lambda x1, x2: model_wavefunction(kind, modes_ref, x1, x2)
                * model_wavefunction("exact", modes_ref, x1, x2),
                half,
                n=601,
            )
            overlaps[kind] = val**2
        assert overlaps["natural"] > overlaps["hf"]
        assert overlaps["natural"] > overlaps["ks"]

    def test_virial_split(self, modes_ref):
        # kinetic and full potential (confinement + coupling) each carry E0/2
        half = 7.0 / math.sqrt(modes_ref.omega2)
        n = 701
        x = np.linspace(-half, half, n)
        psi = model_wavefunction("exact", modes_ref, x[:, None], x[None, :])
        d1, d2 = np.gradient(psi, x, x)
        kinetic = 0.5 * np.trapezoid(np.trapezoid(d1**2 + d2**2, x, axis=1), x)
        w0, lam = modes_ref.params.omega0, modes_ref.params.lam
        x1, x2 = x[:, None], x[None, :]
        vmat = 0.5 * w0**2 * (x1**2 + x2**2) - 0.5 * lam * w0**2 * (x1 - x2) ** 2
        potential = np.trapezoid(np.trapezoid(vmat * psi**2, x, axis=1), x)
        assert kinetic == pytest.approx(modes_ref.E0 / 2, rel=2e-3)
        assert potential == pytest.approx(modes_ref.E0 / 2, rel=1e-6)

    def test_rejects_unknown_kind(self, modes_ref):
        with pytest.raises(ValueError):
            model_wavefunction("mp2", modes_ref, 0.0, 0.0)

