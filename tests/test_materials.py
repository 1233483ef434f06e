import numpy as np
import pytest

from lramkit.errors import InvalidMaterialError
from lramkit.materials import (
    AIR_DENSITY,
    AIR_SOUND_SPEED,
    GaussPointFields,
    InterpolationScheme,
    MaterialPhase,
    builtin_materials,
    interpolate,
    isotropic_tensors,
)


class TestRegistry:
    def test_table_values(self):
        mats = builtin_materials()
        assert mats["epoxy"].rho == 1180.0
        assert mats["epoxy"].K == pytest.approx(5.49e9)
        assert mats["epoxy"].G == pytest.approx(1.59e9)
        assert mats["steel"].rho == 7780.0
        assert mats["steel"].K == pytest.approx(1.72e11)
        assert mats["steel"].G == pytest.approx(7.96e10)
        assert mats["silicone_rubber"].rho == 1300.0
        assert mats["silicone_rubber"].K == pytest.approx(0.63e6)
        assert mats["silicone_rubber"].G == pytest.approx(0.04e6)

    def test_air_constants(self):
        assert AIR_DENSITY == pytest.approx(1.2)
        assert AIR_SOUND_SPEED == pytest.approx(344.0)

    @pytest.mark.parametrize("kwargs", [
        dict(rho=-1.0, K=1.0, G=1.0),
        dict(rho=1.0, K=0.0, G=1.0),
        dict(rho=1.0, K=1.0, G=-2.0),
        dict(rho=1.0, K=1.0, G=1.0, mu_visc=-0.5),
    ])
    def test_phase_invariants(self, kwargs):
        with pytest.raises(InvalidMaterialError):
            MaterialPhase("bad", **kwargs)


class TestIsotropicTensors:
    def test_epoxy_c11(self, epoxy):
        C, _ = isotropic_tensors(epoxy)
        assert C[0, 0] == pytest.approx(7.61e9)          # K + 4G/3
        assert C[0, 1] == pytest.approx(5.49e9 - 2 / 3 * 1.59e9)
        assert C[2, 2] == pytest.approx(1.59e9)

    def test_zero_viscosity_gives_zero_eta(self, epoxy):
        _, eta = isotropic_tensors(epoxy)
        assert np.all(eta == 0.0)

    def test_deviatoric_viscous_response(self, rubber):
        _, eta = isotropic_tensors(rubber.with_viscosity(10.0))
        # pure shear rate: sigma_xy = mu * gamma'
        shear_rate = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(eta @ shear_rate, [0.0, 0.0, 10.0])
        # uniaxial rate: only the deviatoric part responds
        assert eta[0, 0] == pytest.approx(40.0 / 3.0)
        # hydrostatic (plane) rate produces no pressure from the 3D projector
        hydro = np.array([1.0, 1.0, 0.0])
        resp = eta @ hydro
        assert resp[0] == pytest.approx(2 / 3 * 10.0)
        assert resp[0] == pytest.approx(resp[1])

    def test_spd(self, steel):
        C, eta = isotropic_tensors(steel.with_viscosity(3.0))
        assert np.linalg.eigvalsh(C).min() > 0.0
        assert np.linalg.eigvalsh(eta).min() > -1e-12


class TestInterpolation:
    def test_endpoint_dense(self):
        s = InterpolationScheme(h_plus=4.0, h_minus=1.0, n=2.0)
        val, dv = interpolate(1.0, s)
        assert val == 4.0                        # exact, not approximate
        assert dv == pytest.approx(2 * 2 * (2 - 1))

    def test_endpoint_soft(self):
        s = InterpolationScheme(h_plus=4.0, h_minus=1.0, n=2.0)
        val, _ = interpolate(0.0, s)
        assert val == 1.0

    def test_midpoint(self):
        s = InterpolationScheme(h_plus=4.0, h_minus=1.0, n=2.0)
        val, _ = interpolate(0.5, s)
        assert val == pytest.approx((0.5 * 2 + 0.5 * 1) ** 2)  # 2.25

    def test_out_of_range(self):
        s = InterpolationScheme(h_plus=4.0, h_minus=1.0)
        with pytest.raises(ValueError):
            interpolate(1.2, s)
        with pytest.raises(ValueError):
            interpolate(-0.1, s)

    def test_monotone_for_any_exponent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            hp = 10 ** rng.uniform(-3, 9)
            hm = hp * 10 ** rng.uniform(-8, -0.1)
            n = 10 ** rng.uniform(-0.5, 1.0)
            s = InterpolationScheme(h_plus=hp, h_minus=hm, n=n)
            chi = np.linspace(0.0, 1.0, 33)
            vals, _ = interpolate(chi, s)
            assert np.all(np.diff(vals) > -1e-12 * hp)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            hp = 10 ** rng.uniform(-2, 8)
            hm = hp * 10 ** rng.uniform(-6, -0.2)
            n = rng.uniform(0.5, 4.0)
            s = InterpolationScheme(h_plus=hp, h_minus=hm, n=n)
            chi = rng.uniform(0.05, 0.95)
            h = 1e-7
            vp, _ = interpolate(chi + h, s)
            vm, _ = interpolate(chi - h, s)
            _, dv = interpolate(chi, s)
            fd = (vp - vm) / (2 * h)
            assert dv == pytest.approx(fd, rel=1e-6)

    def test_linear_exponent_gives_difference(self):
        s = InterpolationScheme(h_plus=9.0, h_minus=2.0, n=1.0)
        _, dv = interpolate(0.3, s)
        assert dv == pytest.approx(7.0)


class TestGaussPointFields:
    @pytest.mark.parametrize("name", ["rho", "K", "G", "mu_visc"])
    def test_negative_entry_rejected(self, name):
        """One slightly negative entry of any field is caught: C = K VOL + G DEV
        and eta = mu DEV are PSD only for nonnegative moduli."""
        f = GaussPointFields(*(np.ones((2, 4)) for _ in range(4)))
        f.validate()
        getattr(f, name)[1, 2] = -1e-30
        with pytest.raises(InvalidMaterialError, match=f"negative {name} "):
            f.validate()
