import math

import numpy as np
import pytest

from lramkit import homogenize, panel
from lramkit.errors import ResonanceSingularityError
from lramkit.grid import build_grid
from lramkit.materials import MaterialPhase, uniform_fields

from oracles import air_solid_air_rt, mass_law_tl_db


@pytest.fixture(scope="module")
def steel_em(steel):
    g = build_grid(8, 8, 0.01)
    fields = uniform_fields(g, steel)
    return homogenize.effective_material(homogenize.cell_modes(g, fields), fields)


@pytest.fixture(scope="module")
def epoxy_em(epoxy):
    g = build_grid(8, 8, 0.01)
    fields = uniform_fields(g, epoxy)
    return homogenize.effective_material(homogenize.cell_modes(g, fields), fields)


def _toy_resonant_em(cell=0.01):
    om1 = 2 * math.pi * 700.0
    return homogenize.EffectiveMaterial(
        rho_bar=3000.0, C_eff=np.diag([8e9, 8e9, 3e9]),
        eta_eff=np.zeros((3, 3)), Q=np.array([[0.7 * math.sqrt(3000.0)], [0.0]]),
        omega2=np.array([om1 ** 2]), omega_d=np.zeros((1, 1)),
        cell_size=cell, volume=cell * cell)


def _anisotropic_em(damped=True):
    """Record with the xx-xy couplings C13, eta13 and rho_xy that isotropic
    cells do not have: two resonances each move in x and in y."""
    om = 2 * math.pi * np.array([700.0, 1900.0])
    C = np.array([[8e9, 2e9, 1.5e9], [2e9, 7e9, 0.5e9], [1.5e9, 0.5e9, 3e9]])
    eta = np.array([[5e4, 1e4, 8e3], [1e4, 4e4, 2e3], [8e3, 2e3, 2e4]])
    return homogenize.EffectiveMaterial(
        rho_bar=3000.0, C_eff=C, eta_eff=eta if damped else np.zeros((3, 3)),
        Q=math.sqrt(3000.0) * np.array([[0.7, 0.2], [0.3, 0.4]]), omega2=om ** 2,
        omega_d=np.array([[150.0, 20.0], [20.0, 90.0]]) if damped else np.zeros((2, 2)),
        cell_size=0.01, volume=1e-4)


class TestAssembleMacro:
    def test_static_limit_is_stiffness(self, steel_em):
        """At w = 0 only the stiffness on the step unknowns is left: zero on
        the translations (-R and u_y of the left face), and a uniform x-strain e
        (equal x-steps) stores C11 e^2 over the slice area."""
        p = panel.PanelModel(steel_em)
        D = panel.assemble_macro(p, 0.0)
        np.testing.assert_allclose(D, p._dense[0], rtol=1e-12)
        nx, e = p.nx, 1e-3
        assert not D[[0, nx + 1]].any() and not D[:, [0, nx + 1]].any()
        z = np.zeros(D.shape[0])
        z[1:nx + 1] = e * p.thickness / nx
        assert (z @ D @ z).real == pytest.approx(
            steel_em.C_eff[0, 0] * e ** 2 * p.thickness * p.height, rel=1e-12)

    def test_elastic_panel_real_symmetric(self, steel_em):
        p = panel.PanelModel(steel_em)
        D = panel.assemble_macro(p, 2 * math.pi * 500.0)
        assert np.abs(D.imag).max() == 0.0
        assert np.abs(D - D.T).max() <= 1e-9 * np.abs(D).max()

    def test_mass_amplification_below_resonance(self):
        em = _toy_resonant_em()
        w = 2 * math.pi * 350.0    # below the 700 Hz resonance
        rho = homogenize.effective_density(em, w)
        assert rho[0, 0].real > em.rho_bar


class TestAnisotropicSlice:
    def test_stiffness_and_damping_store_xx_xy_moduli(self):
        """A uniform x-strain e, a uniform shear g and their cross term store
        C11 e^2, C33 g^2 and C13 e g over the slice area; eta alike."""
        em = _anisotropic_em()
        p = panel.PanelModel(em, nx=5)
        nx, h, area = p.nx, p.thickness / p.nx, p.thickness * p.height
        ex, gy = np.zeros(2 * nx + 2), np.zeros(2 * nx + 2)
        ex[1:nx + 1] = 1e-3 * h
        gy[nx + 2:] = 2e-3 * h
        for A, T in zip(p._dense[:2], (em.C_eff, em.eta_eff)):
            assert ex @ A @ ex == pytest.approx(T[0, 0] * 1e-6 * area, rel=1e-12)
            assert gy @ A @ gy == pytest.approx(T[2, 2] * 4e-6 * area, rel=1e-12)
            assert ex @ A @ gy == pytest.approx(T[0, 2] * 2e-6 * area, rel=1e-12)

    def test_translation_recovers_density_tensor(self):
        """Unit translations in x and y pick rho_ab times the slice area out
        of rho_xx Gxx + rho_yy Gyy + rho_xy Gxy."""
        em = _anisotropic_em()
        p = panel.PanelModel(em, n_cells=3)
        rho = homogenize.effective_density(em, 2 * math.pi * 1200.0)
        assert abs(rho[0, 1]) > 0.1 * em.rho_bar
        _, _, Gxx, Gyy, Gxy = p._dense
        M = rho[0, 0] * Gxx + rho[1, 1] * Gyy + rho[0, 1] * Gxy
        area = p.thickness * p.height
        u = np.zeros((2, 2 * p.nx + 2))
        u[0, 0] = u[1, p.nx + 1] = 1.0
        np.testing.assert_allclose(u @ M @ u.T, rho * area, rtol=1e-12)

    def test_lossless_identity_with_couplings(self):
        p = panel.PanelModel(_anisotropic_em(damped=False))
        res = panel.tl_sweep(p, np.linspace(5.0, 3000.0, 600))
        assert not res.failures
        assert np.abs(res.energy - 1.0).max() <= 1e-13


class TestSolveRT:
    def test_singular_system_raises(self, steel_em):
        """With the panel's matrices zeroed the macro system keeps only the
        rank-2 air loading: a zero pivot, reported, not warned about."""
        p = panel.PanelModel(steel_em)
        p._dense = tuple(np.zeros_like(a) for a in p._dense)
        with pytest.raises(ResonanceSingularityError, match="singular"):
            panel.solve_RT(p, 2 * math.pi * 500.0)

    def test_air_like_panel_transmits_fully(self):
        """Impedance-matched panel (rho_a, longitudinal speed v_a).

        The match is realized with a healthy Poisson ratio: fully
        incompressible-like moduli would just probe Q4 volumetric locking
        instead of the coupling formulation.
        """
        g = build_grid(8, 8, 0.01)
        c11 = 1.2 * 344.0 ** 2
        air_solid = MaterialPhase("airish", rho=1.2, K=0.6 * c11, G=0.3 * c11)
        fields = uniform_fields(g, air_solid)
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        p = panel.PanelModel(em, nx=8)
        R, T = panel.solve_RT(p, 2 * math.pi * 40.0)
        assert abs(T) == pytest.approx(1.0, abs=1e-6)
        assert abs(R) == pytest.approx(0.0, abs=1e-6)

    def test_steel_panel_matches_transfer_matrix(self, steel_em):
        p = panel.PanelModel(steel_em)
        for f in (50.0, 440.0, 1000.0, 2222.0, 3000.0):
            R, T = panel.solve_RT(p, 2 * math.pi * f)
            Ro, To = air_solid_air_rt(steel_em.rho_bar, steel_em.C_eff[0, 0],
                                      p.thickness, f)
            tl = -20 * math.log10(abs(T))
            tlo = -20 * math.log10(abs(To))
            assert tl == pytest.approx(tlo, abs=0.1)

    def test_coefficients_match_transfer_matrix(self, steel_em):
        """R and T as complex numbers, phase and sign included: a TL check
        sees neither."""
        p = panel.PanelModel(steel_em, nx=8)
        for f in (50.0, 1000.0, 3000.0):
            R, T = panel.solve_RT(p, 2 * math.pi * f)
            Ro, To = air_solid_air_rt(steel_em.rho_bar, steel_em.C_eff[0, 0],
                                      p.thickness, f)
            assert abs(R - Ro) <= 1e-8
            assert abs(T - To) <= 1e-5 * abs(To)

    def test_mass_law_magnitude(self, steel_em):
        p = panel.PanelModel(steel_em)
        _, T = panel.solve_RT(p, 2 * math.pi * 1000.0)
        tl = -20 * math.log10(abs(T))
        estimate = mass_law_tl_db(steel_em.rho_bar * p.thickness, 1000.0)
        assert tl == pytest.approx(55.0, abs=1.0)
        assert tl == pytest.approx(estimate, abs=1.0)

    def test_air_wavenumber_constant(self):
        # kappa_a = w / v_a at 1 kHz
        assert 2 * math.pi * 1000.0 / 344.0 == pytest.approx(18.26, abs=0.01)

    def test_lossless_energy_conservation(self, epoxy_em):
        p = panel.PanelModel(epoxy_em)
        for f in (100.0, 900.0, 2700.0):
            R, T = panel.solve_RT(p, 2 * math.pi * f)
            assert abs(R) ** 2 + abs(T) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_mesh_independence(self, steel_em):
        p44 = panel.PanelModel(steel_em, nx=4)
        p88 = panel.PanelModel(steel_em, nx=8)
        for f in (300.0, 1500.0, 2900.0):
            _, T1 = panel.solve_RT(p44, 2 * math.pi * f)
            _, T2 = panel.solve_RT(p88, 2 * math.pi * f)
            tl1 = -20 * math.log10(abs(T1))
            tl2 = -20 * math.log10(abs(T2))
            assert abs(tl1 - tl2) < 0.05

    def test_multi_cell_thickness(self, steel_em):
        p = panel.PanelModel(steel_em, n_cells=3)
        assert p.thickness == pytest.approx(0.03)
        f = 800.0
        _, T = panel.solve_RT(p, 2 * math.pi * f)
        _, To = air_solid_air_rt(steel_em.rho_bar, steel_em.C_eff[0, 0], 0.03, f)
        assert -20 * math.log10(abs(T)) == pytest.approx(
            -20 * math.log10(abs(To)), abs=0.1)


class TestTLSweep:
    def test_sweep_and_bands(self):
        em = _toy_resonant_em()
        p = panel.PanelModel(em)
        freqs = np.linspace(5.0, 3000.0, 300)
        res = panel.tl_sweep(p, freqs)
        assert not res.failures
        assert np.all(np.isfinite(res.tl_db))
        bands = res.bands(40.0)
        assert bands, "expected at least one >40 dB band near the resonance"
        lo, hi = bands[0]
        peak_f = res.frequencies_hz[np.argmax(res.tl_db)]
        assert lo <= peak_f <= hi
        # TL peak sits at the local resonance
        assert peak_f == pytest.approx(700.0, rel=0.05)

    def test_energy_identity_lossless(self, epoxy_em):
        p = panel.PanelModel(epoxy_em)
        res = panel.tl_sweep(p, np.linspace(5.0, 3000.0, 120))
        np.testing.assert_allclose(res.energy, 1.0, atol=1e-8)

    @pytest.mark.parametrize("em_name", ["epoxy_em", "steel_em"])
    def test_energy_identity_at_roundoff(self, em_name, request):
        """Plain double precision meets the lossless identity at roundoff."""
        p = panel.PanelModel(request.getfixturevalue(em_name))
        res = panel.tl_sweep(p, np.linspace(5.0, 3000.0, 600))
        assert np.abs(res.energy - 1.0).max() <= 1e-13

    def test_damped_panel_dissipates(self):
        em0 = _toy_resonant_em()
        em = homogenize.EffectiveMaterial(
            rho_bar=em0.rho_bar, C_eff=em0.C_eff,
            eta_eff=np.diag([5e4, 5e4, 2e4]), Q=em0.Q, omega2=em0.omega2,
            omega_d=np.array([[150.0]]), cell_size=em0.cell_size,
            volume=em0.volume)
        p = panel.PanelModel(em)
        res = panel.tl_sweep(p, np.linspace(5.0, 3000.0, 120))
        assert np.all(res.energy <= 1.0 + 1e-8)
        assert res.energy.min() < 1.0 - 1e-4   # really absorbing near resonance

    def test_nonpositive_frequency_rejected(self, epoxy_em):
        p = panel.PanelModel(epoxy_em)
        with pytest.raises(ValueError):
            panel.tl_sweep(p, np.array([0.0, 100.0]))

    def test_pole_failure_recorded_without_nudging(self):
        em = _toy_resonant_em()
        p = panel.PanelModel(em)
        pole = em.poles_hz()[0]
        res = panel.tl_sweep(p, np.array([pole, 1500.0]), nudge=False)
        assert len(res.failures) == 1
        assert res.failures[0][0] == pytest.approx(pole)
        assert np.isfinite(res.tl_db[1])

    def test_csv_and_band_report(self, steel_em, tmp_path):
        p = panel.PanelModel(steel_em)
        res = panel.tl_sweep(p, np.linspace(100.0, 500.0, 5))
        csv = tmp_path / "tl.csv"
        res.to_csv(csv)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "f_Hz,Re_R,Im_R,Re_T,Im_T,TL_dB"
        assert len(lines) == 6
        rep = tmp_path / "bands.txt"
        res.write_band_report(rep, threshold_db=30.0)
        for line in rep.read_text().strip().splitlines():
            lo, hi, thr = (float(v) for v in line.split())
            assert lo <= hi and thr == 30.0
