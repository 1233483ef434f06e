import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg, sparse

from lramkit import fem, homogenize, modal, rve
from lramkit.errors import PoleError
from lramkit.grid import build_grid
from lramkit.materials import GaussPointFields, isotropic_tensors, uniform_fields

from oracles import chain_matrices, dense_modal, laminate_c11


def _plane_strain_tensor(K, G):
    lam = K - 2.0 * G / 3.0
    return np.array([[lam + 2 * G, lam, 0.0],
                     [lam, lam + 2 * G, 0.0],
                     [0.0, 0.0, G]])


def _striped_fields(grid, phase_a, phase_b):
    """Vertical stripes: left half of the elements phase A, right half B."""
    left = (np.arange(grid.nelem) % grid.nx < grid.nx // 2)[:, None]
    fa, fb = uniform_fields(grid, phase_a), uniform_fields(grid, phase_b)
    return GaussPointFields(*(np.where(left, getattr(fa, f.name), getattr(fb, f.name))
                              for f in dataclasses.fields(GaussPointFields)))


class TestQuasiStatic:
    def test_homogeneous_epoxy_exact(self, epoxy):
        g = build_grid(10, 10, 0.01)
        fields = uniform_fields(g, epoxy)
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        exact = _plane_strain_tensor(epoxy.K, epoxy.G)
        assert np.abs(em.C_eff - exact).max() <= 1e-8 * exact[0, 0]
        assert em.C_eff[0, 0] == pytest.approx(7.61e9)
        assert em.rho_bar == pytest.approx(1180.0, rel=1e-12)

    def test_homogeneous_viscous_exact(self, epoxy):
        g = build_grid(8, 8, 0.01)
        fields = uniform_fields(g, epoxy.with_viscosity(10.0))
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        _, eta_exact = isotropic_tensors(epoxy.with_viscosity(10.0))
        assert np.abs(em.eta_eff - eta_exact).max() <= 1e-10 * eta_exact[0, 0]

    def test_layered_cell_matches_laminate(self, epoxy, rubber):
        g = build_grid(12, 12, 0.01)
        fields = _striped_fields(g, epoxy, rubber)
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        c11a = _plane_strain_tensor(epoxy.K, epoxy.G)[0, 0]
        c11b = _plane_strain_tensor(rubber.K, rubber.G)[0, 0]
        exact = laminate_c11([c11a, c11b], [0.5, 0.5])
        assert em.C_eff[0, 0] == pytest.approx(exact, rel=0.01)

    def test_reciprocity(self, epoxy, steel, rubber):
        g = build_grid(10, 10, 0.01)
        layout = rve.build_layout(g, frame_fraction=0.1)
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(g.nnode)
        chi = rve.chi_at_gauss(layout, phi)
        phases = rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber.with_viscosity(5.0))
        fields = rve.material_fields(layout, chi, phases)
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        assert np.abs(em.C_eff - em.C_eff.T).max() <= 1e-10 * np.abs(em.C_eff).max()
        assert np.abs(em.eta_eff - em.eta_eff.T).max() <= 1e-10 * np.abs(em.eta_eff).max()


class TestInertialReduction:
    def test_three_dof_surrogate(self):
        masses = [3.0, 1.5, 2.5]
        springs = [4.0, 2.0, 5.0, 3.0]
        K, M = chain_matrices(masses, springs)
        vals, vecs = dense_modal(K, M)
        volume = 2.0
        M, K = sparse.csr_matrix(M), sparse.csr_matrix(K)
        red = homogenize.reduced_inertial_system(
            M, K, M, sparse.identity(3, format="csr"),
            np.ones((3, 1)), volume, sum(masses) / volume, 3, delta_tol=1e-6)
        np.testing.assert_allclose(np.sort(red.omega2),
                                   np.sort(vals[red.kept]), rtol=1e-10)
        hand_Q = (np.array(masses) @ vecs) / math.sqrt(volume)
        for col, k in enumerate(red.kept):
            assert abs(red.Q[0, col]) == pytest.approx(abs(hand_Q[k]), rel=1e-10)

    def test_no_viscosity_zero_damping(self, epoxy, steel, rubber):
        g = build_grid(10, 10, 0.01)
        layout = rve.build_layout(g, frame_fraction=0.1)
        phi = _centered_square_phi(layout)
        chi = rve.chi_at_gauss(layout, phi)
        phases = rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber)
        fields = rve.material_fields(layout, chi, phases)
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        assert np.all(em.omega_d == 0.0)

    def test_viscosity_enters_only_the_damping(self, epoxy, steel, rubber):
        g = build_grid(10, 10, 0.01)
        layout = rve.build_layout(g, frame_fraction=0.1)
        chi = rve.chi_at_gauss(layout, _centered_square_phi(layout))
        ems = {}
        cell = None
        for mu in (0.0, 1.0, 10.0):
            phases = rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber.with_viscosity(mu))
            fields = rve.material_fields(layout, chi, phases)
            if cell is None:   # the first resonances of this cell lie near 20 and 83 kHz
                cell = homogenize.cell_modes(g, fields, keep_below_hz=1e5)
            ems[mu] = homogenize.effective_material(cell, fields)
        for em in ems.values():
            assert np.array_equal(em.omega2, ems[0.0].omega2)
            assert np.array_equal(em.Q, ems[0.0].Q)
            assert np.array_equal(em.C_eff, ems[0.0].C_eff)
            assert em.mode_table == ems[0.0].mode_table
        assert ems[0.0].n_modes > 0
        assert np.all(ems[0.0].omega_d == 0.0)
        for name in ("eta_eff", "omega_d"):
            one, ten = getattr(ems[1.0], name), getattr(ems[10.0], name)
            assert np.abs(one).max() > 0.0
            np.testing.assert_allclose(ten, 10.0 * one, rtol=1e-12,
                                       atol=1e-12 * np.abs(ten).max())

    def test_symmetric_cell_vertical_modes_decouple(self, epoxy, steel, rubber):
        g = build_grid(12, 12, 0.01)
        layout = rve.build_layout(g, frame_fraction=1.0 / 12.0)
        phi = _centered_square_phi(layout)
        chi = rve.chi_at_gauss(layout, phi)
        phases = rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber)
        fields = rve.material_fields(layout, chi, phases)
        cell = homogenize.cell_modes(g, fields)
        em = homogenize.effective_material(cell, fields)
        qx = np.abs(em.Q[0])
        qy = np.abs(em.Q[1])
        y_modes = qy > 1e-3 * math.sqrt(em.rho_bar)
        assert np.any(y_modes)
        assert np.all(qx[y_modes] <= 1e-6 * math.sqrt(em.rho_bar))

    def test_one_solve_for_the_modes_below_the_ceiling(self, epoxy, steel, rubber,
                                                        monkeypatch):
        g = build_grid(12, 12, 0.01)
        layout = rve.build_layout(g, frame_fraction=1.0 / 12.0)
        chi = rve.chi_at_gauss(layout, _centered_square_phi(layout))
        fields = rve.material_fields(layout, chi,
                                     rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber))
        M, _ = fem.assemble(g, fields)
        ops = fem.build_constraints(g, fem.BoundaryCondition.PERIODIC_PINNED)
        Mr, Kr = fem.assemble(g, fields, ops)
        vals, vecs = linalg.eigh(Kr.toarray(), Mr.toarray())
        # a ceiling halfway between two modes: 9 below it
        ceiling_hz = math.sqrt(0.5 * (vals[8] + vals[9])) / (2.0 * math.pi)

        solves = []
        solve_smallest = modal.solve_smallest

        def recording(K, M, count, *args, **kwargs):
            solves.append(count)
            return solve_smallest(K, M, count, *args, **kwargs)

        monkeypatch.setattr(modal, "solve_smallest", recording)
        cell = homogenize.cell_modes(g, fields, keep_below_hz=ceiling_hz)
        assert solves == [9]
        np.testing.assert_allclose(cell.solution.eigenvalues, vals[:9], rtol=1e-9)

        # kept: exactly the modes below the ceiling that couple, judged on the
        # dense modes (eigh returns them mass-normalized)
        rho_bar = fields.rho.mean()
        coupling = np.asarray(ops.I_rigid.T @ (M @ (ops.P @ vecs[:, :9]))) / g.area
        strength = np.linalg.norm(coupling, axis=0) / math.sqrt(rho_bar / g.area)
        # no dense mode sits near the threshold, so the split is unambiguous
        assert np.all(np.abs(np.log10(strength / 1e-3)) > 1.0)
        expected = np.flatnonzero(strength > 1e-3)
        assert expected.size and expected.size < 9
        assert cell.kept.tolist() == expected.tolist()
        np.testing.assert_allclose(cell.omega2, vals[expected], rtol=1e-9)

def _centered_square_phi(layout):
    """Level set of a centered square inclusion covering ~40% of the cell."""
    g = layout.grid
    c = g.centroid
    half = 0.32 * g.width
    dist = np.max(np.abs(layout.grid.coords - c), axis=1)
    return np.where(dist <= half, 1.0, -1.0)


class TestEffectiveDensity:
    def _toy(self, rho_bar=1.0, q=1.0, om2=1.0, od=0.0):
        return homogenize.EffectiveMaterial(
            rho_bar=rho_bar, C_eff=np.eye(3), eta_eff=np.zeros((3, 3)),
            Q=np.array([[q], [0.0]]), omega2=np.array([om2]),
            omega_d=np.array([[od]]), cell_size=0.1, volume=0.01)

    def test_static_limit(self):
        em = self._toy()
        np.testing.assert_allclose(homogenize.effective_density(em, 0.0),
                                   np.eye(2))

    def test_single_mode_scalar_algebra(self):
        em = self._toy()
        for w in (0.5, 0.9, 1.2, 1.3):
            rho = homogenize.effective_density(em, w)[0, 0]
            assert rho == pytest.approx(1.0 + w ** 2 / (1.0 - w ** 2), rel=1e-12)
        # negative throughout 1 < w^2 < 2
        for w2 in (1.1, 1.5, 1.9):
            assert homogenize.effective_density(em, math.sqrt(w2))[0, 0].real < 0.0

    def test_mass_amplification_below_resonance(self):
        em = self._toy()
        rho = homogenize.effective_density(em, 0.7)[0, 0].real
        assert rho > em.rho_bar

    def test_damped_imaginary_part_nonnegative(self):
        em = self._toy(od=0.3)
        for w in (0.5, 1.0, 1.5, 3.0):
            assert homogenize.effective_density(em, w)[0, 0].imag >= 0.0

    def test_pole_error(self):
        em = self._toy()
        with pytest.raises(PoleError):
            homogenize.effective_density(em, 1.0)

    def test_bandgap_edges_match_scalar_theory(self):
        # zero of rho_eff at w^2 = rho Omega^2 / (rho - Q^2)
        em = self._toy(rho_bar=1.0, q=math.sqrt(0.5), om2=1.0)
        lo, hi = homogenize.bandgap_edges(em, axis=0, f_max_hz=10.0)
        assert lo == pytest.approx(1.0 / (2 * math.pi), rel=1e-9)
        assert hi == pytest.approx(math.sqrt(2.0) / (2 * math.pi), rel=1e-4)


class TestReport:
    def test_report_contents(self, epoxy, tmp_path):
        g = build_grid(8, 8, 0.01)
        fields = uniform_fields(g, epoxy)
        cell = homogenize.cell_modes(g, fields, keep_below_hz=1e5)   # above 37 kHz
        em = homogenize.effective_material(cell, fields)
        path = tmp_path / "report.txt"
        homogenize.write_report(em, path)
        text = path.read_text()
        assert "rho_bar_kg_m3 = 1180" in text
        assert "C_eff_Pa = " in text
        assert "mode_0 = " in text
        assert len(em.C_eff.ravel()) == 9
