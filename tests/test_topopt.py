import math

import numpy as np
import pytest

from lramkit import fem, rve, topopt
from lramkit.errors import FeasibilityError
from lramkit.grid import build_grid
from lramkit.materials import MaterialPhase

from oracles import dense_modal


class TestFeasibilityLimit:
    def test_table_materials(self, materials):
        w = topopt.feasibility_lower_limit(materials.values(), 0.01)
        assert w == pytest.approx(937.0, rel=2e-3)      # ~149.1 Hz
        assert w / (2 * math.pi) == pytest.approx(149.1, rel=2e-3)

    def test_unit_phase(self):
        p = MaterialPhase("u", rho=1.0, K=1.0 - 4.0 / 3.0 * 0.25 + 0.0, G=0.25)
        # K + 4G/3 = 1 exactly
        assert p.p_wave_modulus == pytest.approx(1.0)
        assert topopt.feasibility_lower_limit([p], 1.0) == pytest.approx(1.0)

    def test_doubling_cell_halves_bound(self, materials):
        w1 = topopt.feasibility_lower_limit(materials.values(), 0.01)
        w2 = topopt.feasibility_lower_limit(materials.values(), 0.02)
        assert w2 == pytest.approx(w1 / 2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            topopt.feasibility_lower_limit([], 1.0)


class TestCost:
    def test_exact_fit_alpha_one(self):
        lam = (2 * math.pi * 1000.0) ** 2
        c = topopt.evaluate_cost(lam, 10.0 * lam, lam, alpha=1.0)
        assert c.Pi == pytest.approx(0.0, abs=1e-30)
        assert c.f == 0.0

    def test_spec_example_half_alpha(self):
        lam = (2 * math.pi * 800.0) ** 2
        c = topopt.evaluate_cost(lam, math.e * lam, lam, alpha=0.5)
        assert c.f == 0.0
        expected_g = math.log(lam) / (math.log(lam) + 1.0)
        assert c.g == pytest.approx(expected_g, rel=1e-12)
        assert c.Pi == pytest.approx(0.5 * expected_g ** 2, rel=1e-12)

    def test_monotone_in_unrestricted(self):
        lam = 1e7
        pis = [topopt.evaluate_cost(lam, lam * s, lam, alpha=0.5).Pi
               for s in (1.5, 3.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(pis, pis[1:]))

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lam_t = 10 ** rng.uniform(4, 10)
            lam_s = 10 ** rng.uniform(4, 10)
            lam_u = lam_s * 10 ** rng.uniform(0.01, 3)
            alpha = rng.uniform(0, 1)
            c = topopt.evaluate_cost(lam_s, lam_u, lam_t, alpha)
            assert 0.0 <= c.Pi <= 1.0

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            topopt.evaluate_cost(1e6, 1e7, 1e6, alpha=1.5)

    def test_small_lambda_rejected(self):
        with pytest.raises(ValueError):
            topopt.evaluate_cost(0.5, 1e7, 1e6, alpha=1.0)


@pytest.fixture()
def state():
    layout = rve.build_layout(build_grid(20, 20, 0.01))
    return topopt.LevelSetState(layout=layout, phi=np.ones(layout.grid.nnode))


class TestHJStep:

    def test_zero_sensitivity_no_change(self, state):
        out = topopt.hj_step(state, np.zeros_like(state.phi), 1e-3, 1.0)
        np.testing.assert_array_equal(out.phi, state.phi)
        assert out.iteration == state.iteration + 1

    def test_uniform_positive_decreases_design_only(self, state):
        sens = np.ones_like(state.phi)
        out = topopt.hj_step(state, sens, dt=1e-3, c1=2.0)
        mask = state.layout.design_nodes
        np.testing.assert_allclose(out.phi[mask], 1.0 - 2e-3)
        np.testing.assert_array_equal(out.phi[~mask], 1.0)

    def test_clamped(self, state):
        sens = np.full_like(state.phi, -1.0)
        out = topopt.hj_step(state, sens, dt=1.0, c1=100.0, clamp=10.0)
        assert out.phi[state.layout.design_nodes].max() == pytest.approx(10.0)


class TestEigenSensitivity:
    def test_sign_structure(self, epoxy, steel, rubber):
        """Translation-dominated mode: mass term negative, stiffness ~ zero."""
        g = build_grid(10, 10, 0.01)
        layout = rve.build_layout(g)
        phases = rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber)
        lam = 1e7
        mode = np.zeros(g.ndof)
        mode[0::2] = 1.0   # uniform x-translation: zero strain
        chi = np.ones((g.nelem, 4))
        dlam = topopt._eigenvalue_sensitivity_gp(g, mode, lam, chi, phases)
        assert np.all(dlam < 0.0)
        # pure strain field, massless motion: positive stiffness term
        ops = fem.build_constraints(g, fem.BoundaryCondition.FREE)
        mode2 = ops.Y @ np.array([1.0, 0.0, 0.0])
        dlam2 = topopt._eigenvalue_sensitivity_gp(g, mode2, 0.0, chi, phases)
        assert np.all(dlam2 > 0.0)

    def test_alpha_one_drops_bandgap_term(self, epoxy, steel, rubber):
        g = build_grid(12, 12, 0.01)
        layout = rve.build_layout(g)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        st1 = topopt.OptimizerSettings(target_f_hz=1000.0, alpha=1.0)
        ops_r = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                      horizontal_only=True)
        ops_u = fem.build_constraints(g, fem.BoundaryCondition.FREE,
                                      horizontal_only=True)
        chi = rve.chi_at_gauss(layout, np.ones(g.nnode))
        ana = topopt.analyze_design(layout, chi, phases, st1, ops_r, ops_u)
        field = topopt.sensitivity_field(layout, ana, phases, st1)
        # rebuild the same field by hand from the restricted mode only
        dlam = topopt._eigenvalue_sensitivity_gp(
            g, ana.mode_star, ana.lambda_star1, chi, phases)
        lt = math.log(st1.lambda_target)
        ls = math.log(ana.lambda_star1)
        a_f = 4 * ana.cost.f / (ana.lambda_star1 * lt) * (lt / (ls + lt)) ** 2
        manual = a_f * dlam
        nodal = np.zeros(g.nnode)
        cnt = np.zeros(g.nnode)
        nodes = g.elements[layout.design_elements]
        for k in range(4):
            np.add.at(nodal, nodes[:, k], manual[layout.design_elements, k])
            np.add.at(cnt, nodes[:, k], 1.0)
        np.divide(nodal, cnt, out=nodal, where=cnt > 0)
        nodal[~layout.design_nodes] = 0.0
        np.testing.assert_allclose(field, nodal, rtol=1e-12, atol=1e-30)


class TestSensitivityVsBruteForce:
    def _flip_check(self, dense, soft, seed=4, n_elems=6, rel=0.10):
        """Predicted first-order eigenvalue change of single Gauss-point
        material flips vs brute-force reassembly and dense resolve."""
        g = build_grid(8, 8, 0.01)
        layout = rve.build_layout(g, frame_fraction=0.13)
        frame = MaterialPhase("f", rho=dense.rho, K=dense.K * 100, G=dense.G * 100)
        phases = rve.PhaseSet(frame=frame, dense=dense, soft=soft, exponent=2.0)
        rng = np.random.default_rng(seed)
        phi = rng.choice([-1.0, 1.0], size=g.nnode)
        chi = rve.chi_at_gauss(layout, phi)
        ops = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                    horizontal_only=True)

        def lam1(chi_in):
            fields = rve.material_fields(layout, chi_in, phases)
            M, K = fem.assemble(g, fields, validate=False)
            vals, vecs = dense_modal((ops.P.T @ K @ ops.P).toarray(),
                                     (ops.P.T @ M @ ops.P).toarray())
            return vals[0], vecs

        lam0, vecs = lam1(chi)
        mode = np.asarray(ops.P @ vecs[:, 0]).ravel()
        dlam = topopt._eigenvalue_sensitivity_gp(g, mode, lam0, chi, phases)
        gp_vol = g.hx * g.hy / 4.0

        design_els = np.flatnonzero(layout.design_elements)
        rng2 = np.random.default_rng(17)
        checked = 0
        for e in rng2.permutation(design_els)[:n_elems]:
            for gp in (0, 2):
                chi_f = chi.copy()
                chi_f[e, gp] = 1.0 - chi_f[e, gp]
                lam_f, _ = lam1(chi_f)
                actual = lam_f - lam0
                sign = 1.0 if chi_f[e, gp] > chi[e, gp] else -1.0
                predicted = sign * dlam[e, gp] * gp_vol
                if abs(actual) < 1e-7 * lam0:
                    continue
                assert predicted == pytest.approx(actual, rel=rel)
                checked += 1
        assert checked >= n_elems

    def test_stiffness_term_small_contrast(self):
        dense = MaterialPhase("d", rho=1000.0, K=1e9, G=4e8)
        soft = MaterialPhase("s", rho=1000.0, K=1e9 / 1.1, G=4e8 / 1.1)
        self._flip_check(dense, soft)

    def test_density_term_small_contrast(self):
        dense = MaterialPhase("d", rho=1100.0, K=1e9, G=4e8)
        soft = MaterialPhase("s", rho=1000.0, K=1e9, G=4e8)
        self._flip_check(dense, soft)


class TestOptimize:
    def test_target_at_initial_design_converges_fast(self, epoxy, steel, rubber):
        g = build_grid(12, 12, 0.01)
        layout = rve.build_layout(g)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        probe = topopt.OptimizerSettings(target_f_hz=1000.0, alpha=1.0)
        ops_r = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                      horizontal_only=True)
        ops_u = fem.build_constraints(g, fem.BoundaryCondition.FREE,
                                      horizontal_only=True)
        chi0 = rve.chi_at_gauss(layout, np.ones(g.nnode))
        ana0 = topopt.analyze_design(layout, chi0, phases, probe, ops_r, ops_u)
        f0 = math.sqrt(ana0.lambda_star1) / (2 * math.pi)

        st = topopt.OptimizerSettings(target_f_hz=f0, alpha=1.0, max_iters=10)
        res = topopt.optimize(layout, phases, st)
        assert res.converged
        assert len(res.history) - 1 <= 2
        assert res.history[-1].Pi == pytest.approx(0.0, abs=1e-20)

    def test_infeasible_target_rejected(self, epoxy, steel, rubber):
        layout = rve.build_layout(build_grid(12, 12, 0.01))
        phases = rve.scaled_phases(epoxy, steel, rubber)
        st = topopt.OptimizerSettings(target_f_hz=50.0, alpha=1.0)
        with pytest.raises(FeasibilityError):
            topopt.optimize(layout, phases, st)

    def test_observer_sees_every_iteration(self, epoxy, steel, rubber):
        g = build_grid(12, 12, 0.01)
        layout = rve.build_layout(g)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        seen = []

        def obs(it, phi, row):
            seen.append((it, phi.shape, row.Pi))
            phi[:] = 1e9   # must be a copy: mutation may not leak back

        st = topopt.OptimizerSettings(target_f_hz=4000.0, alpha=1.0, max_iters=3)
        res = topopt.optimize(layout, phases, st, observer=obs)
        assert [s[0] for s in seen] == list(range(len(res.history)))
        assert np.all(np.abs(res.state.phi) <= topopt.CLAMP)

    def test_frame_volume_constant_and_history_schema(self, epoxy, steel, rubber):
        g = build_grid(16, 16, 0.01)
        layout = rve.build_layout(g)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        st = topopt.OptimizerSettings(target_f_hz=2000.0, alpha=1.0, max_iters=8)
        res = topopt.optimize(layout, phases, st)
        design_frac = 1.0 - layout.frame_volume_fraction
        for row in res.history:
            assert row.vol_frac_dense + row.vol_frac_soft == pytest.approx(design_frac)
            assert 0.0 <= row.Pi <= 1.0

    def test_strict_descent_stops_at_first_stall(self, epoxy, steel, rubber):
        layout = rve.build_layout(build_grid(20, 20, 0.01))
        phases = rve.scaled_phases(epoxy, steel, rubber)
        st = topopt.OptimizerSettings(target_f_hz=1000.0, alpha=0.5)
        res = topopt.optimize(layout, phases, st)
        assert res.stagnated and not res.converged
        pis = [row.Pi for row in res.history]
        assert len(pis) >= 2
        assert all(b < a for a, b in zip(pis, pis[1:]))
        assert res.analysis.cost.Pi == res.history[-1].Pi


class TestOptimizerPencils:
    """Eigen residuals of the scaled (quasi-rigid frame, quasi-massless coating)
    restricted pencil of the optimizer, on a steel disk at 20x20."""

    def test_restricted_solve_accurate(self, epoxy, steel, rubber, monkeypatch):
        g = build_grid(20, 20, 0.01)
        layout = rve.build_layout(g, 0.05)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        xy = g.coords - g.centroid
        chi = rve.chi_at_gauss(layout, 0.003 - np.hypot(xy[:, 0], xy[:, 1]))
        st = topopt.OptimizerSettings(target_f_hz=1000.0, alpha=0.5)
        ops_r = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                      horizontal_only=True)
        ops_u = fem.build_constraints(g, fem.BoundaryCondition.FREE,
                                      horizontal_only=True)
        ana = topopt.analyze_design(layout, chi, phases, st, ops_r, ops_u)
        assert ana.restricted.residuals.max() <= 1e-8

        # one ulp more on every stiffness entry: lambda*_1 must move as the
        # pencil itself does to first order, phi^T dK phi for the normalized mode
        assemble = fem.assemble

        def bumped(*args, **kwargs):
            M, K = assemble(*args, **kwargs)
            K = K.copy()
            K.data *= 1.0 + 2.0 ** -52
            return M, K

        monkeypatch.setattr(fem, "assemble", bumped)
        ana2 = topopt.analyze_design(layout, chi, phases, st, ops_r, ops_u)
        fields = rve.material_fields(layout, chi, phases, include_viscosity=False)
        _, K = assemble(g, fields, validate=False)
        _, K2 = bumped(g, fields, validate=False)
        phi = ana.mode_star
        predicted = float(phi @ ((K2 - K) @ phi)) / ana.lambda_star1
        moved = ana2.lambda_star1 / ana.lambda_star1 - 1.0
        assert abs(moved - predicted) <= 1e-10
