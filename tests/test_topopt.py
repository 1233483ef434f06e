import math
import os
from dataclasses import astuple, replace

import numpy as np
import pytest

from lramkit import fem, forkpool, modal, rve, topopt
from lramkit.errors import FeasibilityError, SolverFailureError
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

    def test_massless_phases_unbounded(self):
        p = MaterialPhase("m", rho=0.0, K=1.0, G=1.0)
        assert topopt.feasibility_lower_limit([p, p], 1.0) == math.inf


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
        with pytest.raises(ValueError):
            topopt.evaluate_cost(1e6, 0.5, 1e6, alpha=1.0)
        with pytest.raises(ValueError):
            topopt.fit_term(1e6, 0.5)

    def test_fit_term_is_the_cost_f(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam_t, lam_s = 10 ** rng.uniform(4, 10, size=2)
            c = topopt.evaluate_cost(lam_s, 10.0 * lam_s, lam_t, rng.uniform(0, 1))
            f = topopt.fit_term(lam_s, lam_t)
            assert f == c.f
            assert c.alpha * f * f <= c.Pi


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
        out = topopt.hj_step(state, sens, dt=1.0, c1=100.0)
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
        chi = rve.chi_at_gauss(layout, np.ones(g.nnode))
        ana = topopt.analyze_design(layout, chi, phases, st1, topopt.constraint_map(layout))
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
            M, K = fem.assemble(g, fields)
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
        chi0 = rve.chi_at_gauss(layout, np.ones(g.nnode))
        ana0 = topopt.analyze_design(layout, chi0, phases, probe, topopt.constraint_map(layout))
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


def _restricted_map(layout):
    """The reference restricted map: every vertical dof and the frame (every
    node of a frame element) prescribed."""
    g = layout.grid
    frame = np.isin(np.arange(g.nnode), g.elements[~layout.design_elements])
    return fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                 horizontal_only=True, frame=frame)


class TestOptimizerPencils:
    """Eigen residuals and eigenvalues of the optimizer's pencils (rigid
    frame, quasi-massless coating), on a steel disk at 20x20."""

    def test_restricted_solve_accurate(self, epoxy, steel, rubber, monkeypatch):
        g = build_grid(20, 20, 0.01)
        layout = rve.build_layout(g, 0.05)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        xy = g.coords - g.centroid
        chi = rve.chi_at_gauss(layout, 0.003 - np.hypot(xy[:, 0], xy[:, 1]))
        st = topopt.OptimizerSettings(target_f_hz=1000.0, alpha=0.5)
        ops = topopt.constraint_map(layout)
        ana = topopt.analyze_design(layout, chi, phases, st, ops)
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
        ana2 = topopt.analyze_design(layout, chi, phases, st, ops)
        fields = rve.material_fields(layout, chi, phases)
        _, K = assemble(g, fields)
        _, K2 = bumped(g, fields)
        phi = ana.mode_star
        predicted = float(phi @ ((K2 - K) @ phi)) / ana.lambda_star1
        moved = ana2.lambda_star1 / ana.lambda_star1 - 1.0
        assert abs(moved - predicted) <= 1e-10

    def test_free_mode_zero_is_the_translation(self, steel_disk):
        """The unrestricted filter skips mode 0 by position; here it is the
        x-translation, and the kept modes are those of the M-projection rule
        that the position rule replaced (kept below as the reference)."""
        layout, phases, chi, st = steel_disk
        g = layout.grid
        ops = topopt.constraint_map(layout)
        ana = topopt.analyze_design(layout, chi, phases, st, ops)

        sol = ana.unrestricted
        fields = rve.material_fields(layout, chi, phases)
        Mr, _ = fem.assemble(g, fields, ops)
        t = np.ones(ops.nfree)   # x-translation, reduced: the frame is one dof
        proj = np.abs(sol.modes.T @ (Mr @ t)) / math.sqrt(t @ (Mr @ t))
        assert proj[0] >= 0.99

        rho_bar = fields.rho.mean()
        mean = np.linalg.norm(modal.mean_displacement(sol, ops.N_mu, ops.P), axis=0)
        old_rule = ((sol.eigenvalues > 0.0) & (proj < 0.5)
                    & (mean > st.delta_tol / math.sqrt(rho_bar * g.area)))
        assert ana.relevant_unrestricted.tolist() == np.flatnonzero(old_rule).tolist()

    def test_maps_hold_the_frame_rigid(self):
        """At 60x60 the 53x53 nodes off the frame stay free; the free map adds
        the frame's one translation, column 0, on every frame x-dof, and
        without it is the restricted map, which prescribes the frame."""
        layout = rve.build_layout(build_grid(60, 60, 0.01))
        ops = topopt.constraint_map(layout)
        assert ops.nfree == 2810
        frame_dofs = 2 * np.unique(layout.grid.elements[~layout.design_elements])
        np.testing.assert_array_equal(ops.P.getnnz(axis=1)[frame_dofs], 1)
        assert ops.P[frame_dofs].indices.max() == 0
        assert (ops.P[:, 1:] != _restricted_map(layout).P).nnz == 0

    def test_restricted_pencil_is_the_prescribed_reduction(self, steel_disk, monkeypatch):
        """The restricted pencil, the free one's [1:, 1:] block, is bitwise
        P^T (K, M) P of the full assembly through the map that prescribes
        the frame: each of its entries is one full entry."""
        layout, phases, chi, st = steel_disk
        pencils = []
        build = modal.band_shift_invert

        def recording(K, M, shift=0.0):
            pencils.append((K, M))
            return build(K, M, shift)

        monkeypatch.setattr(modal, "band_shift_invert", recording)
        topopt.analyze_design(layout, chi, phases, st, topopt.constraint_map(layout))
        P = _restricted_map(layout).P
        full = fem.assemble(layout.grid, rve.material_fields(layout, chi, phases))[::-1]
        for red, A in zip(pencils[0], full):
            ref = (P.T @ (A @ P)).tocsr()
            ref.sort_indices()
            assert red.shape == ref.shape and red.has_canonical_format
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(red, name), getattr(ref, name))

    def test_free_solve_accurate(self, steel_disk):
        """With the frame rigid by constraint, the free pencil's elastic modes
        meet the same residual bound as the restricted ones."""
        layout, phases, chi, st = steel_disk
        ana = topopt.analyze_design(layout, chi, phases, st, topopt.constraint_map(layout))
        assert ana.unrestricted.residuals[1:].max() <= 1e-8

    def test_eigenvalues_are_rayleigh_quotients(self, steel_disk):
        layout, phases, chi, _ = steel_disk
        fields = rve.material_fields(layout, chi, phases)
        M, K = fem.assemble(layout.grid, fields, topopt.constraint_map(layout))
        Kr, Mr = K[1:, 1:], M[1:, 1:]
        sol = modal.solve_smallest(Kr, Mr, 4)
        quotients = np.einsum("ij,ij->j", sol.modes, Kr @ sol.modes)
        np.testing.assert_allclose(sol.eigenvalues, quotients, rtol=1e-13, atol=0.0)

    def test_each_pencil_solved_once(self, steel_disk, monkeypatch):
        """The free request counts its translation, so neither pencil needs
        a regrown solve for its first relevant mode."""
        layout, phases, chi, st = steel_disk
        counts = []
        solve = modal.solve_smallest

        def counting(K, M, count, *args, **kwargs):
            counts.append(count)
            return solve(K, M, count, *args, **kwargs)

        monkeypatch.setattr(modal, "solve_smallest", counting)
        ana = topopt.analyze_design(layout, chi, phases, st, topopt.constraint_map(layout))
        assert counts == [topopt.MODAL_COUNT, topopt.MODAL_COUNT + 1]
        assert ana.unrestricted.count >= topopt.MODAL_COUNT + 1


def _assert_same_analysis(a, b):
    """Bitwise equality of two design analyses."""
    assert a.cost == b.cost
    for name in ("chi", "relevant_restricted", "relevant_unrestricted",
                 "mode_star", "mode_free"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for sa, sb in ((a.restricted, b.restricted), (a.unrestricted, b.unrestricted)):
        for name in ("eigenvalues", "modes", "residuals"):
            assert getattr(sa, name).tobytes() == getattr(sb, name).tobytes(), name


# (target Hz, alpha) of the 20x20 runs below: 42 iterations and 662 analyses
# at alpha = 1; 4 iterations and 81 analyses at alpha = 0.5
_PRUNE_RUNS = ((1100.0, 1.0), (1000.0, 0.5))


@pytest.fixture(scope="module")
def pruned_runs(materials):
    """{(target, alpha): (result, counts)} of 20x20 optimizer runs, with the
    factorizations counted by pencil size and the analyses by outcome."""
    layout = rve.build_layout(build_grid(20, 20, 0.01))
    phases = rve.scaled_phases(materials["epoxy"], materials["steel"],
                               materials["silicone_rubber"])
    n_u = topopt.constraint_map(layout).nfree
    n_r = n_u - 1   # the restricted pencil drops the frame translation
    runs = {}
    for target, alpha in _PRUNE_RUNS:
        counts = {"restricted": 0, "free": 0, "analyses": 0, "designs": 0}
        band_shift_invert, analyze = modal.band_shift_invert, topopt.analyze_design

        def counting_factor(K, M, *args, **kwargs):
            counts[{n_r: "restricted", n_u: "free"}[K.shape[0]]] += 1
            return band_shift_invert(K, M, *args, **kwargs)

        def counting_analysis(*args, **kwargs):
            counts["analyses"] += 1
            ana = analyze(*args, **kwargs)
            counts["designs"] += ana is not None
            return ana

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forkpool, "processes", lambda limit=None: 1)   # count every solve
            mp.setattr(modal, "band_shift_invert", counting_factor)
            mp.setattr(topopt, "analyze_design", counting_analysis)
            st = topopt.OptimizerSettings(target_f_hz=target, alpha=alpha)
            runs[target, alpha] = (topopt.optimize(layout, phases, st), counts)
    return layout, phases, runs


class TestFreeSolvePrune:
    """A probe whose fit share alpha f^2 already reaches the cost to beat
    skips the free pencil; the march must not notice."""

    @pytest.mark.parametrize("target, alpha", _PRUNE_RUNS)
    def test_prune_is_exact(self, pruned_runs, monkeypatch, target, alpha):
        layout, phases, runs = pruned_runs
        pruned, _ = runs[target, alpha]
        analyze = topopt.analyze_design

        def unbounded(*args, bound=math.inf, **kwargs):
            return analyze(*args, **kwargs)

        monkeypatch.setattr(topopt, "analyze_design", unbounded)
        st = topopt.OptimizerSettings(target_f_hz=target, alpha=alpha)
        reference = topopt.optimize(layout, phases, st)

        assert pruned.state.phi.tobytes() == reference.state.phi.tobytes()
        assert pruned.state.iteration == reference.state.iteration
        rows = np.array([astuple(r) for r in pruned.history])
        assert rows.tobytes() == np.array([astuple(r) for r in reference.history]).tobytes()
        _assert_same_analysis(pruned.analysis, reference.analysis)
        assert (pruned.c1, pruned.converged, pruned.stagnated) == \
            (reference.c1, reference.converged, reference.stagnated)
        assert pruned.analyses == reference.analyses
        assert reference.free_solves == reference.analyses

    def test_alpha_one_prunes_most_free_solves(self, pruned_runs):
        _, _, runs = pruned_runs
        res, counts = runs[1100.0, 1.0]
        assert counts["analyses"] == counts["restricted"] == res.analyses
        assert counts["free"] == counts["designs"] == res.free_solves
        assert 5 * counts["free"] <= res.analyses

    def test_alpha_half_solves_both_pencils(self, pruned_runs):
        _, _, runs = pruned_runs
        res, counts = runs[1000.0, 0.5]
        assert counts["analyses"] == res.analyses == res.free_solves
        assert counts["restricted"] == counts["free"] == counts["designs"] == res.analyses

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_bound_contract(self, steel_disk, alpha):
        """None exactly when alpha f^2 >= bound; otherwise the unbounded result."""
        layout, phases, chi, st = steel_disk
        st = replace(st, alpha=alpha)
        ops = topopt.constraint_map(layout)
        full = topopt.analyze_design(layout, chi, phases, st, ops)
        f = topopt.fit_term(full.lambda_star1, st.lambda_target)
        assert f == full.cost.f
        share = alpha * f * f
        if alpha == 1.0:
            assert share == full.cost.Pi
        assert topopt.analyze_design(layout, chi, phases, st, ops, bound=share) is None
        above = topopt.analyze_design(layout, chi, phases, st, ops,
                                      bound=math.nextafter(share, math.inf))
        _assert_same_analysis(above, full)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_resumed_analysis_is_the_whole_one(self, steel_disk, alpha):
        """An analysis resumed after its restricted solve is bitwise the one
        made in one call, and obeys the same bound."""
        layout, phases, chi, st = steel_disk
        st = replace(st, alpha=alpha)
        ops = topopt.constraint_map(layout)
        full = topopt.analyze_design(layout, chi, phases, st, ops)
        stage = topopt.restricted_solve(layout, chi, phases, st, ops)
        assert (stage.lambda_star1, stage.f) == (full.lambda_star1, full.cost.f)
        share = alpha * stage.f * stage.f
        assert topopt.analyze_design(layout, chi, phases, st, ops, bound=share,
                                     restricted=stage) is None
        _assert_same_analysis(
            topopt.analyze_design(layout, chi, phases, st, ops, restricted=stage), full)

    def test_worst_elastic_residual_skips_the_translation(self, steel_disk):
        layout, phases, chi, st = steel_disk
        ana = topopt.analyze_design(layout, chi, phases, st, topopt.constraint_map(layout))
        worst = ana.worst_elastic_residual()
        assert worst == max(ana.restricted.residuals.max(),
                            ana.unrestricted.residuals[1:].max())
        assert 0.0 < worst <= 1e-8


class TestProbeProcesses:
    """Candidate i of a probe batch is analysed by process i mod W, the
    parent being process 0; nothing the march returns depends on W."""

    @pytest.mark.parametrize("target, alpha", _PRUNE_RUNS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_count_leaves_bits_unchanged(self, pruned_runs, monkeypatch,
                                                 target, alpha, workers):
        layout, phases, runs = pruned_runs
        serial, _ = runs[target, alpha]   # one process
        monkeypatch.setattr(forkpool, "processes", lambda limit=None: workers)
        st = topopt.OptimizerSettings(target_f_hz=target, alpha=alpha)
        split = topopt.optimize(layout, phases, st)

        assert (serial.processes, split.processes) == (1, workers)
        assert split.state.phi.tobytes() == serial.state.phi.tobytes()
        rows = np.array([astuple(r) for r in split.history])
        assert rows.tobytes() == np.array([astuple(r) for r in serial.history]).tobytes()
        _assert_same_analysis(split.analysis, serial.analysis)
        assert (split.analyses, split.free_solves) == (serial.analyses, serial.free_solves)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_worker_exit_mid_batch(self, epoxy, steel, rubber, monkeypatch, alpha):
        parent = os.getpid()
        solve = modal.solve_relevant

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return solve(*args, **kwargs)

        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 2)
        monkeypatch.setattr(modal, "solve_relevant", dying)
        layout = rve.build_layout(build_grid(12, 12, 0.01))
        st = topopt.OptimizerSettings(target_f_hz=4000.0, alpha=alpha, max_iters=3)
        with pytest.raises(SolverFailureError,
                           match=r"optimizer process for probe candidates 1 \(\d+\)"
                                 r"(, \d+ \(\d+\))* ended without a result"):
            topopt.optimize(layout, rve.scaled_phases(epoxy, steel, rubber), st)
