"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them live).

The two reference cell designs (frequency fitting only, and fitting plus
bandgap widening) are optimized once per session at 60x60 and shared by
every downstream criterion; everything derived from them (homogenized
records, Bloch branches, transmission sweeps) is cached as well.
"""
import math
import os
import time

import numpy as np
import pytest

from lramkit import dispersion, fem, homogenize, modal, panel, rve, topopt
from lramkit.grid import build_grid
from lramkit.materials import MaterialPhase, uniform_fields

from oracles import air_solid_air_rt, dense_modal, laminate_c11

TARGET_HZ = 1000.0
GRID_N = 60
CELL = 0.01
FREQS = np.linspace(5.0, 3000.0, 600)
VISCOSITIES = (0.0, 1.0, 10.0)


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cell_layout():
    return rve.build_layout(build_grid(GRID_N, GRID_N, CELL))


@pytest.fixture(scope="module")
def designs(materials, cell_layout):
    """Converged optimizer runs for alpha = 1 and alpha = 0.5."""
    phases = rve.scaled_phases(materials["epoxy"], materials["steel"],
                               materials["silicone_rubber"])
    out = {}
    for alpha in (1.0, 0.5):
        settings = topopt.OptimizerSettings(target_f_hz=TARGET_HZ, alpha=alpha,
                                            max_iters=1000)
        t0 = time.time()
        res = topopt.optimize(cell_layout, phases, settings)
        out[alpha] = (res, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def effective(materials, cell_layout, designs):
    """True-property homogenized records per (alpha, viscosity); one cell
    solve per design, the viscosity enters only the damping projection."""
    out = {}
    for alpha, (res, _) in designs.items():
        chi = rve.chi_at_gauss(cell_layout, res.state.phi)
        cell = None
        for mu in VISCOSITIES:
            phases = rve.PhaseSet(frame=materials["epoxy"],
                                  dense=materials["steel"],
                                  soft=materials["silicone_rubber"].with_viscosity(mu))
            fields = rve.material_fields(cell_layout, chi, phases)
            if cell is None:
                cell = homogenize.cell_modes(cell_layout.grid, fields)
            out[(alpha, mu)] = homogenize.effective_material(cell, fields)
    return out


@pytest.fixture(scope="module")
def tl_sweeps(effective):
    out = {}
    for key, em in effective.items():
        out[key] = panel.tl_sweep(panel.PanelModel(em), FREQS)
    return out


class TestCriterion1FrequencyFitting:
    def test_converges_to_target(self, designs):
        res, elapsed = designs[1.0]
        f_star = math.sqrt(res.analysis.lambda_star1) / (2 * math.pi)
        err = abs(f_star / TARGET_HZ - 1.0)
        ok = err <= 0.02 and elapsed < 600.0
        _report(1, ok, f"alpha=1 restricted resonance {f_star:.1f} Hz "
                       f"(target {TARGET_HZ:.0f} +-2%, err {err:.2%}), "
                       f"runtime {elapsed:.0f} s at {GRID_N}x{GRID_N}")


class TestCriterion2ScaledBandgap:
    def test_bandgap_at_least_doubled(self, designs):
        widths = {a: r.bandgap_width_hz for a, (r, _) in designs.items()}
        ratio = widths[0.5] / widths[1.0]
        ok = ratio >= 2.0
        _report(2, ok, f"scaled-phase bandgap widths: alpha=1 {widths[1.0]:.0f} Hz, "
                       f"alpha=0.5 {widths[0.5]:.0f} Hz (ratio {ratio:.2f} >= 2)")


class TestCriterion3TruePropertyReevaluation:
    def test_gap_ratio_and_softening(self, designs, effective):
        gaps = {}
        first = {}
        for alpha in (1.0, 0.5):
            em = effective[(alpha, 0.0)]
            gaps[alpha] = homogenize.bandgap_edges(em, axis=0, f_max_hz=6000.0)
            first[alpha] = em.poles_hz(axis=0)[0]
        width = {a: g[1] - g[0] for a, g in gaps.items()}
        ratio = width[0.5] / width[1.0]
        opt_freq = {a: math.sqrt(r.analysis.lambda_star1) / (2 * math.pi)
                    for a, (r, _) in designs.items()}
        softened = all(first[a] < opt_freq[a] for a in (1.0, 0.5))
        ok = ratio >= 2.0 and softened
        _report(3, ok, f"true-property gaps: alpha=1 {width[1.0]:.0f} Hz "
                       f"{tuple(round(x) for x in gaps[1.0])}, alpha=0.5 "
                       f"{width[0.5]:.0f} Hz {tuple(round(x) for x in gaps[0.5])} "
                       f"(ratio {ratio:.2f}); resonances softened: {softened}")


class TestCriterion4HomogenizationOracle:
    def test_homogeneous_and_laminate(self, epoxy, rubber):
        t0 = time.time()
        g = build_grid(12, 12, CELL)
        fields = uniform_fields(g, epoxy)
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        lam = epoxy.K - 2.0 * epoxy.G / 3.0
        exact = np.array([[lam + 2 * epoxy.G, lam, 0.0],
                          [lam, lam + 2 * epoxy.G, 0.0],
                          [0.0, 0.0, epoxy.G]])
        c_err = np.abs(em.C_eff - exact).max() / exact[0, 0]
        rho_exact = em.rho_bar == pytest.approx(1180.0, rel=1e-12)

        from test_homogenize import _striped_fields
        g2 = build_grid(12, 12, CELL)
        fields2 = _striped_fields(g2, epoxy, rubber)
        em2 = homogenize.effective_material(homogenize.cell_modes(g2, fields2),
                                            fields2)
        c11_lam = laminate_c11([exact[0, 0], rubber.K + 4 * rubber.G / 3.0],
                               [0.5, 0.5])
        lam_err = abs(em2.C_eff[0, 0] / c11_lam - 1.0)
        elapsed = time.time() - t0
        ok = c_err <= 1e-8 and rho_exact and lam_err <= 0.01 and elapsed < 60.0
        _report(4, ok, f"epoxy C_eff error {c_err:.1e} (<=1e-8), rho_bar exact, "
                       f"laminate C11 error {lam_err:.2%} (<=1%), {elapsed:.1f} s")


class TestCriterion5DispersionCrossValidation:
    def test_band_edges_and_slope(self, materials, cell_layout, designs, effective):
        details = []
        ok = True
        for alpha in (1.0, 0.5):
            em = effective[(alpha, 0.0)]
            lo, hi = homogenize.bandgap_edges(em, axis=0, f_max_hz=6000.0)
            chi = rve.chi_at_gauss(cell_layout, designs[alpha][0].state.phi)
            fields = rve.material_fields(
                cell_layout, chi,
                rve.PhaseSet(frame=materials["epoxy"], dense=materials["steel"],
                             soft=materials["silicone_rubber"]))
            kappas = np.linspace(0.0, math.pi / CELL, 9)
            bres = dispersion.bloch_oracle(cell_layout.grid, fields, kappas,
                                           n_branches=8)
            blo, bhi = dispersion.bloch_band_gap(bres, lo, hi)
            e_lo = abs(blo - lo) / lo
            e_hi = abs(bhi - hi) / hi
            # no longitudinal branch inside the (interior of the) gap
            f_all = bres.frequencies_hz[bres.x_fraction >= 0.5]
            inside = np.sum((f_all > lo * 1.05) & (f_all < hi * 0.95))
            ok &= e_lo <= 0.05 and e_hi <= 0.05 and inside == 0
            details.append(f"alpha={alpha}: edges eff ({lo:.0f},{hi:.0f}) vs "
                           f"Bloch ({blo:.0f},{bhi:.0f}) errs {e_lo:.1%}/{e_hi:.1%}, "
                           f"{inside} branches inside")

        g = build_grid(10, 10, CELL)
        fields_h = uniform_fields(g, materials["epoxy"])
        em_h = homogenize.effective_material(homogenize.cell_modes(g, fields_h),
                                             fields_h)
        c_eff = math.sqrt(em_h.C_eff[0, 0] / em_h.rho_bar)
        k = 0.05 * math.pi / CELL
        res = dispersion.bloch_oracle(g, uniform_fields(g, materials["epoxy"]),
                                      np.array([k]), n_branches=3)
        wP = 2 * math.pi * res.frequencies_hz[0][res.x_fraction[0] > 0.5][0]
        slope_err = abs(wP / k / c_eff - 1.0)
        ok &= slope_err <= 0.02
        details.append(f"homogeneous slope err {slope_err:.2%}")
        _report(5, ok, "; ".join(details))


class TestCriterion6TransmissionOracle:
    def test_single_phase_panels(self, steel, epoxy):
        t0 = time.time()
        ok = True
        details = []
        for phase in (steel, epoxy):
            g = build_grid(8, 8, CELL)
            fields = uniform_fields(g, phase)
            em = homogenize.effective_material(homogenize.cell_modes(g, fields),
                                               fields)
            pm = panel.PanelModel(em)
            res = panel.tl_sweep(pm, FREQS)
            tl_oracle = np.array([
                -20.0 * math.log10(abs(air_solid_air_rt(
                    em.rho_bar, em.C_eff[0, 0], pm.thickness, f)[1]))
                for f in res.frequencies_hz])
            max_dev = np.abs(res.tl_db - tl_oracle).max()
            energy_dev = np.abs(res.energy - 1.0).max()
            ok &= max_dev <= 0.1 and energy_dev <= 1e-8
            details.append(f"{phase.name}: max TL dev {max_dev:.2e} dB, "
                           f"energy dev {energy_dev:.1e}")
        elapsed = time.time() - t0
        ok &= elapsed < 120.0
        _report(6, ok, "; ".join(details) + f"; {elapsed:.1f} s")


class TestCriterion7MetamaterialBands:
    def test_band_ordering_and_peak(self, effective, tl_sweeps):
        ok = True
        details = []
        ends = {}
        for alpha in (1.0, 0.5):
            res = tl_sweeps[(alpha, 0.0)]
            bands = res.bands(40.0)
            ok &= bool(bands)
            start, end = bands[0]
            ends[alpha] = end
            ok &= start < 400.0
            peak_f = res.frequencies_hz[np.nanargmax(res.tl_db)]
            pole = effective[(alpha, 0.0)].poles_hz(axis=0)[0]
            peak_err = abs(peak_f / pole - 1.0)
            ok &= peak_err <= 0.05
            details.append(f"alpha={alpha}: band ({start:.0f},{end:.0f}) Hz, "
                           f"peak {peak_f:.0f} vs resonance {pole:.0f} "
                           f"({peak_err:.1%})")
        gain = ends[0.5] - ends[1.0]
        ok &= gain >= 300.0
        details.append(f"band-end gain {gain:.0f} Hz (>=300)")
        _report(7, ok, "; ".join(details))


class TestCriterion8ViscosityTrends:
    def test_monotone_dip_and_peak(self, tl_sweeps):
        ok = True
        details = []
        for alpha in (1.0, 0.5):
            base = tl_sweeps[(alpha, 0.0)]
            peak_i = int(np.nanargmax(base.tl_db))
            above = np.arange(len(FREQS)) > peak_i
            dip_candidates = np.where(above)[0]
            dip_i = int(dip_candidates[np.nanargmin(base.tl_db[above])])
            dip_tls = [tl_sweeps[(alpha, mu)].tl_db[dip_i] for mu in VISCOSITIES]
            peak_tls = [tl_sweeps[(alpha, mu)].tl_db[peak_i] for mu in VISCOSITIES]
            dip_ok = np.all(np.diff(dip_tls) >= -1e-9)
            peak_ok = np.all(np.diff(peak_tls) <= 1e-9)
            ok &= dip_ok and peak_ok
            details.append(
                f"alpha={alpha}: dip@{FREQS[dip_i]:.0f}Hz TL "
                f"{[round(v, 1) for v in dip_tls]} non-decreasing={dip_ok}; "
                f"peak@{FREQS[peak_i]:.0f}Hz TL "
                f"{[round(v, 1) for v in peak_tls]} non-increasing={peak_ok}")
        _report(8, ok, "; ".join(details))


class TestCriterion9OptimizerDescent:
    def test_descent_history(self, designs):
        res, _ = designs[1.0]
        pis = np.array([row.Pi for row in res.history])
        final_ratio = pis[-1] / pis[0]
        steps = np.diff(pis) / np.maximum(pis[:-1], 1e-300)
        max_inc = float(steps.max()) if len(steps) else 0.0
        ok = final_ratio < 0.1 and max_inc <= 0.01
        _report(9, ok, f"Pi final/initial {final_ratio:.2e} (<0.1), largest "
                       f"single-step increase {max_inc:.2e} (<=1% of current Pi)")


class TestCriterion10SensitivityCorrectness:
    @staticmethod
    def _flip_errors(dense, soft, inclusion_half, mass_dominated):
        """Relative deviation of first-order flip predictions vs brute force.

        Uses the linear interpolation exponent so the chi-derivative of a
        property is its exact phase difference (the quadratic exponent's
        derivative at an endpoint over- or under-shoots a full flip by
        construction). ``mass_dominated`` selects Gauss points where the
        inertia term outweighs the stiffness term tenfold: there the
        frozen-strain pointwise derivative is the model; at stiffness-
        dominated points of a strongly contrasted medium it deliberately
        omits the local strain redistribution around the flipped point.
        """
        g = build_grid(10, 10, CELL)
        layout = rve.build_layout(g, frame_fraction=0.1)
        frame = MaterialPhase("frame", rho=dense.rho, K=dense.K * 100,
                              G=dense.G * 100)
        phases = rve.PhaseSet(frame=frame, dense=dense, soft=soft, exponent=1.0)
        c = g.centroid
        phi = np.where(np.max(np.abs(g.coords - c), axis=1)
                       <= inclusion_half * g.width, 1.0, -1.0)
        chi = rve.chi_at_gauss(layout, phi)
        ops = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                    horizontal_only=True)

        def solve(chi_in):
            fields = rve.material_fields(layout, chi_in, phases)
            M, K = fem.assemble(g, fields)
            return dense_modal((ops.P.T @ K @ ops.P).toarray(),
                               (ops.P.T @ M @ ops.P).toarray())

        vals, vecs = solve(chi)
        lam0 = vals[0]
        mode = np.asarray(ops.P @ vecs[:, 0]).ravel()
        dlam = topopt._eigenvalue_sensitivity_gp(g, mode, lam0, chi, phases)
        gp_vol = g.hx * g.hy / 4.0

        from lramkit.materials import interpolate
        disp = fem.gauss_displacements(g, mode)
        _, drho = interpolate(chi, phases.scheme("rho"))
        mass_term = lam0 * np.abs(drho) * (disp ** 2).sum(axis=-1)
        stiff_term = np.abs(dlam + mass_term)   # dlam = stiffness - mass term

        errors = []
        rng = np.random.default_rng(33)
        candidates = [(e, gp) for e in np.flatnonzero(layout.design_elements)
                      for gp in range(4)]
        rng.shuffle(candidates)
        for e, gp in candidates:
            if mass_dominated:
                dominant = mass_term[e, gp] >= 10.0 * stiff_term[e, gp]
            else:
                dominant = stiff_term[e, gp] >= 10.0 * mass_term[e, gp]
            if not dominant:
                continue
            chi_f = chi.copy()
            chi_f[e, gp] = 1.0 - chi_f[e, gp]
            vf, _ = solve(chi_f)
            actual = vf[0] - lam0
            if abs(actual) < 1e-7 * lam0:
                continue
            sign = 1.0 if chi_f[e, gp] > chi[e, gp] else -1.0
            predicted = sign * dlam[e, gp] * gp_vol
            errors.append(abs(predicted - actual) / abs(actual))
            if len(errors) >= 20:
                break
        return errors

    def test_flip_finite_differences(self):
        t0 = time.time()
        # criterion setting: 10:1 property contrast, inertia-driven points
        dense = MaterialPhase("dense", rho=2000.0, K=1e9, G=4e8)
        soft = MaterialPhase("soft", rho=200.0, K=1e8, G=4e7)
        errs_mass = self._flip_errors(dense, soft, 0.251, mass_dominated=True)
        # stiffness-driven points need the small-contrast regime in which
        # the pointwise derivative is first-order exact; equal densities
        # keep the two terms from cancelling
        soft_mild = MaterialPhase("soft", rho=2000.0, K=1e9 / 1.2, G=4e8 / 1.2)
        errs_stiff = self._flip_errors(dense, soft_mild, 0.251, mass_dominated=False)
        elapsed = time.time() - t0
        worst_mass = max(errs_mass) if errs_mass else 1.0
        worst_stiff = max(errs_stiff) if errs_stiff else 1.0
        ok = (len(errs_mass) >= 10 and worst_mass <= 0.10
              and len(errs_stiff) >= 10 and worst_stiff <= 0.10
              and elapsed < 60.0)
        _report(10, ok,
                f"{len(errs_mass)} inertia-driven flips at 10:1 contrast, worst "
                f"{worst_mass:.1%}; {len(errs_stiff)} stiffness-driven flips at "
                f"1.2:1, worst {worst_stiff:.1%} (both <=10%), {elapsed:.1f} s")


class TestSupplementaryInvariants:
    def test_recomputed_resonances_match(self, materials, cell_layout, designs):
        """Fresh assembly of the returned design reproduces the reported
        eigenvalues to 1e-10 relative."""
        phases = rve.scaled_phases(materials["epoxy"], materials["steel"],
                                   materials["silicone_rubber"])
        for alpha, (res, _) in designs.items():
            settings = res.settings
            chi = rve.chi_at_gauss(cell_layout, res.state.phi)
            fresh = topopt.analyze_design(cell_layout, chi, phases, settings,
                                          topopt.constraint_map(cell_layout))
            assert fresh.lambda_star1 == pytest.approx(res.analysis.lambda_star1,
                                                       rel=1e-10)
            assert fresh.lambda1 == pytest.approx(res.analysis.lambda1, rel=1e-10)

    def test_restricted_below_unrestricted(self, designs):
        for alpha, (res, _) in designs.items():
            assert res.analysis.lambda_star1 < res.analysis.lambda1

    def test_damping_coupling_ratio_small(self, effective):
        for alpha in (1.0, 0.5):
            em = effective[(alpha, 10.0)]
            assert em.coupling_ratio < 0.2

    def test_damped_density_dissipative(self, effective):
        em = effective[(1.0, 10.0)]
        for f in (300.0, 700.0, 1500.0):
            rho = homogenize.effective_density(em, 2 * math.pi * f)
            assert rho[0, 0].imag >= 0.0

    def test_instability_jump_detected(self, designs):
        """The inclusion disengagement shows up as a decade-scale drop of
        the restricted resonance somewhere along the run."""
        res, _ = designs[1.0]
        lams = np.array([row.lambda_star1 for row in res.history])
        assert lams.min() < lams[0] / 1e4


@pytest.mark.skipif(not os.environ.get("LRAMKIT_SLOW"),
                    reason="full-resolution 100x100 run; set LRAMKIT_SLOW=1")
class TestFullResolutionSlow:
    def test_full_resolution_run(self, materials):
        layout = rve.build_layout(build_grid(100, 100, CELL))
        phases = rve.scaled_phases(materials["epoxy"], materials["steel"],
                                   materials["silicone_rubber"])
        settings = topopt.OptimizerSettings(target_f_hz=TARGET_HZ, alpha=1.0,
                                            max_iters=1000)
        res = topopt.optimize(layout, phases, settings)
        f_star = math.sqrt(res.analysis.lambda_star1) / (2 * math.pi)
        assert abs(f_star / TARGET_HZ - 1.0) <= 0.02
