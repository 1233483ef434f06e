import math
import os

import numpy as np
import pytest
from scipy import linalg
from scipy.sparse.linalg import splu

from lramkit import blas, dispersion, fem, forkpool, homogenize, modal
from lramkit.errors import SolverFailureError
from lramkit.grid import build_grid
from lramkit.materials import uniform_fields

from oracles import master_slave_map
from test_blas import _FakeSetter
from test_fem import _map_grid, _random_matrices


@pytest.fixture(scope="module")
def epoxy_em(epoxy):
    g = build_grid(10, 10, 0.01)
    fields = uniform_fields(g, epoxy)
    return homogenize.effective_material(homogenize.cell_modes(g, fields), fields)


def _toy_em(rho_bar=1.0, q=math.sqrt(0.5), om2=1.0, od=0.0, c11=1.0, eta11=0.0,
            cell=0.1):
    C = np.diag([c11, c11, 0.4 * c11])
    eta = np.diag([eta11, eta11, 0.4 * eta11])
    return homogenize.EffectiveMaterial(
        rho_bar=rho_bar, C_eff=C, eta_eff=eta, Q=np.array([[q], [0.0]]),
        omega2=np.array([om2]), omega_d=np.array([[od]]),
        cell_size=cell, volume=cell * cell)


class TestEffectiveDispersion:
    def test_homogeneous_epoxy_linear(self, epoxy_em):
        c_exact = math.sqrt(epoxy_em.C_eff[0, 0] / epoxy_em.rho_bar)
        assert c_exact == pytest.approx(2539.5, rel=1e-3)
        freqs = np.array([0.0, 500.0, 1500.0, 3000.0])
        curve = dispersion.effective_dispersion(epoxy_em, freqs)
        kappa = curve.kappa_norm * math.pi / epoxy_em.cell_size
        assert kappa[0] == 0.0
        for f, k in zip(freqs[1:], kappa[1:]):
            assert k.imag == pytest.approx(0.0, abs=1e-8)
            assert 2 * math.pi * f / k.real == pytest.approx(c_exact, rel=1e-9)

    def test_bandgap_purely_imaginary(self):
        em = _toy_em()
        # gap where rho_eff < 0: 1 < w^2 < 2
        freqs = np.array([1.2, 1.3]) / (2 * math.pi)
        curve = dispersion.effective_dispersion(em, freqs, nudge=False)
        kap = curve.kappa_norm
        assert np.all(np.abs(kap.real) < 1e-12)
        assert np.all(kap.imag > 0.0)

    def test_gap_matches_negative_density(self):
        em = _toy_em()
        lo, hi = homogenize.bandgap_edges(em, axis=0, f_max_hz=10.0)
        inside = 0.5 * (lo + hi)
        outside = hi * 1.2
        c_in = dispersion.effective_dispersion(em, np.array([inside]), nudge=False)
        c_out = dispersion.effective_dispersion(em, np.array([outside]), nudge=False)
        assert c_in.kappa_norm[0].imag > 0.0 and abs(c_in.kappa_norm[0].real) < 1e-12
        assert c_out.kappa_norm[0].imag == pytest.approx(0.0, abs=1e-10)

    def test_damped_attenuates_everywhere(self):
        em = _toy_em(od=0.2, eta11=0.05)
        freqs = np.linspace(0.05, 0.8, 7)  # Hz, all over the place
        curve = dispersion.effective_dispersion(em, freqs)
        assert np.all(curve.kappa_norm.imag > 0.0)

    def test_pole_nudging(self):
        em = _toy_em()
        pole_hz = 1.0 / (2 * math.pi)
        curve = dispersion.effective_dispersion(em, np.array([pole_hz]))
        assert np.isfinite(curve.kappa_norm[0].real)

    def test_csv_format(self, epoxy_em, tmp_path):
        curve = dispersion.effective_dispersion(epoxy_em, np.array([100.0, 200.0]))
        p = tmp_path / "disp.csv"
        curve.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "f_Hz,Re_k_norm,Im_k_norm"
        assert len(lines) == 3


class TestBlochOracle:
    @pytest.mark.parametrize("nx, ny", [(7, 4), (3, 5), (2, 2)])
    def test_x_fraction_matches_reference(self, epoxy, steel, nx, ny, monkeypatch):
        """The x-fraction of each branch, read from |v|^2 through the
        unphased map, equals that of the node-by-node phased map applied to
        the same modes."""
        g = build_grid(nx, ny, 0.01)
        fields = uniform_fields(g, epoxy)
        fields.rho[: g.nelem // 2] = steel.rho     # break the symmetry
        sols = []
        solve = modal.solve_smallest

        def recording(*args, **kwargs):
            sols.append(solve(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(modal, "solve_smallest", recording)
        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 1)   # record every solve
        kappas = np.array([0.0, 0.3 * math.pi / 0.01, -math.pi / 0.01, 2.5])
        res = dispersion.bloch_oracle(g, fields, kappas, n_branches=3)
        for kap, sol, x_fraction in zip(kappas, sols, res.x_fraction, strict=True):
            full = master_slave_map(g, "periodic", kappa=kap) @ sol.modes
            ref = (np.abs(full[0::2]) ** 2).sum(axis=0) / (np.abs(full) ** 2).sum(axis=0)
            np.testing.assert_allclose(x_fraction, ref, rtol=1e-14, atol=1e-15)

    def test_acoustic_branch_through_origin(self, epoxy):
        g = build_grid(8, 8, 0.01)
        res = dispersion.bloch_oracle(g, uniform_fields(g, epoxy),
                                      np.array([0.0]), n_branches=3)
        assert res.frequencies_hz[0, 0] == pytest.approx(0.0, abs=1.0)
        assert res.frequencies_hz[0, 1] == pytest.approx(0.0, abs=1.0)

    def test_homogeneous_long_wave_speeds(self, epoxy):
        g = build_grid(8, 8, 0.01)
        kap = np.array([0.05, 0.25]) * math.pi / 0.01
        res = dispersion.bloch_oracle(g, uniform_fields(g, epoxy), kap,
                                      n_branches=3)
        cP = math.sqrt(7.61e9 / 1180.0)
        cS = math.sqrt(1.59e9 / 1180.0)
        for i, k in enumerate(kap):
            wP = 2 * math.pi * res.frequencies_hz[i][res.x_fraction[i] > 0.5][0]
            wS = 2 * math.pi * res.frequencies_hz[i][res.x_fraction[i] < 0.5][0]
            assert wP / k == pytest.approx(cP, rel=0.01)
            assert wS / k == pytest.approx(cS, rel=0.01)

    def test_even_in_kappa(self, epoxy, steel, rubber):
        from lramkit import rve
        g = build_grid(10, 10, 0.01)
        layout = rve.build_layout(g, frame_fraction=0.1)
        c = g.centroid
        phi = np.where(np.max(np.abs(g.coords - c), axis=1) <= 0.3 * g.width, 1.0, -1.0)
        chi = rve.chi_at_gauss(layout, phi)
        fields = rve.material_fields(
            layout, chi, rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber))
        k = 0.4 * math.pi / 0.01
        plus = dispersion.bloch_oracle(g, fields, np.array([k]), n_branches=4)
        minus = dispersion.bloch_oracle(g, fields, np.array([-k]), n_branches=4)
        np.testing.assert_allclose(plus.frequencies_hz, minus.frequencies_hz,
                                   rtol=1e-8)

    def test_long_wave_limit_matches_homogenization(self, epoxy, steel):
        """Acoustic branch slope vs sqrt(C_eff,11 / rho_bar) within 2%.

        Uses a stiff epoxy/steel composite: resonance-free well below the
        probe frequency, so the acoustic branch is in its homogenization
        regime at the sampled wavenumber.
        """
        from lramkit import rve
        g = build_grid(12, 12, 0.01)
        layout = rve.build_layout(g, frame_fraction=1.0 / 12.0)
        c = g.centroid
        phi = np.where(np.max(np.abs(g.coords - c), axis=1) <= 0.28 * g.width, 1.0, -1.0)
        chi = rve.chi_at_gauss(layout, phi)
        fields = rve.material_fields(
            layout, chi, rve.PhaseSet(frame=epoxy, dense=steel, soft=epoxy))
        em = homogenize.effective_material(homogenize.cell_modes(g, fields), fields)
        c_eff = math.sqrt(em.C_eff[0, 0] / em.rho_bar)
        k = 0.04 * math.pi / 0.01
        res = dispersion.bloch_oracle(g, fields, np.array([k]), n_branches=4)
        wP = 2 * math.pi * res.frequencies_hz[0][res.x_fraction[0] > 0.5][0]
        assert wP / k == pytest.approx(c_eff, rel=0.02)

    def test_elastic_branches_accurate_at_zero_wavenumber(self, epoxy, steel, rubber,
                                                          monkeypatch):
        """At kappa = 0 two rigid branches sit at 0 Hz; the shift keeps clear
        of them, so every elastic branch of a coated steel disk is solved
        to a small eigen residual."""
        from lramkit import rve
        g = build_grid(20, 20, 0.01)
        layout = rve.build_layout(g, 0.05)
        xy = g.coords - g.centroid
        chi = rve.chi_at_gauss(layout, 0.003 - np.hypot(xy[:, 0], xy[:, 1]))
        fields = rve.material_fields(
            layout, chi, rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber))
        solutions = []
        solve = modal.solve_smallest

        def recorded(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(modal, "solve_smallest", recorded)
        dispersion.bloch_oracle(g, fields, np.array([0.0]), n_branches=8)
        (sol,) = solutions
        elastic = sol.frequencies_hz > 1.0
        assert np.count_nonzero(elastic) == 6
        assert sol.residuals[elastic].max() <= 1e-8

    def test_csv_format(self, epoxy, tmp_path):
        g = build_grid(8, 8, 0.01)
        res = dispersion.bloch_oracle(g, uniform_fields(g, epoxy),
                                      np.array([0.0, math.pi / 0.01]), n_branches=2)
        p = tmp_path / "bloch.csv"
        res.to_csv(p, 0.01)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "k_norm,f1_Hz,f2_Hz"
        assert len(lines) == 3


def _asymmetric_cell(nx, ny, epoxy, steel):
    g = build_grid(nx, ny, 0.01)
    fields = uniform_fields(g, epoxy)
    fields.rho[: g.nelem // 2] = steel.rho
    return g, fields


_SPLIT_KAPPAS = (0.0, 0.3 * math.pi / 0.01, -math.pi / 0.01, 2.5)


def _oracle_pencil(g, fields, kappa):
    """(T^H K T, T^H M T) through the node-by-node Bloch map T."""
    M, K = fem.assemble(g, fields)
    T = master_slave_map(g, "periodic", kappa=kappa)
    return tuple((T.conj().T @ (A @ T)).tocsr() for A in (K, M))


@pytest.mark.parametrize("grid_name", ["7x4", "3x5", "7x4-reversed"])
@pytest.mark.parametrize("kL", [0.0, 0.3 * np.pi, -np.pi])
def test_bloch_pencil_is_the_phased_product(grid_name, kL):
    """The pencil built from the two real parts equals T^H A T through the
    node-by-node Bloch map, for M, K and C."""
    g = _map_grid(grid_name)
    ops = fem.build_constraints(g, fem.BoundaryCondition.PERIODIC)
    P0, P1 = dispersion._split_rows(ops)
    kappa = kL / g.width
    T = master_slave_map(g, "periodic", kappa=kappa)
    for A in _random_matrices(g):
        red = dispersion._pencil_at(dispersion._bloch_parts(A, P0, P1),
                                    np.exp(1j * kappa * g.width))
        ref = (T.conj().T @ (A @ T)).tocsr()
        assert red.dtype == complex and red.nnz == ref.nnz
        assert abs(red - ref).max() <= 1e-15 * abs(ref).max()


class TestBlochCondensation:
    @pytest.mark.parametrize("nx, ny", [(7, 4), (3, 5), (2, 2)])
    def test_apply_matches_full_factorization(self, epoxy, steel, nx, ny):
        g, fields = _asymmetric_cell(nx, ny, epoxy, steel)
        cell = dispersion._BlochCell(g, fields)
        assert len(cell.border) == 2 * ny
        rng = np.random.default_rng(3)
        for kap in _SPLIT_KAPPAS:
            Kb, Mb = _oracle_pencil(g, fields, kap)
            factor = cell.shift_invert(np.exp(1j * kap * g.width), kap)
            assert factor.sigma == dispersion._BLOCH_SHIFT
            n = Kb.shape[0]
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = splu((Kb - factor.sigma * Mb).tocsc()).solve(b)
            x = factor.operator.matvec(b)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("nx, ny", [(7, 4), (3, 5), (2, 2)])
    def test_branches_match_dense_eigh(self, epoxy, steel, nx, ny):
        g, fields = _asymmetric_cell(nx, ny, epoxy, steel)
        res = dispersion.bloch_oracle(g, fields, np.array(_SPLIT_KAPPAS), n_branches=3)
        for kap, freqs in zip(_SPLIT_KAPPAS, res.frequencies_hz):
            Kb, Mb = _oracle_pencil(g, fields, kap)
            lam = linalg.eigh(Kb.toarray(), Mb.toarray(), eigvals_only=True)[:3]
            ref = np.sqrt(np.clip(lam, 0.0, None)) / (2 * math.pi)
            elastic = ref > 1.0
            np.testing.assert_allclose(freqs[elastic], ref[elastic], rtol=1e-9)

    @pytest.mark.parametrize("nk", [1, 4])
    def test_one_factorization_per_oracle_call(self, epoxy, steel, monkeypatch, nk):
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        calls = []
        splu_ = modal._splu

        def counting(A):
            calls.append(A.shape)
            return splu_(A)

        monkeypatch.setattr(modal, "_splu", counting)
        dispersion.bloch_oracle(g, fields, np.linspace(0.0, math.pi / 0.01, nk),
                                n_branches=3)
        assert calls == [(2 * 7 * 4 - 2 * 4,) * 2]

    def test_failed_cholesky_names_the_wavenumber(self, epoxy, steel, monkeypatch):
        def singular(*args, **kwargs):
            raise linalg.LinAlgError("synthetic: not positive definite")

        monkeypatch.setattr(linalg, "cho_factor", singular)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        with pytest.raises(SolverFailureError, match="kappa = 157.079633 rad/m"):
            dispersion.bloch_oracle(g, fields, np.array([0.5 * math.pi / 0.01]),
                                    n_branches=3)

    def test_failed_interior_factorization(self, epoxy, steel, monkeypatch):
        def singular(A):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(modal, "_splu", singular)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        with pytest.raises(SolverFailureError, match="every wavenumber"):
            dispersion.bloch_oracle(g, fields, np.array([0.0]), n_branches=3)

    def test_residuals_reported(self, epoxy, steel, monkeypatch):
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        sols = []
        solve = modal.solve_smallest

        def recording(*args, **kwargs):
            sols.append(solve(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(modal, "solve_smallest", recording)
        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 1)   # record every solve
        kappas = np.array([0.0, 0.5 * math.pi / 0.01])
        res = dispersion.bloch_oracle(g, fields, kappas, n_branches=4)
        assert res.residuals.shape == (2, 4)
        for row, sol in zip(res.residuals, sols, strict=True):
            np.testing.assert_array_equal(row, sol.residuals)
        elastic = np.concatenate([res.residuals[0, 2:], res.residuals[1]])
        assert res.worst_elastic_residual() == elastic.max()
        assert res.worst_elastic_residual() <= 1e-8


class TestBlochProcesses:
    """Wavenumber i is solved by process i mod W; the parent is process 0."""

    _KAPPAS = np.array(_SPLIT_KAPPAS + (0.7 * math.pi / 0.01,))

    @staticmethod
    def _cho_factor_failing_where(monkeypatch, in_parent: bool):
        """Make the Schur Cholesky fail in the parent only, or in children only."""
        parent, cho_factor = os.getpid(), linalg.cho_factor

        def failing(*args, **kwargs):
            if (os.getpid() == parent) == in_parent:
                raise linalg.LinAlgError("synthetic: not positive definite")
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(linalg, "cho_factor", failing)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_count_leaves_bits_unchanged(self, epoxy, steel, monkeypatch, workers):
        parent, splu = os.getpid(), modal._splu

        def parent_only(A):
            assert os.getpid() == parent, "a child factored the interior"
            return splu(A)

        monkeypatch.setattr(modal, "_splu", parent_only)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        runs = []
        for count in (1, workers):
            monkeypatch.setattr(forkpool, "processes", lambda limit=None, count=count: count)
            runs.append(dispersion.bloch_oracle(g, fields, self._KAPPAS, n_branches=3))
        serial, split = runs
        assert (serial.processes, split.processes) == (1, workers)
        for name in ("frequencies_hz", "x_fraction", "residuals"):
            np.testing.assert_array_equal(getattr(split, name), getattr(serial, name))

    def test_one_blas_thread_in_every_process(self, epoxy, steel, monkeypatch):
        lib = _FakeSetter(2)
        monkeypatch.setattr(blas, "_thread_setters", lambda: [lib])
        branches = dispersion._bloch_branches

        def checked(*args):
            assert lib.count == 1, f"wavenumber solved with {lib.count} BLAS threads"
            return branches(*args)

        monkeypatch.setattr(dispersion, "_bloch_branches", checked)
        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 2)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        dispersion.bloch_oracle(g, fields, self._KAPPAS, n_branches=3)
        assert lib.count == 2

    def test_child_failure_names_its_wavenumber(self, epoxy, steel, monkeypatch):
        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 2)
        self._cho_factor_failing_where(monkeypatch, in_parent=False)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        first_of_child = f"kappa = {self._KAPPAS[1]:.9g} rad/m is not positive definite"
        with pytest.raises(SolverFailureError, match=first_of_child):
            dispersion.bloch_oracle(g, fields, self._KAPPAS, n_branches=3)

    def test_parent_failure_leaves_no_child(self, epoxy, steel, monkeypatch):
        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 2)
        self._cho_factor_failing_where(monkeypatch, in_parent=True)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        with pytest.raises(SolverFailureError, match="kappa = 0 rad/m"):
            dispersion.bloch_oracle(g, fields, self._KAPPAS, n_branches=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_dying_without_result(self, epoxy, steel, monkeypatch):
        parent, cho_factor = os.getpid(), linalg.cho_factor

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(forkpool, "processes", lambda limit=None: 2)
        monkeypatch.setattr(linalg, "cho_factor", dying)
        g, fields = _asymmetric_cell(7, 4, epoxy, steel)
        owned = f"kappa = {self._KAPPAS[1]:.9g}, {self._KAPPAS[3]:.9g} rad/m"
        with pytest.raises(SolverFailureError, match=f"{owned} ended without a result"):
            dispersion.bloch_oracle(g, fields, self._KAPPAS, n_branches=3)

    def test_one_process_per_cpu_and_wavenumber(self):
        cpus = len(os.sched_getaffinity(0))
        assert forkpool.processes(0) == forkpool.processes(1) == 1
        assert forkpool.processes(9) == min(cpus, 9)


class TestBlochBandGap:
    @staticmethod
    def _result(x_tie):
        """Two wavenumbers; the 900 Hz branch has x fraction ``x_tie``."""
        return dispersion.BlochResult(
            kappas=np.array([0.0, 1.0]),
            frequencies_hz=np.array([[100.0, 900.0, 1500.0], [200.0, 1100.0, 2000.0]]),
            x_fraction=np.array([[1.0, x_tie, 0.0], [1.0, 0.0, 1.0]]),
            residuals=np.zeros((2, 3)))

    def test_roundoff_tie_counts_as_longitudinal(self):
        """A branch whose x and y energies are equal by symmetry reads 0.5
        only to roundoff; it is longitudinal, and here it brackets the gap."""
        res = self._result(0.5 - 1e-14)
        assert dispersion.bloch_band_gap(res, 800.0, 1600.0) == (900.0, 2000.0)

    def test_branch_below_threshold_is_transverse(self):
        res = self._result(0.5 - 1e-6)
        assert dispersion.bloch_band_gap(res, 800.0, 1600.0) == (200.0, 2000.0)
