import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse import linalg as spla

from lramkit import dispersion, fem, homogenize, modal, rve, topopt
from lramkit.errors import NoRelevantModeError, SolverFailureError
from lramkit.grid import build_grid
from lramkit.materials import uniform_fields

from oracles import chain_matrices, dense_modal


class TestSolveSmallest:
    def test_single_dof(self):
        sol = modal.solve_smallest(np.array([[4.0]]), np.array([[1.0]]), 1)
        assert sol.eigenvalues[0] == pytest.approx(4.0)
        assert abs(sol.modes[0, 0]) == pytest.approx(1.0)

    def test_matches_dense_oracle_full_pencil(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((50, 50))
        K = A @ A.T + 50 * np.eye(50)
        B = rng.standard_normal((50, 50))
        M = B @ B.T + 50 * np.eye(50)
        sol = modal.solve_smallest(K, M, 5)
        ref, _ = dense_modal(K, M)
        np.testing.assert_allclose(sol.eigenvalues, ref[:5], rtol=1e-8)

    def test_matches_dense_oracle_sparse_path(self):
        n = 900
        rng = np.random.default_rng(5)
        diag = rng.uniform(2.0, 3.0, n)
        off = -rng.uniform(0.5, 1.0, n - 1)
        K = sparse.diags([diag, off, off], [0, -1, 1]).tocsr()
        M = sparse.diags(rng.uniform(0.5, 2.0, n)).tocsr()
        sol = modal.solve_smallest(K, M, 6)
        ref, _ = dense_modal(K.toarray(), M.toarray())
        np.testing.assert_allclose(sol.eigenvalues, ref[:6], rtol=1e-8)
        assert sol.residuals.max() < 1e-8

    def test_rigid_mode_retained(self, epoxy):
        g = build_grid(16, 16, 0.01)
        M, K = fem.assemble(g, uniform_fields(g, epoxy))
        ops = fem.build_constraints(g, fem.BoundaryCondition.FREE,
                                    horizontal_only=True)
        Kr = ops.P.T @ K @ ops.P
        Mr = ops.P.T @ M @ ops.P
        sol = modal.solve_smallest(Kr, Mr, 4)
        assert abs(sol.eigenvalues[0]) < 1e-6 * sol.eigenvalues[1]

    def test_mass_normalized_and_orthogonal(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((80, 80))
        K = A @ A.T + 80 * np.eye(80)
        M = np.diag(rng.uniform(0.5, 3.0, 80))
        sol = modal.solve_smallest(K, M, 6)
        G = sol.modes.T @ M @ sol.modes
        np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-9)
        np.testing.assert_allclose(G, np.eye(6), atol=1e-8)
        assert np.all(np.diff(sol.eigenvalues) >= -1e-12)

    def test_mass_scaling_property(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((40, 40))
        K = A @ A.T + 40 * np.eye(40)
        M = np.eye(40)
        s = 3.0
        sol1 = modal.solve_smallest(K, M, 5)
        sol2 = modal.solve_smallest(K, s ** 2 * M, 5)
        np.testing.assert_allclose(sol2.eigenvalues, sol1.eigenvalues / s ** 2,
                                   rtol=1e-10)

    def test_residual_invariant(self, epoxy):
        g = build_grid(10, 10, 0.01)
        M, K = fem.assemble(g, uniform_fields(g, epoxy))
        ops = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED)
        sol = modal.solve_smallest(ops.P.T @ K @ ops.P, ops.P.T @ M @ ops.P, 6)
        assert sol.residuals.max() <= 1e-8


    @pytest.mark.parametrize("n", [50, 700])
    def test_hermitian_matches_dense_eigh(self, n):
        # complex Hermitian tridiagonal pencil, small and large
        rng = np.random.default_rng(17)
        diag = rng.uniform(2.0, 3.0, n)
        off = rng.uniform(0.3, 0.8, n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
        K = sparse.diags([diag, off, off.conj()], [0, 1, -1]).tocsr()
        M = sparse.diags(rng.uniform(0.5, 2.0, n)).tocsr()
        sol = modal.solve_smallest(K, M, 6)
        ref = linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        np.testing.assert_allclose(sol.eigenvalues, ref[:6], rtol=1e-8)
        assert sol.residuals.max() < 1e-8

    def test_hermitian_solve_frees_its_pencil(self):
        # ARPACK's complex driver holds its operands in a reference cycle;
        # with the collector off they must still go when the caller drops them
        n = 60
        rng = np.random.default_rng(5)
        off = rng.uniform(0.3, 0.8, n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
        K = sparse.diags([rng.uniform(2.0, 3.0, n), off, off.conj()], [0, 1, -1]).tocsr()
        M = sparse.diags(rng.uniform(0.5, 2.0, n)).tocsr()
        dropped = weakref.ref(M)
        enabled = gc.isenabled()
        gc.disable()
        try:
            modal.solve_smallest(K, M, 4, factor=modal.shift_invert(K, M, -1.0))
            del M
            assert dropped() is None
        finally:
            if enabled:
                gc.enable()


class TestSolveRelevant:
    # fixed-fixed chain of 10 unit masses: 10 distinct eigenvalues in (0, 4)
    K, M = chain_matrices([1.0] * 10, [1.0] * 11)
    vals = linalg.eigh(K, M, eigvals_only=True)

    def _above(self, lam, counts):
        def relevant(sol):
            counts.append(sol.count)
            idx = np.flatnonzero(sol.eigenvalues > lam)
            if idx.size == 0:
                raise NoRelevantModeError("nothing above the threshold yet")
            return idx
        return relevant

    def test_grows_until_relevant(self):
        counts = []
        lam = 0.5 * (self.vals[5] + self.vals[6])
        sol, rel = modal.solve_relevant(self.K, self.M, 2, self._above(lam, counts))
        assert counts == [2, 4, 8]
        assert sol.count == 8
        assert rel.tolist() == [6, 7]

    def test_raises_at_cap(self):
        counts = []
        with pytest.raises(NoRelevantModeError):
            modal.solve_relevant(self.K, self.M, 3, self._above(10.0, counts))
        assert counts == [3, 6, 10]    # capped at the pencil size

    def test_factors_once(self, monkeypatch):
        factorizations = []
        splu = modal.spla.splu

        def counting_splu(A, *args, **kwargs):
            factorizations.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(modal.spla, "splu", counting_splu)
        counts = []
        lam = 0.5 * (self.vals[5] + self.vals[6])
        sol, _ = modal.solve_relevant(self.K, self.M, 2, self._above(lam, counts))
        assert counts == [2, 4, 8]
        assert len(factorizations) == 1
        direct = modal.solve_smallest(self.K, self.M, 8)
        np.testing.assert_array_equal(sol.eigenvalues, direct.eigenvalues)
        np.testing.assert_array_equal(sol.modes, direct.modes)


class TestCountBelow:
    def test_chain_counts_match_dense(self):
        K, M = TestSolveRelevant.K, TestSolveRelevant.M
        vals = TestSolveRelevant.vals
        shifts = np.concatenate([[0.5 * vals[0]], 0.5 * (vals[:-1] + vals[1:]),
                                 [2.0 * vals[-1]]])
        counts = [modal.count_below(K, M, s) for s in shifts]
        assert counts == [int(np.sum(vals < s)) for s in shifts]
        assert counts == list(range(11))

    def test_exact_pairs(self):
        K = np.diag(np.repeat(np.arange(1.0, 7.0), 2))
        assert modal.count_below(K, np.eye(12), 2.5) == 4

    def test_off_diagonal_pivot_is_not_trusted(self):
        # a zero diagonal forces a pivot off it, which breaks the congruence
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SolverFailureError, match="diagonal"):
            modal.count_below(K, np.eye(2), 0.0)


class TestOrdering:
    """The factorizations of a 3 mm steel disk's pencils at 20x20: band
    Cholesky for the optimizer's two, sparse LU ordered by minimum degree on
    A + A^T for the homogenization and Bloch pencils."""

    @staticmethod
    def _factors(monkeypatch, run):
        """The LUs that ``run()`` makes through ``modal._splu``, in order."""
        factors = []
        splu = modal._splu

        def keeping(A):
            factors.append(splu(A))
            return factors[-1]

        monkeypatch.setattr(modal, "_splu", keeping)
        run()
        monkeypatch.undo()
        return factors

    def test_free_fill_near_restricted(self, steel_disk, monkeypatch):
        """The free pencil is the restricted one plus one border dof, the
        frame translation coupled to every frame-adjacent node. Eliminated
        last, that row leaves the rest a band as narrow as the restricted
        pencil's; in the band it would span the whole pencil."""
        layout, phases, chi, st = steel_disk
        bands = []
        cholesky_banded = modal.dla.cholesky_banded

        def keeping(band, *args, **kwargs):
            bands.append(cholesky_banded(band, *args, **kwargs))
            return bands[-1]

        monkeypatch.setattr(modal.dla, "cholesky_banded", keeping)
        topopt.analyze_design(layout, chi, phases, st, topopt.constraint_map(layout))
        # past the border: 288 and 289 dofs, half-bandwidth one node row plus one
        assert [band.shape for band in bands] == [(19, 288), (19, 289)]
        # stored entries: the band plus the border column r = U^-T c
        restricted, free = (band.size + band.shape[1] for band in bands)
        assert free <= 1.25 * restricted

    def test_pivots_stay_on_the_diagonal(self, steel_disk, epoxy, steel, rubber, monkeypatch):
        """Every sparse LU of the homogenization (the indefinite inertia
        count at the mode ceiling, then zero shift) and the Bloch oracle (its
        interior A_II); the optimizer makes none."""
        layout, phases, chi, st = steel_disk
        g = layout.grid
        fields = rve.material_fields(layout, chi, rve.PhaseSet(epoxy, steel, rubber))
        ops = topopt.constraint_map(layout)
        optimizer = self._factors(
            monkeypatch, lambda: topopt.analyze_design(layout, chi, phases, st, ops))
        cell = self._factors(monkeypatch, lambda: homogenize.cell_modes(g, fields))
        bloch = self._factors(monkeypatch, lambda: dispersion._BlochCell(g, fields))
        assert (len(optimizer), len(cell), len(bloch)) == (0, 2, 1)
        assert np.count_nonzero(cell[0].U.diagonal() < 0.0) > 0   # indefinite
        for lu in cell + bloch:
            np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


class TestBandShiftInvert:
    """The band Cholesky of the optimizer's two pencils on a 3 mm steel disk
    at 20x20, against the sparse LU of the same pencil."""

    @pytest.fixture
    def pencils(self, steel_disk, monkeypatch):
        """{"restricted": (K, M, shift), "free": ...}, as ``analyze_design``
        factors them."""
        layout, phases, chi, st = steel_disk
        calls = []
        build = modal.band_shift_invert

        def recording(K, M, shift=0.0):
            calls.append((K, M, shift))
            return build(K, M, shift)

        monkeypatch.setattr(modal, "band_shift_invert", recording)
        topopt.analyze_design(layout, chi, phases, st, topopt.constraint_map(layout))
        monkeypatch.undo()
        return dict(zip(("restricted", "free"), calls))

    @pytest.mark.parametrize("pencil", ["restricted", "free"])
    def test_apply_matches_sparse_lu(self, pencils, pencil):
        """Equal to the scale of a backward-stable solve, |A| |x|. The
        pencils' condition numbers (4e7 and 3e9) let the two solutions
        themselves differ by up to 7e-9 of |x|, as each does from a dense
        solve."""
        K, M, shift = pencils[pencil]
        A = K - shift * M
        band = modal.band_shift_invert(K, M, shift).operator
        lu = modal.shift_invert(K, M, shift).operator
        rng = np.random.default_rng(11)
        for b in (rng.standard_normal(A.shape[0]), M @ rng.standard_normal(A.shape[0])):
            x, ref = band.matvec(b), lu.matvec(b)
            scale = linalg.norm(A.toarray(), 2) * np.linalg.norm(ref)
            assert np.linalg.norm(A @ (x - ref)) <= 1e-10 * scale

    @pytest.mark.parametrize("pencil", ["restricted", "free"])
    def test_eigenpairs_match_sparse_lu(self, pencils, pencil):
        """The free pencil's mode 0 is the translation, whose eigenvalue and
        residual are roundoff; the elastic modes are compared. Neither
        factorization fixes the restricted lambda_1 better than 1e-10: each
        lies 7e-11 to 1.2e-10 from the Rayleigh quotient of a dense eigh."""
        K, M, shift = pencils[pencil]
        elastic = slice(pencil == "free", None)
        band, lu = (modal.solve_smallest(K, M, 4, factor=build(K, M, shift))
                    for build in (modal.band_shift_invert, modal.shift_invert))
        np.testing.assert_allclose(band.eigenvalues[elastic], lu.eigenvalues[elastic],
                                   rtol=1e-10)
        assert band.residuals[elastic].max() <= 1e-8
        if pencil == "free":
            assert abs(band.eigenvalues[0]) < 1e-6 * band.eigenvalues[1]

    @pytest.mark.parametrize("pencil", ["restricted", "free"])
    def test_half_solves_factor_the_pencil(self, pencils, pencil):
        """R^-1 R^-T solves A = K - sigma M = R^T R as the sparse LU does,
        within the bound of ``test_apply_matches_sparse_lu``, and the
        standard-mode operator R^-T M R^-1 is symmetric."""
        K, M, shift = pencils[pencil]
        A = K - shift * M
        n = A.shape[0]
        inv_r, inv_rt = modal.band_shift_invert(K, M, shift).half_solves
        lu = modal.shift_invert(K, M, shift).operator
        rng = np.random.default_rng(11)
        b = rng.standard_normal(n)
        x, ref = inv_r(inv_rt(b)), lu.matvec(b)
        scale = linalg.norm(A.toarray(), 2) * np.linalg.norm(ref)
        assert np.linalg.norm(A @ (x - ref)) <= 1e-10 * scale

        def op(y):
            return inv_rt(M @ inv_r(y))

        u, v = rng.standard_normal((2, n))
        lhs, rhs = op(u) @ v, u @ op(v)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        # the (n, k) form that recovers the Ritz vectors, column by column
        Y = rng.standard_normal((n, 3))
        np.testing.assert_allclose(inv_r(Y), np.column_stack([inv_r(y) for y in Y.T]),
                                   rtol=1e-14, atol=0.0)

    def test_standard_mode_makes_no_arpack_m_products(self, pencils):
        """With the band factor's half-solves, M is applied once per ARPACK
        step and twice per mode by the M-normalization and the residual,
        no more. The sparse LU runs generalized mode, in which ARPACK also
        takes M products for its M-inner products."""
        K, M, shift = pencils["free"]
        k = 3
        products = []

        class CountingM(sparse.csr_matrix):
            def __matmul__(self, other):
                products.append(1)
                return super().__matmul__(other)

        def counted(factor):
            applies = []
            if factor.half_solves is None:
                apply = factor.operator.matvec
                operator = spla.LinearOperator(
                    M.shape, matvec=lambda b: (applies.append(1), apply(b))[1])
                factor = dataclasses.replace(factor, operator=operator)
            else:
                inv_r, inv_rt = factor.half_solves
                factor = dataclasses.replace(factor, half_solves=(
                    inv_r, lambda b: (applies.append(1), inv_rt(b))[1]))
            products.clear()
            modal.solve_smallest(K, CountingM(M), k, factor=factor)
            return len(applies), len(products)

        applies, m_products = counted(modal.band_shift_invert(K, M, shift))
        assert 0 < applies and m_products <= applies + 2 * k
        applies, m_products = counted(modal.shift_invert(K, M, shift))
        assert m_products > applies + 2 * k

    @pytest.mark.parametrize("pencil, match", [
        ("restricted", "leading minor"),   # shift above lambda_1: the band fails
        ("free", "border pivot"),          # between the translation and the band's lambda_1
    ])
    def test_not_positive_definite_raises(self, pencils, pencil, match):
        K, M, _ = pencils["restricted"]
        lam1 = modal.solve_smallest(K, M, 1).eigenvalues[0]
        K, M, _ = pencils[pencil]
        shift = 1.5 * lam1 if pencil == "restricted" else 0.5 * lam1
        with pytest.raises(SolverFailureError, match=match):
            modal.band_shift_invert(K, M, shift)


class TestRestrictedRelevance:
    def test_three_dof_chain_coupling(self):
        masses = [2.0, 1.0, 3.0]
        K, M = chain_matrices(masses, [5.0, 2.0, 3.0, 4.0])  # fixed-fixed
        sol = modal.solve_smallest(K, M, 3)
        P = sparse.identity(3, format="csr")
        I_rigid = np.ones((3, 1))
        coupling = modal.momentum_coupling(sol, sparse.csr_matrix(M), P, I_rigid, 1.0)
        _, vecs = dense_modal(K, M)
        hand = np.array(masses) @ vecs
        np.testing.assert_allclose(np.abs(coupling[0]), np.abs(hand), rtol=1e-10)

    def test_antisymmetric_mode_filtered(self):
        # symmetric fixed-fixed chain: the second mode is antisymmetric
        K, M = chain_matrices([1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0])
        sol = modal.solve_smallest(K, M, 3)
        P = sparse.identity(3, format="csr")
        I_rigid = np.ones((3, 1))
        Msp = sparse.csr_matrix(M)
        coupling = modal.momentum_coupling(sol, Msp, P, I_rigid, 1.0)
        rho_bar = M.sum()   # <rho> of the chain: its mass over unit volume
        rel = modal.filter_relevant_restricted(sol, coupling, np.sqrt(rho_bar))
        assert 1 not in rel            # antisymmetric mode dropped
        assert 0 in rel

    def test_no_relevant_raises(self):
        K, M = chain_matrices([1.0, 1.0], [3.0, 1.0, 3.0])
        sol = modal.solve_smallest(K, M, 1)
        # keep only the antisymmetric mode by selecting index 1 artificially
        sol2 = modal.ModalSolution(sol.eigenvalues[1:], sol.modes[:, 1:], sol.residuals[1:])
        Msp = sparse.csr_matrix(M)
        P = sparse.identity(2, format="csr")
        I_rigid = np.ones((2, 1))
        coupling = modal.momentum_coupling(sol2, Msp, P, I_rigid, 1.0)
        with pytest.raises(NoRelevantModeError):
            modal.filter_relevant_restricted(
                sol2, coupling, np.sqrt(M.sum()))


class TestUnrestrictedRelevance:
    def _free_chain(self, m1, m2, k=4.0):
        K, M = chain_matrices([m1, m2], [0.0, k, 0.0])
        sol = modal.solve_smallest(K, M, 2)
        P = sparse.identity(2, format="csr")
        # volume-average with trivial operators: mean over entries
        N_mu = np.full((1, 2), 0.5)
        mean = modal.mean_displacement(sol, N_mu, P)
        rho_bar = M.sum()   # <rho> of the chain: its mass over unit volume
        return sol, mean, rho_bar

    def test_rigid_mode_excluded(self):
        sol, mean, rho_bar = self._free_chain(1.0, 2.0)
        rel = modal.filter_relevant_unrestricted(sol, mean, 1.0 / np.sqrt(rho_bar))
        assert 0 not in rel           # translation has the largest mean
        assert rel.tolist() == [1]

    def test_equal_masses_excluded(self):
        sol, mean, rho_bar = self._free_chain(2.0, 2.0)
        # out-of-phase mode of equal masses has zero mean displacement
        with pytest.raises(NoRelevantModeError):
            modal.filter_relevant_unrestricted(sol, mean, 1.0 / np.sqrt(rho_bar))

    def test_unequal_masses_mean_value(self):
        m1, m2, k = 1.0, 3.0, 4.0
        sol, mean, rho_bar = self._free_chain(m1, m2, k)
        lam2 = k * (1 / m1 + 1 / m2)
        assert sol.eigenvalues[1] == pytest.approx(lam2, rel=1e-12)
        # mass-normalized out-of-phase mode: phi = (1/m1, -1/m2)/sqrt(1/m1+1/m2)
        scale = np.sqrt(1 / m1 + 1 / m2)
        expect_mean = 0.5 * abs(1 / m1 - 1 / m2) / scale
        assert abs(mean[0, 1]) == pytest.approx(expect_mean, rel=1e-12)
