import numpy as np
import pytest
from scipy import linalg, sparse

from lramkit import fem, modal
from lramkit.errors import NoRelevantModeError
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
        sol = modal.solve_smallest(K, M, 6, system="bloch")
        ref = linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        np.testing.assert_allclose(sol.eigenvalues, ref[:6], rtol=1e-8)
        assert sol.residuals.max() < 1e-8
        assert sol.system == "bloch"


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

    def test_grows_to_cover_frequency(self):
        counts = []
        cover = np.sqrt(0.5 * (self.vals[4] + self.vals[5])) / (2 * np.pi)
        sol, rel = modal.solve_relevant(self.K, self.M, 2, self._above(0.0, counts),
                                        cover_hz=cover)
        assert counts == [2, 4, 8]
        assert sol.frequencies_hz[-1] >= cover
        assert rel.tolist() == list(range(8))

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

    def test_cap_drops_split_top_cluster(self, monkeypatch):
        # exact pairs 1, 1, 2, 2, ..., 6, 6: a cap of 5 computes one half of
        # the third pair, whose partner lies above the cap
        K = np.diag(np.repeat(np.arange(1.0, 7.0), 2))
        M = np.eye(12)
        monkeypatch.setattr(modal, "_COUNT_CAP", 5)
        counts = []
        sol, rel = modal.solve_relevant(K, M, 2, self._above(0.0, counts),
                                        cover_hz=10.0)
        assert counts == [2, 4, 4]      # solved at 2, 4 and 5; the last trimmed
        np.testing.assert_allclose(sol.eigenvalues, [1.0, 1.0, 2.0, 2.0], rtol=1e-12)
        assert rel.tolist() == [0, 1, 2, 3]


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
        rho_bar = modal.average_density(Msp, I_rigid, 1.0)
        rel = modal.filter_relevant_restricted(sol, coupling, np.sqrt(rho_bar))
        assert 1 not in rel            # antisymmetric mode dropped
        assert 0 in rel

    def test_no_relevant_raises(self):
        K, M = chain_matrices([1.0, 1.0], [3.0, 1.0, 3.0])
        sol = modal.solve_smallest(K, M, 1)
        # keep only the antisymmetric mode by selecting index 1 artificially
        sol2 = modal.ModalSolution(sol.eigenvalues[1:], sol.modes[:, 1:],
                                   sol.residuals[1:], "restricted")
        Msp = sparse.csr_matrix(M)
        P = sparse.identity(2, format="csr")
        I_rigid = np.ones((2, 1))
        coupling = modal.momentum_coupling(sol2, Msp, P, I_rigid, 1.0)
        with pytest.raises(NoRelevantModeError):
            modal.filter_relevant_restricted(
                sol2, coupling, np.sqrt(modal.average_density(Msp, I_rigid, 1.0)))


class TestUnrestrictedRelevance:
    def _free_chain(self, m1, m2, k=4.0):
        K, M = chain_matrices([m1, m2], [0.0, k, 0.0])
        sol = modal.solve_smallest(K, M, 2)
        Msp = sparse.csr_matrix(M)
        P = sparse.identity(2, format="csr")
        I_rigid = np.ones((2, 1))
        # volume-average with trivial operators: mean over entries
        N_mu = np.full((1, 2), 0.5)
        mean = modal.mean_displacement(sol, N_mu, P)
        proj = modal.rigid_projections(sol, Msp, P.T @ I_rigid)
        rho_bar = modal.average_density(Msp, I_rigid, 1.0)
        return sol, mean, proj, rho_bar

    def test_rigid_mode_excluded(self):
        sol, mean, proj, rho_bar = self._free_chain(1.0, 2.0)
        rel = modal.filter_relevant_unrestricted(sol, mean,
                                                 1.0 / np.sqrt(rho_bar), proj)
        assert 0 not in rel           # translation has the largest mean
        assert rel.tolist() == [1]

    def test_equal_masses_excluded(self):
        sol, mean, proj, rho_bar = self._free_chain(2.0, 2.0)
        # out-of-phase mode of equal masses has zero mean displacement
        with pytest.raises(NoRelevantModeError):
            modal.filter_relevant_unrestricted(sol, mean,
                                               1.0 / np.sqrt(rho_bar), proj)

    def test_unequal_masses_mean_value(self):
        m1, m2, k = 1.0, 3.0, 4.0
        sol, mean, proj, rho_bar = self._free_chain(m1, m2, k)
        lam2 = k * (1 / m1 + 1 / m2)
        assert sol.eigenvalues[1] == pytest.approx(lam2, rel=1e-12)
        # mass-normalized out-of-phase mode: phi = (1/m1, -1/m2)/sqrt(1/m1+1/m2)
        scale = np.sqrt(1 / m1 + 1 / m2)
        expect_mean = 0.5 * abs(1 / m1 - 1 / m2) / scale
        assert abs(mean[0, 1]) == pytest.approx(expect_mean, rel=1e-12)
