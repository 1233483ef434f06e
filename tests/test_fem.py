import numpy as np
import pytest

from lramkit import fem
from lramkit.errors import InvalidMaterialError, MeshIncompatibilityError
from lramkit.grid import StructuredGrid, build_grid
from lramkit.materials import isotropic_tensors, uniform_fields

from oracles import q4_element_matrices_symbolic


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(3, 2, 1.0)


class TestElementMatrices:
    def test_against_symbolic_integration(self):
        """One element with arbitrary anisotropic-ish C vs exact integrals."""
        g = build_grid(2, 2, 1.0)  # hx = hy = 0.5
        C = np.array([[4.0, 1.2, 0.3], [1.2, 3.0, 0.1], [0.3, 0.1, 1.5]])
        rho = 2.7
        ne = g.nelem
        fields = uniform_fields(g, _phase_like(rho))
        fields = fields.__class__(rho=np.full((ne, 4), rho),
                                  C=np.broadcast_to(C, (ne, 4, 3, 3)).copy(),
                                  eta=np.zeros((ne, 4, 3, 3)))
        Me, Ce, Ke = (fem.mass_blocks(g, fields.rho), fem.stiffness_blocks(g, fields.eta),
                      fem.stiffness_blocks(g, fields.C))
        K_exact, M_exact = q4_element_matrices_symbolic(g.hx, g.hy, C, rho)
        np.testing.assert_allclose(Ke[0], K_exact, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Me[0], M_exact, rtol=1e-12, atol=1e-15)
        assert np.all(Ce == 0.0)

    def test_stiffness_nullity_three(self, epoxy):
        g = build_grid(2, 2, 1.0)
        fields = uniform_fields(g, epoxy)
        Ke = fem.stiffness_blocks(g, fields.C)
        vals = np.linalg.eigvalsh(Ke[0])
        scale = vals.max()
        assert np.sum(np.abs(vals) < 1e-12 * scale) == 3  # 2 translations + rotation

    def test_blocks_symmetric(self, epoxy):
        g = build_grid(3, 3, 0.01)
        fields = uniform_fields(g, epoxy.with_viscosity(2.0))
        Me, Ce, Ke = (fem.mass_blocks(g, fields.rho), fem.stiffness_blocks(g, fields.eta),
                      fem.stiffness_blocks(g, fields.C))
        for blk in (Me, Ce, Ke):
            np.testing.assert_allclose(blk, np.swapaxes(blk, 1, 2), rtol=1e-13)

    def test_damping_zero_only_without_viscosity(self, epoxy):
        g = build_grid(2, 2, 1.0)
        Ce = fem.stiffness_blocks(g, uniform_fields(g, epoxy).eta)
        assert np.all(Ce == 0.0)
        Ce = fem.stiffness_blocks(g, uniform_fields(g, epoxy.with_viscosity(1.0)).eta)
        assert np.abs(Ce).max() > 0.0


def _phase_like(rho):
    from lramkit.materials import MaterialPhase
    return MaterialPhase("t", rho=rho, K=1.0, G=1.0)


class TestAssemble:
    def test_total_epoxy_mass(self, epoxy):
        g = build_grid(10, 10, 0.01)
        M, _ = fem.assemble(g, uniform_fields(g, epoxy))
        _, I_rigid = fem.kinematic_basis(g)
        assert fem.total_mass(M, I_rigid) == pytest.approx(1180.0 * 1e-4, rel=1e-12)

    def test_zero_viscosity_zero_damping(self, epoxy):
        g = build_grid(4, 4, 1.0)
        C = fem.damping_matrix(g, uniform_fields(g, epoxy))
        assert C.nnz == 0 or np.abs(C.data).max() == 0.0

    def test_shared_sparsity_and_symmetry(self, rubber):
        g = build_grid(5, 4, 0.3)
        fields = uniform_fields(g, rubber.with_viscosity(1.0))
        M, K = fem.assemble(g, fields)
        C = fem.damping_matrix(g, fields)
        for A in (M, C, K):
            d = (A - A.T).tocoo()
            assert np.abs(d.data).max() if d.nnz else 0.0 <= 1e-9 * np.abs(A.data).max()
        assert (M.indptr == K.indptr).all() and (M.indices == K.indices).all()

    def test_spd_mass_psd_stiffness(self, steel):
        g = build_grid(4, 4, 0.02)
        M, K = fem.assemble(g, uniform_fields(g, steel))
        mv = np.linalg.eigvalsh(M.toarray())
        kv = np.linalg.eigvalsh(K.toarray())
        assert mv.min() > 0.0
        assert kv.min() > -1e-9 * kv.max()

    def test_negative_density_rejected(self, epoxy):
        g = build_grid(2, 2, 1.0)
        fields = uniform_fields(g, epoxy)
        bad = fields.__class__(rho=fields.rho * -1.0, C=fields.C, eta=fields.eta)
        with pytest.raises(InvalidMaterialError):
            fem.assemble(g, bad)

    def test_deterministic_assembly(self, epoxy):
        g = build_grid(6, 6, 0.01)
        f = uniform_fields(g, epoxy.with_viscosity(0.5))
        M1, K1 = fem.assemble(g, f)
        M2, K2 = fem.assemble(g, f)
        C1, C2 = fem.damping_matrix(g, f), fem.damping_matrix(g, f)
        assert (K1 != K2).nnz == 0
        assert (M1 != M2).nnz == 0
        assert (C1 != C2).nnz == 0


class TestKinematicOperators:
    def test_patch_test(self, small_grid):
        ops = fem.build_constraints(small_grid, fem.BoundaryCondition.FREE)
        eps = np.array([0.3, -0.2, 0.15])
        u = ops.Y @ eps
        np.testing.assert_allclose(ops.B_mu @ u, eps, atol=1e-14)
        strains = fem.gauss_strains(small_grid, u)
        np.testing.assert_allclose(strains, np.broadcast_to(eps, strains.shape),
                                   atol=1e-13)

    def test_by_identity(self, small_grid):
        ops = fem.build_constraints(small_grid, fem.BoundaryCondition.PERIODIC_PINNED)
        np.testing.assert_allclose(ops.B_mu @ ops.Y, np.eye(3), atol=1e-12)

    def test_ni_identity(self, small_grid):
        ops = fem.build_constraints(small_grid, fem.BoundaryCondition.FREE)
        np.testing.assert_allclose(ops.N_mu @ ops.I_rigid, np.eye(2), atol=1e-12)

    def test_rigid_in_both_kernels(self, epoxy):
        g = build_grid(4, 3, 0.5)
        fields = uniform_fields(g, epoxy.with_viscosity(2.0))
        M, K = fem.assemble(g, fields)
        C = fem.damping_matrix(g, fields)
        _, I_rigid = fem.kinematic_basis(g)
        assert np.abs(K @ I_rigid).max() <= 1e-12 * np.abs(K.data).max()
        assert np.abs(C @ I_rigid).max() <= 1e-12 * np.abs(C.data).max()

    def test_density_average_matches_gauss_mean(self, epoxy, steel):
        g = build_grid(6, 6, 0.01)
        rng = np.random.default_rng(3)
        rho = rng.uniform(1000.0, 9000.0, size=(g.nelem, 4))
        C, _ = isotropic_tensors(epoxy)
        fields = uniform_fields(g, epoxy).__class__(
            rho=rho, C=np.broadcast_to(C, (g.nelem, 4, 3, 3)).copy(),
            eta=np.zeros((g.nelem, 4, 3, 3)))
        M, _ = fem.assemble(g, fields)
        _, I_rigid = fem.kinematic_basis(g)
        avg = fem.total_mass(M, I_rigid) / g.area
        assert avg == pytest.approx(rho.mean(), rel=1e-12)


class TestConstraints:
    def test_fully_prescribed_2x2(self):
        g = build_grid(2, 2, 1.0)
        ops = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED)
        assert ops.nfree == 2      # one interior node

    def test_horizontal_only_counts(self):
        g = build_grid(100, 100, 0.01)
        ops = fem.build_constraints(g, fem.BoundaryCondition.FULLY_PRESCRIBED,
                                    horizontal_only=True)
        assert ops.nfree == 99 ** 2

    def test_free_horizontal_counts(self):
        g = build_grid(10, 10, 1.0)
        ops = fem.build_constraints(g, fem.BoundaryCondition.FREE,
                                    horizontal_only=True)
        assert ops.nfree == 11 ** 2

    def test_periodic_pinned_counts(self):
        g = build_grid(3, 2, 1.0)
        ops = fem.build_constraints(g, fem.BoundaryCondition.PERIODIC_PINNED)
        # interior (2*1) + left pairs (1) + bottom pairs (2), two dofs each
        assert ops.nfree == 2 * (2 + 1 + 2)

    def test_periodic_full_column_rank(self):
        g = build_grid(4, 4, 1.0)
        ops = fem.build_constraints(g, fem.BoundaryCondition.PERIODIC_PINNED)
        gram = (ops.P.T @ ops.P).toarray()
        assert np.linalg.matrix_rank(gram) == ops.nfree

    def test_periodic_pairs_share_master(self):
        g = build_grid(3, 3, 1.0)
        ops = fem.build_constraints(g, fem.BoundaryCondition.PERIODIC_PINNED)
        P = ops.P.toarray()
        left_mid = g.node_id(0, 1)
        right_mid = g.node_id(3, 1)
        np.testing.assert_array_equal(P[2 * left_mid], P[2 * right_mid])

    def test_mismatched_pairs_raise(self):
        g = build_grid(3, 3, 1.0)
        bad = StructuredGrid(nx=3, ny=3, width=1.0, height=1.0,
                             coords=g.coords * np.array([1.0, 1.0]),
                             elements=g.elements, left=g.left[:2], right=g.right,
                             bottom=g.bottom, top=g.top, corners=g.corners)
        with pytest.raises(MeshIncompatibilityError):
            fem.build_constraints(bad, fem.BoundaryCondition.PERIODIC_PINNED)


class TestMassTemplates:
    def test_directional_sum_matches_mass(self, epoxy):
        g = build_grid(4, 3, 0.7)
        Gxx, Gyy, Gxy = fem.mass_templates(g)
        fields = uniform_fields(g, _phase_like(1.0))
        M, _ = fem.assemble(g, fields)
        np.testing.assert_allclose((Gxx + Gyy).toarray(), M.toarray(), rtol=1e-12)
        # xy template couples the two directions symmetrically
        np.testing.assert_allclose(Gxy.toarray(), Gxy.toarray().T, rtol=1e-12)
