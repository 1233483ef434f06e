import dataclasses

import numpy as np
import pytest
from scipy import sparse

from lramkit import fem
from lramkit.errors import InvalidMaterialError, MeshIncompatibilityError
from lramkit.grid import StructuredGrid, build_grid
from lramkit.materials import (
    GaussPointFields,
    MaterialPhase,
    deviatoric_voigt,
    isotropic_tensors,
    uniform_fields,
    volumetric_voigt,
)

from oracles import master_slave_map, q4_element_matrices_symbolic


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(3, 2, 1.0)


def _blocks(g, fields):
    """(mass, damping, stiffness) (ne, 8, 8) element blocks of ``fields``."""
    return tuple(blocks.reshape(-1, 8, 8) for blocks in (
        fem.mass_blocks(g, fields.rho),
        fem.stiffness_blocks(g, np.zeros_like(fields.mu_visc), fields.mu_visc),
        fem.stiffness_blocks(g, fields.K, fields.G)))


class TestElementMatrices:
    def test_against_symbolic_integration(self):
        """One element with arbitrary moduli vs exact integrals of
        B^T (K VOL + G DEV) B."""
        g = build_grid(2, 2, 1.0)  # hx = hy = 0.5
        phase = MaterialPhase("t", rho=2.7, K=4.3, G=1.7)
        C, _ = isotropic_tensors(phase)
        Me, Ce, Ke = _blocks(g, uniform_fields(g, phase))
        K_exact, M_exact = q4_element_matrices_symbolic(g.hx, g.hy, C, phase.rho)
        np.testing.assert_allclose(Ke[0], K_exact, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Me[0], M_exact, rtol=1e-12, atol=1e-15)
        assert np.all(Ce == 0.0)

    def test_stiffness_nullity_three(self, epoxy):
        g = build_grid(2, 2, 1.0)
        fields = uniform_fields(g, epoxy)
        Ke = fem.stiffness_blocks(g, fields.K, fields.G)
        vals = np.linalg.eigvalsh(Ke[0].reshape(8, 8))
        scale = vals.max()
        assert np.sum(np.abs(vals) < 1e-12 * scale) == 3  # 2 translations + rotation

    def test_blocks_symmetric(self, epoxy):
        g = build_grid(3, 3, 0.01)
        for blk in _blocks(g, uniform_fields(g, epoxy.with_viscosity(2.0))):
            np.testing.assert_allclose(blk, np.swapaxes(blk, 1, 2), rtol=1e-13)

    def test_damping_zero_only_without_viscosity(self, epoxy):
        g = build_grid(2, 2, 1.0)
        _, Ce, _ = _blocks(g, uniform_fields(g, epoxy))
        assert np.all(Ce == 0.0)
        _, Ce, _ = _blocks(g, uniform_fields(g, epoxy.with_viscosity(1.0)))
        assert np.abs(Ce).max() > 0.0


class TestAssemble:
    def test_total_epoxy_mass(self, epoxy):
        g = build_grid(10, 10, 0.01)
        M, _ = fem.assemble(g, uniform_fields(g, epoxy))
        _, I_rigid = fem.kinematic_basis(g)
        x = I_rigid[:, 0]
        assert x @ (M @ x) / g.area == pytest.approx(1180.0, rel=1e-12)

    def test_zero_viscosity_zero_damping(self, epoxy):
        g = build_grid(4, 4, 1.0)
        C = fem.damping_matrix(g, uniform_fields(g, epoxy))
        assert C.nnz == 0 or np.abs(C.data).max() == 0.0

    def test_symmetry_and_no_stored_zero_mass(self, rubber):
        g = build_grid(5, 4, 0.3)
        fields = uniform_fields(g, rubber.with_viscosity(1.0))
        M, K = fem.assemble(g, fields)
        C = fem.damping_matrix(g, fields)
        for A in (M, C, K):
            d = (A - A.T).tocoo()
            assert np.abs(d.data).max() if d.nnz else 0.0 <= 1e-9 * np.abs(A.data).max()
        assert np.all(M.data != 0.0)   # not even the x-y couplings, zero in every block

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
        bad = dataclasses.replace(fields, rho=fields.rho * -1.0)
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


def _coo_reference(grid, blocks):
    """Element blocks summed by COO -> CSR, independently of fem's pattern."""
    dofs = grid.element_dofs()
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    return sparse.coo_matrix((blocks.ravel(), (rows, cols)),
                             shape=(grid.ndof, grid.ndof)).toarray()


def _random_fields(rng, ne):
    """Random positive per-point (rho, K, G, mu_visc) on ``ne`` elements."""
    return GaussPointFields(rho=rng.uniform(1000.0, 9000.0, size=(ne, 4)),
                            K=rng.uniform(1.0, 4.0, size=(ne, 4)),
                            G=rng.uniform(1.0, 4.0, size=(ne, 4)),
                            mu_visc=rng.uniform(1e-3, 4e-3, size=(ne, 4)))


def _einsum_blocks(grid, fields):
    """Reference (mass, damping, stiffness) element blocks by direct
    Gauss-point summation of N^T rho N and B^T tensor B, with the tensors
    C = K VOL + G DEV and eta = mu DEV formed at every point."""
    Nm, Bm = fem._reference_operators(grid.hx, grid.hy)
    dJ = grid.hx * grid.hy / 4.0
    VOL, DEV = volumetric_voigt(), deviatoric_voigt()
    C = fields.K[..., None, None] * VOL + fields.G[..., None, None] * DEV
    eta = fields.mu_visc[..., None, None] * DEV
    mass = np.einsum("ng,gai,gaj->nij", fields.rho, Nm, Nm) * dJ
    stiff = [np.einsum("gai,ngab,gbj->nij", Bm, T, Bm) * dJ for T in (eta, C)]
    return mass, stiff[0], stiff[1]


class TestFixedPatternAssembly:
    def test_matches_coo_reference(self):
        """Rectangular grids of two sizes, plus one with the same nx, ny but
        its elements listed in reverse, in one process: the cached pattern
        must follow the connectivity, not the grid dimensions."""
        rng = np.random.default_rng(11)
        g74 = build_grid(7, 4, 0.01)
        grids = [g74, build_grid(3, 5, 0.02),
                 dataclasses.replace(g74, elements=g74.elements[::-1].copy()), g74]
        for g in grids:
            fields = _random_fields(rng, g.nelem)
            M, K = fem.assemble(g, fields)
            D = fem.damping_matrix(g, fields)
            for A, blocks in zip((M, D, K), _einsum_blocks(g, fields)):
                ref = _coo_reference(g, blocks)
                assert np.abs(A.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
            for A in (M, D, K):
                assert A.has_canonical_format
            assert np.all(M.data != 0.0)


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

    def test_density_average_matches_gauss_mean(self, epoxy):
        """<rho> = I_x^T M I_x / V of the optimizer-style free reduced M, whose
        x-translation is the all-ones vector, is the Gauss-point mean."""
        g = build_grid(6, 6, 0.01)
        rng = np.random.default_rng(3)
        rho = rng.uniform(1000.0, 9000.0, size=(g.nelem, 4))
        ops = fem.build_constraints(g, fem.BoundaryCondition.FREE, **_map_options(g, "frame"))
        M, _ = fem.assemble(g, dataclasses.replace(uniform_fields(g, epoxy), rho=rho), ops)
        ones = np.ones(ops.nfree)
        assert ones @ (M @ ones) / g.area == pytest.approx(rho.mean(), rel=1e-14)


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


BC = fem.BoundaryCondition
# the real maps: FREE and FULLY_PRESCRIBED with and without horizontal_only,
# the optimizer's two (horizontal_only with a rigid frame: "frame"), and both
# periodic ones
REAL_MAPS = [(BC.FREE, False), (BC.FREE, True), (BC.FULLY_PRESCRIBED, False),
             (BC.FULLY_PRESCRIBED, True), (BC.PERIODIC_PINNED, False),
             (BC.PERIODIC, False), (BC.FREE, "frame"), (BC.FULLY_PRESCRIBED, "frame")]


def _map_options(g, horizontal):
    """``build_constraints`` keywords of a REAL_MAPS entry. The frame is the
    boundary plus the second node column, so it starts at node 0 but is not
    a ring, and leaves interior nodes on both sides of the column."""
    if horizontal != "frame":
        return {"horizontal_only": horizontal}
    i, j = np.divmod(np.arange(g.nnode), g.nx + 1)[::-1]
    return {"horizontal_only": True,
            "frame": (i <= 1) | (i == g.nx) | (j == 0) | (j == g.ny)}


def _map_grid(name):
    """The 7x4 and 3x5 grids, plus the 7x4 one with its elements reversed."""
    g74 = build_grid(7, 4, 0.01)
    return {"7x4": g74, "3x5": build_grid(3, 5, 0.02),
            "7x4-reversed": dataclasses.replace(g74, elements=g74.elements[::-1].copy())}[name]


def _random_matrices(g, ops=None):
    """(M, K, C) of random Gauss-point fields on ``g``, reduced by ``ops``
    when given."""
    fields = _random_fields(np.random.default_rng(5), g.nelem)
    M, K = fem.assemble(g, fields, ops)
    return M, K, fem.damping_matrix(g, fields, ops)


@pytest.mark.parametrize("grid_name", ["7x4", "3x5", "7x4-reversed"])
class TestMasterSlaveMap:
    @pytest.mark.parametrize("bc, horizontal", REAL_MAPS)
    def test_map_matches_node_loop(self, grid_name, bc, horizontal):
        g = _map_grid(grid_name)
        options = _map_options(g, horizontal)
        ops = fem.build_constraints(g, bc, **options)
        ref = master_slave_map(g, bc.value, **options)
        assert ops.P.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(ops.P, name), getattr(ref, name))

    @pytest.mark.parametrize("bc, horizontal", REAL_MAPS)
    def test_reduce_is_the_sparse_product(self, grid_name, bc, horizontal):
        """Assembly through the map is bitwise P^T A P of the full assembly,
        zeros dropped, for M, K and C. The one exception is the rigid frame's
        own entry, the first stored one: the assembly adds a row's frame
        entries to it one by one, the product first among themselves."""
        g = _map_grid(grid_name)
        ops = fem.build_constraints(g, bc, **_map_options(g, horizontal))
        P = ops.P
        skip = 1 if (bc, horizontal) == (BC.FREE, "frame") else 0
        for red, A in zip(_random_matrices(g, ops), _random_matrices(g)):
            ref = (P.T @ (A @ P)).tocsr()
            ref.sort_indices()
            assert red.shape == ref.shape and red.has_canonical_format
            for name in ("indptr", "indices"):
                np.testing.assert_array_equal(getattr(red, name), getattr(ref, name))
            np.testing.assert_array_equal(red.data[skip:], ref.data[skip:])
            assert red.data[0] == pytest.approx(ref.data[0], rel=1e-14)

    def test_slot_map_is_reused_and_holds_no_fields(self, grid_name):
        """Each map builds its slot map once, on first use, and keeps no
        field data in it: assemblies of other fields through the same map,
        and through a map of the same grid built anew, are each P^T A P of
        their own full matrices."""
        g = _map_grid(grid_name)
        for bc, horizontal in REAL_MAPS:
            ops = fem.build_constraints(g, bc, **_map_options(g, horizontal))
            fresh = fem.build_constraints(g, bc, **_map_options(g, horizontal))
            slots = ops.slots
            for seed in (6, 7):
                fields = _random_fields(np.random.default_rng(seed), g.nelem)
                full = (*fem.assemble(g, fields), fem.damping_matrix(g, fields))
                reduced = (*fem.assemble(g, fields, ops), fem.damping_matrix(g, fields, ops))
                again = (*fem.assemble(g, fields, fresh), fem.damping_matrix(g, fields, fresh))
                for A, red, red2 in zip(full, reduced, again):
                    ref = (ops.P.T @ (A @ ops.P)).toarray()
                    tol = 1e-14 * np.abs(ref).max()
                    assert np.abs(red.toarray() - ref).max() <= tol
                    assert np.abs(red2.toarray() - ref).max() <= tol
            assert ops.slots is slots
