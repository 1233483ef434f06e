"""Plane-strain Q4 finite-element machinery for the unit cell.

Builds the global mass, damping and stiffness matrices from per-Gauss-point
material fields, plus the kinematic operators used by homogenization and
optimization:

* volume-averaging rows N_mu (2 x ndof) and B_mu (3 x ndof) so that
  N_mu u = <u> and B_mu u = <grad_s u>,
* the linear-field basis Y (ndof x 3) with B_mu Y = I,
* the rigid-translation basis I_rigid (ndof x 2) with N_mu I_rigid = I,
* selection/periodicity operators P for the supported boundary conditions.

Quadrature is 2x2 Gauss (weights 1), exact for the bilinear element on the
uniform rectangular grids used here.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import MeshIncompatibilityError
from .grid import StructuredGrid
from .materials import GaussPointFields

_G = 1.0 / np.sqrt(3.0)
# Gauss points ordered like the element corners so point g is nearest node g.
GAUSS_POINTS = np.array([[-_G, -_G], [_G, -_G], [_G, _G], [-_G, _G]])
GAUSS_WEIGHTS = np.ones(4)


def shape_functions(xi: float, eta: float) -> np.ndarray:
    """Bilinear shape values at natural coordinates, shape (4,)."""
    return 0.25 * np.array([(1 - xi) * (1 - eta),
                            (1 + xi) * (1 - eta),
                            (1 + xi) * (1 + eta),
                            (1 - xi) * (1 + eta)])


def shape_gradients(xi: float, eta: float) -> np.ndarray:
    """d N_i / d(xi, eta), shape (4, 2)."""
    return 0.25 * np.array([[-(1 - eta), -(1 - xi)],
                            [(1 - eta), -(1 + xi)],
                            [(1 + eta), (1 + xi)],
                            [-(1 + eta), (1 - xi)]])


def _reference_operators(hx: float, hy: float):
    """Per-Gauss-point N (2x8) and B (3x8) blocks for an hx-by-hy element."""
    Nmats = np.zeros((4, 2, 8))
    Bmats = np.zeros((4, 3, 8))
    for g, (xi, eta) in enumerate(GAUSS_POINTS):
        N = shape_functions(xi, eta)
        dN = shape_gradients(xi, eta)
        dNdx = dN[:, 0] * 2.0 / hx
        dNdy = dN[:, 1] * 2.0 / hy
        Nmats[g, 0, 0::2] = N
        Nmats[g, 1, 1::2] = N
        Bmats[g, 0, 0::2] = dNdx
        Bmats[g, 1, 1::2] = dNdy
        Bmats[g, 2, 0::2] = dNdy
        Bmats[g, 2, 1::2] = dNdx
    return Nmats, Bmats


def stiffness_blocks(grid: StructuredGrid, tensor: np.ndarray) -> np.ndarray:
    """Per-element (ne, 8, 8) integrals of B^T tensor B: the stiffness blocks
    for the elastic tensor C, the damping blocks for the viscous tensor eta."""
    _, Bm = _reference_operators(grid.hx, grid.hy)
    dJ = grid.hx * grid.hy / 4.0
    return np.einsum("gai,ngab,gbj->nij", Bm, tensor, Bm, optimize=True) * dJ


def mass_blocks(grid: StructuredGrid, rho: np.ndarray) -> np.ndarray:
    """Per-element (ne, 8, 8) consistent mass blocks for Gauss-point rho."""
    Nm, _ = _reference_operators(grid.hx, grid.hy)
    dJ = grid.hx * grid.hy / 4.0
    NtN = np.einsum("gai,gaj->gij", Nm, Nm)
    return np.einsum("ng,gij->nij", rho, NtN) * dJ


def _scatter(grid: StructuredGrid, blocks: np.ndarray) -> sparse.csr_matrix:
    dofs = grid.element_dofs()
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    mat = sparse.coo_matrix((blocks.ravel(), (rows, cols)),
                            shape=(grid.ndof, grid.ndof))
    return mat.tocsr()


def assemble(grid: StructuredGrid, fields: GaussPointFields, validate: bool = True):
    """Global (M, K) csr matrices from Gauss-point material fields; the
    viscosity-dependent damping matrix comes from ``damping_matrix``."""
    if validate:
        fields.validate()
    return (_scatter(grid, mass_blocks(grid, fields.rho)),
            _scatter(grid, stiffness_blocks(grid, fields.C)))


def damping_matrix(grid: StructuredGrid, fields: GaussPointFields) -> sparse.csr_matrix:
    """Global damping csr matrix alone, the only viscosity-dependent one."""
    fields.validate()
    return _scatter(grid, stiffness_blocks(grid, fields.eta))


def averaging_operators(grid: StructuredGrid) -> tuple[np.ndarray, np.ndarray]:
    """(N_mu, B_mu) dense rows mapping nodal dofs to <u> and <grad_s u>."""
    Nm, Bm = _reference_operators(grid.hx, grid.hy)
    dJ = grid.hx * grid.hy / 4.0
    Ne_row = Nm.sum(axis=0) * dJ    # (2, 8)
    Be_row = Bm.sum(axis=0) * dJ    # (3, 8)
    N_mu = np.zeros((2, grid.ndof))
    B_mu = np.zeros((3, grid.ndof))
    dofs = grid.element_dofs()
    for k in range(8):
        np.add.at(N_mu.T, dofs[:, k], np.broadcast_to(Ne_row[:, k], (grid.nelem, 2)))
        np.add.at(B_mu.T, dofs[:, k], np.broadcast_to(Be_row[:, k], (grid.nelem, 3)))
    vol = grid.area
    return N_mu / vol, B_mu / vol


def kinematic_basis(grid: StructuredGrid) -> tuple[np.ndarray, np.ndarray]:
    """(Y, I_rigid): linear displacement modes per unit macroscopic strain
    and the two rigid translations.

    Y columns correspond to Voigt strains (xx, yy, xy) with engineering
    shear, so u = Y @ eps reproduces u_x = dy1*exx + dy2*gxy/2, etc.
    """
    dy = grid.coords - grid.centroid
    n = grid.nnode
    Y = np.zeros((2 * n, 3))
    Y[0::2, 0] = dy[:, 0]
    Y[1::2, 1] = dy[:, 1]
    Y[0::2, 2] = 0.5 * dy[:, 1]
    Y[1::2, 2] = 0.5 * dy[:, 0]
    I_rigid = np.zeros((2 * n, 2))
    I_rigid[0::2, 0] = 1.0
    I_rigid[1::2, 1] = 1.0
    return Y, I_rigid


class BoundaryCondition(enum.Enum):
    """Microfluctuation boundary treatment for the constrained systems."""

    FULLY_PRESCRIBED = "fully-prescribed"
    PERIODIC_PINNED = "periodic-pinned"
    FREE = "free"


@dataclass(frozen=True)
class ConstraintOperators:
    """Kinematic operators of a cell under one boundary-condition choice."""

    N_mu: np.ndarray
    B_mu: np.ndarray
    Y: np.ndarray
    I_rigid: np.ndarray
    P: sparse.csr_matrix
    bc: BoundaryCondition
    horizontal_only: bool

    @property
    def nfree(self) -> int:
        return self.P.shape[1]


def _check_periodic_pairs(grid: StructuredGrid):
    for a, b, axis in ((grid.left, grid.right, 1), (grid.bottom, grid.top, 0)):
        if len(a) != len(b):
            raise MeshIncompatibilityError("periodic boundary sets differ in size")
        off = np.abs(grid.coords[a, axis] - grid.coords[b, axis]).max()
        if off > 1e-12 * max(grid.width, grid.height):
            raise MeshIncompatibilityError("periodic boundary nodes misaligned")


def build_constraints(grid: StructuredGrid, bc: BoundaryCondition,
                      horizontal_only: bool = False) -> ConstraintOperators:
    """Selection/periodicity operator P plus the averaging and rigid bases.

    ``horizontal_only`` additionally prescribes every vertical dof, matching
    the one-directional reduced analyses of the optimizer.
    """
    N_mu, B_mu = averaging_operators(grid)
    Y, I_rigid = kinematic_basis(grid)
    nnode = grid.nnode
    directions = (0,) if horizontal_only else (0, 1)

    boundary = np.zeros(nnode, dtype=bool)
    for arr in (grid.left, grid.right, grid.bottom, grid.top):
        boundary[arr] = True

    rows: list[int] = []
    cols: list[int] = []

    if bc is BoundaryCondition.FULLY_PRESCRIBED:
        free_nodes = np.flatnonzero(~boundary)
        col = 0
        for node in free_nodes:
            for d in directions:
                rows.append(2 * node + d)
                cols.append(col)
                col += 1
    elif bc is BoundaryCondition.FREE:
        col = 0
        for node in range(nnode):
            for d in directions:
                rows.append(2 * node + d)
                cols.append(col)
                col += 1
    elif bc is BoundaryCondition.PERIODIC_PINNED:
        _check_periodic_pairs(grid)
        corner_set = set(int(c) for c in grid.corners)
        master_of = np.full(nnode, -1, dtype=np.int64)
        interior = np.flatnonzero(~boundary)
        masters = list(interior)
        for a, b in zip(grid.left, grid.right):
            if int(a) in corner_set:
                continue
            masters.append(int(a))
            master_of[b] = a
        for a, b in zip(grid.bottom, grid.top):
            if int(a) in corner_set:
                continue
            masters.append(int(a))
            master_of[b] = a
        # corners stay prescribed (zero microfluctuation) to pin rigid motion
        col = 0
        col_of: dict[tuple[int, int], int] = {}
        for node in masters:
            for d in directions:
                col_of[(int(node), d)] = col
                rows.append(2 * int(node) + d)
                cols.append(col)
                col += 1
        for node in range(nnode):
            m = master_of[node]
            if m < 0:
                continue
            for d in directions:
                rows.append(2 * node + d)
                cols.append(col_of[(int(m), d)])
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported boundary condition {bc}")

    ncols = max(cols) + 1 if cols else 0
    P = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(grid.ndof, ncols)).tocsr()
    return ConstraintOperators(N_mu=N_mu, B_mu=B_mu, Y=Y, I_rigid=I_rigid,
                               P=P, bc=bc, horizontal_only=horizontal_only)


def gauss_displacements(grid: StructuredGrid, u: np.ndarray) -> np.ndarray:
    """Displacement vectors at Gauss points, shape (ne, 4, 2)."""
    Nm, _ = _reference_operators(grid.hx, grid.hy)
    ue = u[grid.element_dofs()]
    return np.einsum("gai,ni->nga", Nm, ue)


def gauss_strains(grid: StructuredGrid, u: np.ndarray) -> np.ndarray:
    """Voigt strains at Gauss points, shape (ne, 4, 3)."""
    _, Bm = _reference_operators(grid.hx, grid.hy)
    ue = u[grid.element_dofs()]
    return np.einsum("gai,ni->nga", Bm, ue)


def mass_templates(grid: StructuredGrid):
    """Unit-density directional mass matrices (Gxx, Gyy, Gxy_sym).

    A tensor density rho = [[rxx, rxy], [rxy, ryy]] assembles to
    rxx*Gxx + ryy*Gyy + rxy*Gxy_sym.
    """
    Nm, _ = _reference_operators(grid.hx, grid.hy)
    dJ = grid.hx * grid.hy / 4.0
    out = []
    mats = {
        "xx": np.array([[1.0, 0.0], [0.0, 0.0]]),
        "yy": np.array([[0.0, 0.0], [0.0, 1.0]]),
        "xy": np.array([[0.0, 1.0], [1.0, 0.0]]),
    }
    for key in ("xx", "yy", "xy"):
        blocks = np.einsum("gai,ab,gbj->ij", Nm, mats[key], Nm) * dJ
        out.append(_scatter(grid, np.broadcast_to(blocks, (grid.nelem, 8, 8)).copy()))
    return tuple(out)


def total_mass(M: sparse.spmatrix, I_rigid: np.ndarray) -> float:
    """Translational mass recovered from the assembled mass matrix."""
    return float(I_rigid[:, 0] @ (M @ I_rigid[:, 0]))
