"""Plane-strain Q4 finite-element machinery for the unit cell.

Builds the global mass, damping and stiffness matrices from the per-Gauss-point
moduli (rho, K, G, mu_visc) of ``materials.GaussPointFields``, plus the
kinematic operators used by homogenization and optimization:

* volume-averaging rows N_mu (2 x ndof) and B_mu (3 x ndof) so that
  N_mu u = <u> and B_mu u = <grad_s u>,
* the linear-field basis Y (ndof x 3) with B_mu Y = I,
* the rigid-translation basis I_rigid (ndof x 2) with N_mu I_rigid = I,
* one master-slave map per boundary condition (each dof follows at most one
  master) and the real 0/1 operator P that expands through it. Every map is
  real: ``dispersion`` builds the Bloch pencil from two real parts of the
  unpinned periodic map.

``assemble`` and ``damping_matrix`` form P^T A P, the one way to reduce a
constrained system, by summing the element blocks straight into its
reduced pattern (equation-number assembly, Hughes, *The Finite Element
Method*, 1987, ch. 2), exact zeros dropped: the full M, the identity map's
case, stores no x-y couplings.

Quadrature is 2x2 Gauss (weights 1), exact for the bilinear element on the
uniform rectangular grids used here.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import MeshIncompatibilityError
from .grid import StructuredGrid
from .materials import GaussPointFields, deviatoric_voigt, volumetric_voigt

_G = 1.0 / np.sqrt(3.0)
# Gauss points ordered like the element corners so point g is nearest node g.
GAUSS_POINTS = np.array([[-_G, -_G], [_G, -_G], [_G, _G], [-_G, _G]])


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


@functools.lru_cache(maxsize=8)
def _reference_operators(hx: float, hy: float):
    """Per-Gauss-point N (2x8) and B (3x8) blocks for an hx-by-hy element
    (cached and read-only)."""
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
    Nmats.flags.writeable = False
    Bmats.flags.writeable = False
    return Nmats, Bmats


@functools.lru_cache(maxsize=8)
def _element_templates(hx: float, hy: float):
    """(8, 64) moduli and (4, 64) mass templates: an element's flattened 8x8
    block is (K_gp, G_gp) @ moduli template, or rho_gp @ mass template, since
    it is linear in the Gauss-point moduli. The integral of B^T (K VOL + G DEV) B
    is contracted with VOL and DEV here, once per element size."""
    Nm, Bm = _reference_operators(hx, hy)
    dJ = hx * hy / 4.0
    btb = np.einsum("gai,gbj->gabij", Bm, Bm).reshape(4, 9, 64) * dJ
    moduli = np.concatenate([np.einsum("k,gkm->gm", T.ravel(), btb)
                             for T in (volumetric_voigt(), deviatoric_voigt())])
    mass = np.einsum("gai,gaj->gij", Nm, Nm).reshape(4, 64) * dJ
    moduli.flags.writeable = False
    mass.flags.writeable = False
    return moduli, mass


def stiffness_blocks(grid: StructuredGrid, K: np.ndarray, G: np.ndarray,
                     entries=slice(None)) -> np.ndarray:
    """Per-element integrals of B^T (K VOL + G DEV) B for (ne, 4) Gauss-point
    moduli, flattened to (ne, 64), or the columns ``entries``: the stiffness
    blocks for (K, G), the damping blocks for (0, mu_visc). One product, so
    no per-modulus block array is built."""
    moduli, _ = _element_templates(grid.hx, grid.hy)
    return np.concatenate((K, G), axis=1) @ moduli[:, entries]


def mass_blocks(grid: StructuredGrid, rho: np.ndarray, entries=slice(None)) -> np.ndarray:
    """Per-element consistent mass blocks for Gauss-point rho, flattened as
    in ``stiffness_blocks``."""
    _, mass = _element_templates(grid.hx, grid.hy)
    return rho @ mass[:, entries]


@functools.lru_cache(maxsize=8)
def _full_slots(ndof: int, dof_bytes: bytes):
    """Slot map (see ``_slot_map``) of the full matrix, the identity map's,
    keyed by the raw element-dof array."""
    dofs = np.frombuffer(dof_bytes, dtype=np.int64).reshape(-1, 8)
    keys, slot = np.unique(np.repeat(dofs, 8, axis=1) * ndof + np.tile(dofs, (1, 8)),
                           return_inverse=True)
    indptr = np.zeros(ndof + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // ndof, minlength=ndof), out=indptr[1:])
    # int32 halves the slot arrays kept per map; bincount widens them per call
    return (np.arange(64), slot.astype(np.int32).ravel(), indptr,
            (keys % ndof).astype(np.int32), np.empty(0, dtype=np.intp))


def _slot_map(grid: StructuredGrid, columns: np.ndarray, n: int):
    """(used, slot, indptr, indices, merge) of assembly through the map of
    dof i to column ``columns[i]`` of n (-1: prescribed). Only the ``used``
    flat block entries (of 64) are kept anywhere; ``slot`` sends each to its
    reduced CSR slot, or to the last (trash) one. Full entries that share a
    reduced one (periodic edges, a rigid frame) are summed in own slots past
    the reduced ones, then added into theirs, ``merge``, in full CSR order
    as P^T A P adds them: bitwise the reduction of the full matrix."""
    _, full_slot, full_indptr, full_indices, _ = _full_slots(
        grid.ndof, grid.element_dofs().tobytes())
    rows = columns[np.repeat(np.arange(grid.ndof), np.diff(full_indptr))]
    cols = columns[full_indices]
    kept = (rows >= 0) & (cols >= 0)   # of each full entry
    red_keys, red = np.unique(rows[kept] * n + cols[kept], return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(red_keys // n, minlength=n), out=indptr[1:])
    merged = np.bincount(red)[red] > 1
    first, nm = red.copy(), np.count_nonzero(merged)
    first[merged] = len(red_keys) + np.arange(nm)
    to = np.full(len(full_indices), len(red_keys) + nm, dtype=np.int32)
    to[kept] = first
    blocks = full_slot.reshape(-1, 64)
    used = np.flatnonzero(kept[blocks].any(axis=0))
    return (used, to[blocks[:, used]].ravel(), indptr, (red_keys % n).astype(np.int32),
            red[merged])


def _scatter(slots, entries: np.ndarray) -> sparse.csr_matrix:
    """Sum the (ne, len(used)) block entries into the reduced pattern of
    ``slots``, in element order, exact zeros dropped."""
    _, slot, indptr, indices, merge = slots
    n, m = len(indices), len(merge)
    sums = np.bincount(slot, weights=entries.ravel(), minlength=n + m + 1)
    data = sums[:n]
    if m:
        data = data + np.bincount(merge, weights=sums[n:n + m], minlength=n)
    nonzero = data != 0
    indptr = np.concatenate(([0], np.cumsum(nonzero, dtype=np.int32)))[indptr]
    return sparse.csr_matrix((data[nonzero], indices[nonzero], indptr),
                             shape=(len(indptr) - 1,) * 2)


def assemble(grid: StructuredGrid, fields: GaussPointFields,
             ops: ConstraintOperators | None = None):
    """(M, K) csr matrices from Gauss-point material fields: P^T (M, K) P
    under the map of ``ops``, the full matrices without it. The
    viscosity-dependent damping matrix comes from ``damping_matrix``."""
    fields.validate()
    slots = _full_slots(grid.ndof, grid.element_dofs().tobytes()) if ops is None else ops.slots
    return (_scatter(slots, mass_blocks(grid, fields.rho, slots[0])),
            _scatter(slots, stiffness_blocks(grid, fields.K, fields.G, slots[0])))


def damping_matrix(grid: StructuredGrid, fields: GaussPointFields,
                   ops: ConstraintOperators | None = None) -> sparse.csr_matrix:
    """Damping csr matrix alone, the only viscosity-dependent one: P^T C P
    under the map of ``ops``, the full matrix without it."""
    fields.validate()
    slots = _full_slots(grid.ndof, grid.element_dofs().tobytes()) if ops is None else ops.slots
    zero = np.zeros_like(fields.mu_visc)
    return _scatter(slots, stiffness_blocks(grid, zero, fields.mu_visc, slots[0]))


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
    PERIODIC = "periodic"      # unpinned: the Bloch map at kappa = 0


@dataclass(frozen=True)
class ConstraintOperators:
    """Kinematic operators of a cell under one master-slave map: P expands
    through it, ``columns`` holds each dof's column of P (-1: prescribed)."""

    P: sparse.csr_matrix
    grid: StructuredGrid = field(repr=False)
    columns: np.ndarray = field(repr=False)

    @property
    def nfree(self) -> int:
        return self.P.shape[1]

    @functools.cached_property
    def slots(self):
        """Slot map of assembly through this map (see ``_slot_map``), built on
        first use: the Bloch map never assembles through itself."""
        return _slot_map(self.grid, self.columns, self.nfree)

    @functools.cached_property
    def _bases(self):
        """(N_mu, B_mu, Y, I_rigid) of the grid, built on first use: maps such
        as the Bloch one need none of them."""
        return averaging_operators(self.grid) + kinematic_basis(self.grid)

    N_mu, B_mu, Y, I_rigid = (property(lambda self, k=k: self._bases[k]) for k in range(4))


def _check_periodic_pairs(grid: StructuredGrid):
    for a, b, axis in ((grid.left, grid.right, 1), (grid.bottom, grid.top, 0)):
        if len(a) != len(b):
            raise MeshIncompatibilityError("periodic boundary sets differ in size")
        off = np.abs(grid.coords[a, axis] - grid.coords[b, axis]).max()
        if off > 1e-12 * max(grid.width, grid.height):
            raise MeshIncompatibilityError("periodic boundary nodes misaligned")


def build_constraints(grid: StructuredGrid, bc: BoundaryCondition,
                      horizontal_only: bool = False,
                      frame: np.ndarray | None = None) -> ConstraintOperators:
    """Master-slave map of ``bc`` (every dof follows at most one master dof
    in its own direction; columns run over the master nodes, directions
    fastest) plus the averaging and rigid bases. ``horizontal_only``
    additionally prescribes every vertical dof, matching the one-directional
    reduced analyses of the optimizer. ``frame``, a node mask, makes those
    nodes rigid: FULLY_PRESCRIBED prescribes them, FREE has them follow the
    first of them."""
    nodes = np.arange(grid.nnode)
    boundary = np.isin(nodes, np.concatenate([grid.left, grid.right, grid.bottom, grid.top]))
    master = nodes.copy()            # the node each node follows, -1: prescribed
    if frame is not None:
        prescribed = bc is BoundaryCondition.FULLY_PRESCRIBED
        master[frame] = -1 if prescribed else np.flatnonzero(frame)[0]
    if bc is BoundaryCondition.FULLY_PRESCRIBED:
        master[boundary] = -1
    elif bc is not BoundaryCondition.FREE:
        _check_periodic_pairs(grid)
        master[grid.right] = grid.left
        master[grid.top] = master[grid.bottom]   # the (L, H) corner follows (0, 0)
        if bc is BoundaryCondition.PERIODIC_PINNED:
            master[grid.corners] = -1   # zero microfluctuation pins rigid motion
    order = nodes[master == nodes]
    if bc is BoundaryCondition.PERIODIC_PINNED:   # interior, then left and bottom edges
        edges = np.concatenate([grid.left, grid.bottom])
        order = np.concatenate([nodes[~boundary], edges[master[edges] >= 0]])
    width = 1 if horizontal_only else 2
    col = np.full(grid.nnode + 1, -1)    # the last entry serves master = -1
    col[order] = width * np.arange(len(order))
    col, d = col[master][:, None], np.arange(2)
    columns = np.where((col >= 0) & (d < width), col + d, -1).ravel()   # per dof
    rows = np.flatnonzero(columns >= 0)
    P = sparse.csr_matrix((np.ones(len(rows)), (rows, columns[rows])),
                          shape=(grid.ndof, width * len(order)))
    return ConstraintOperators(P=P, grid=grid, columns=columns)


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

