"""Independent oracles used by the test suite.

Everything here is derived without touching the package's assembly or
solver paths: symbolic element integration, closed-form laminate mixing,
textbook plane-wave transfer through a three-media stack, plain dense
eigendecompositions, node-by-node constraint maps.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse


def q4_element_matrices_symbolic(hx: float, hy: float, C: np.ndarray, rho: float):
    """Exact (symbolically integrated) stiffness and mass of one Q4 element.

    Plane strain, Voigt (xx, yy, xy) with engineering shear, element
    spanning [0, hx] x [0, hy], unit out-of-plane depth.
    """
    import sympy as sp

    x, y = sp.symbols("x y", real=True)
    a, b = sp.Rational(1), sp.Rational(1)
    # bilinear shape functions on the physical rectangle
    N = [
        (1 - x / hx) * (1 - y / hy),
        (x / hx) * (1 - y / hy),
        (x / hx) * (y / hy),
        (1 - x / hx) * (y / hy),
    ]
    B = sp.zeros(3, 8)
    Nmat = sp.zeros(2, 8)
    for i, Ni in enumerate(N):
        B[0, 2 * i] = sp.diff(Ni, x)
        B[1, 2 * i + 1] = sp.diff(Ni, y)
        B[2, 2 * i] = sp.diff(Ni, y)
        B[2, 2 * i + 1] = sp.diff(Ni, x)
        Nmat[0, 2 * i] = Ni
        Nmat[1, 2 * i + 1] = Ni
    Cs = sp.Matrix(C)
    Kint = B.T * Cs * B
    Mint = rho * (Nmat.T * Nmat)
    K = sp.integrate(sp.integrate(Kint, (x, 0, hx)), (y, 0, hy))
    M = sp.integrate(sp.integrate(Mint, (x, 0, hx)), (y, 0, hy))
    return (np.array(K.evalf(), dtype=float) * float(a),
            np.array(M.evalf(), dtype=float) * float(b))


def laminate_c11(c11_list, fractions) -> float:
    """Exact normal-direction stiffness of a layered medium (layers normal
    to x, epsilon_yy suppressed): the harmonic volume average of C11."""
    c = np.asarray(c11_list, dtype=float)
    f = np.asarray(fractions, dtype=float)
    return 1.0 / float(np.sum(f / c))


def air_solid_air_rt(rho_s: float, c11: float, L: float, f_hz: float,
                     rho_a: float = 1.2, v_a: float = 344.0):
    """Reflection/transmission of a normally incident plane wave through a
    solid slab between two air half spaces (exp(-i w t) convention).

    Unknowns: R, the two slab wave amplitudes, and the displacement
    amplitude at the exit face. Continuity of displacement and normal
    traction at both interfaces.
    """
    w = 2.0 * np.pi * f_hz
    c2 = np.sqrt(c11 / rho_s)
    k2 = w / c2
    Z1 = rho_a * v_a
    Z2 = rho_s * c2
    eP = np.exp(1j * k2 * L)
    eM = np.exp(-1j * k2 * L)
    A = np.array([
        [1.0, 1.0, 1.0, 0.0],          # (1 - R) = a + b
        [-Z1, Z2, -Z2, 0.0],           # Z1 (1 + R) = Z2 (a - b)
        [0.0, eP, eM, -1.0],           # a e+ + b e- = T_face
        [0.0, Z2 * eP, -Z2 * eM, -Z1],  # Z2 (a e+ - b e-) = Z1 T_face
    ], dtype=complex)
    rhs = np.array([1.0, Z1, 0.0, 0.0], dtype=complex)
    R, _, _, T = np.linalg.solve(A, rhs)
    return complex(R), complex(T)


def mass_law_tl_db(surface_density: float, f_hz: float,
                   rho_a: float = 1.2, v_a: float = 344.0) -> float:
    """Normal-incidence mass-law estimate for sanity checks."""
    return 20.0 * np.log10(np.pi * f_hz * surface_density / (rho_a * v_a))


def dense_modal(K: np.ndarray, M: np.ndarray):
    """Plain dense generalized eigensolution with mass-normalized modes."""
    from scipy.linalg import eigh

    vals, vecs = eigh(K, M)
    for j in range(vecs.shape[1]):
        n = vecs[:, j] @ M @ vecs[:, j]
        vecs[:, j] /= np.sqrt(n)
    return vals, vecs


def chain_matrices(masses, springs):
    """Stiffness/mass of a 1D chain.

    ``springs`` has len(masses) + 1 entries: wall-m1, m1-m2, ..., mN-wall;
    use 0 for absent wall springs (free ends).
    """
    m = np.asarray(masses, dtype=float)
    k = np.asarray(springs, dtype=float)
    n = len(m)
    K = np.zeros((n, n))
    for i in range(n):
        K[i, i] += k[i] + k[i + 1]
        if i + 1 < n:
            K[i, i + 1] -= k[i + 1]
            K[i + 1, i] -= k[i + 1]
    return K, np.diag(m)


def master_slave_map(grid, bc: str, horizontal_only: bool = False,
                     kappa: float = 0.0, frame=None):
    """Node-by-node constraint operator P (csr) of a cell.

    ``bc`` is "free", "fully-prescribed", "periodic-pinned" (corners
    prescribed, right/top edge nodes follow left/bottom ones) or "periodic"
    (unpinned: every node follows the node (i mod nx, j mod ny), times
    e^{i kappa L} when it sits on x = L). Columns run over the masters,
    directions fastest. ``frame``, a node mask for the first two, makes
    those nodes rigid: prescribed ("fully-prescribed"), or following the
    first of them ("free").
    """
    nnode = grid.nnode
    directions = (0,) if horizontal_only else (0, 1)
    boundary = np.zeros(nnode, dtype=bool)
    for arr in (grid.left, grid.right, grid.bottom, grid.top):
        boundary[arr] = True
    in_frame = np.zeros(nnode, dtype=bool) if frame is None else np.asarray(frame)
    rows: list[int] = []
    cols: list[int] = []
    vals: list = []

    if bc == "fully-prescribed":
        col = 0
        for node in np.flatnonzero(~boundary & ~in_frame):
            for d in directions:
                rows.append(2 * node + d)
                cols.append(col)
                col += 1
    elif bc == "free":
        first_col: dict[int, int] = {}   # master node -> its first column
        for node in range(nnode):
            master = int(np.flatnonzero(in_frame)[0]) if in_frame[node] else node
            if master not in first_col:
                first_col[master] = len(directions) * len(first_col)
            for k, d in enumerate(directions):
                rows.append(2 * node + d)
                cols.append(first_col[master] + k)
    elif bc == "periodic-pinned":
        corner_set = set(int(c) for c in grid.corners)
        master_of = np.full(nnode, -1, dtype=np.int64)
        masters = list(np.flatnonzero(~boundary))
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
    elif bc == "periodic":
        nx, ny = grid.nx, grid.ny
        phase = np.exp(1j * kappa * grid.width)
        for j in range(ny + 1):
            for i in range(nx + 1):
                master = (j % ny) * nx + i % nx
                for k, d in enumerate(directions):
                    rows.append(2 * grid.node_id(i, j) + d)
                    cols.append(len(directions) * master + k)
                    vals.append(phase if i == nx else 1.0)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")

    if not vals:
        vals = [1.0] * len(rows)
    ncols = max(cols) + 1 if cols else 0
    return sparse.coo_matrix((vals, (rows, cols)), shape=(grid.ndof, ncols)).tocsr()
