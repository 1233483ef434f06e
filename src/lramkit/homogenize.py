"""Viscoelastic homogenization of a unit cell with modal order reduction.

Produces the full effective-material record of a cell: quasi-static
effective elastic and viscous tensors, average density, and the reduced
inertial system (modal coupling vector, natural frequencies, modal damping
matrix) that makes the macroscopic inertia frequency dependent.

Stiffness and mass do not depend on the viscosity: ``cell_modes`` solves
the cell once per design, for exactly the modes below the mode ceiling, and
the viscosity enters only through the damping projection of
``effective_material``.

Harmonic quantities follow the exp(-i w t) convention, so the dynamic
density reads rho_eff(w) = rho_bar I + w^2 Q (W^2 - w^2 I - i w W_D)^-1 Q^T
and its imaginary part is nonnegative for dissipative cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, modal
from .errors import ConstraintError, NoRelevantModeError, PoleError, SolverFailureError
from .grid import StructuredGrid
from .materials import GaussPointFields

# eigenvalues closer than this fraction of the largest one form one cluster
CLUSTER_RTOL = 1e-7


@dataclass(frozen=True)
class ModeRecord:
    """One computed inertial mode: frequency, coupling magnitudes, kept flag."""

    index: int
    frequency_hz: float
    coupling_x: float
    coupling_y: float
    kept: bool


@dataclass(frozen=True)
class EffectiveMaterial:
    """Homogenized constitutive record of one cell design."""

    rho_bar: float                      # kg/m^3
    C_eff: np.ndarray                   # (3, 3) Pa, Voigt plane strain
    eta_eff: np.ndarray                 # (3, 3) Pa*s
    Q: np.ndarray                       # (2, m) coupling, kg^0.5 m^-1.5
    omega2: np.ndarray                  # (m,) rad^2/s^2, kept natural frequencies
    omega_d: np.ndarray                 # (m, m) rad/s, modal damping
    cell_size: float                    # m
    volume: float                       # m^3 (unit out-of-plane depth)
    mode_table: tuple[ModeRecord, ...] = ()
    coupling_ratio: float = 0.0         # damping leakage into dropped modes

    @property
    def n_modes(self) -> int:
        return len(self.omega2)

    @property
    def resonance_frequencies_hz(self) -> np.ndarray:
        return np.sqrt(self.omega2) / (2.0 * math.pi)

    def poles_hz(self, axis: int | None = None, rel_tol: float = 1e-3) -> np.ndarray:
        """Resonances that actually couple to direction ``axis`` (or any)."""
        if self.n_modes == 0:
            return np.empty(0)
        scale = math.sqrt(self.rho_bar)
        if axis is None:
            strength = np.linalg.norm(self.Q, axis=0)
        else:
            strength = np.abs(self.Q[axis])
        return self.resonance_frequencies_hz[strength > rel_tol * scale]


def quasi_static(K, ops: fem.ConstraintOperators, volume: float,
                 factor: modal.ShiftInvert):
    """Effective elastic tensor and deflated strain basis Y_tilde.

    The microfluctuation under a unit macroscopic strain follows from the
    constrained stiffness solve, with ``factor`` the zero-shift factorization
    of P^T K P; Y_tilde then contracts K (and, in ``effective_material``, the
    damping matrix) to the 3x3 effective tensors.
    """
    P = ops.P
    Y = ops.Y
    X = factor.operator.matmat(np.asarray(P.T @ (K @ Y)))
    Y_tilde = Y - P @ X
    C_eff = (Y.T @ (K @ Y_tilde)) / volume
    C_eff = 0.5 * (C_eff + C_eff.T)
    return C_eff, Y_tilde


@dataclass(frozen=True)
class CellModes:
    """Viscosity-free part of a cell's homogenization: the reduced modal system
    plus, filled in by ``cell_modes``, the quasi-static tensor, basis and map."""

    rho_bar: float
    Q: np.ndarray
    omega2: np.ndarray
    solution: modal.ModalSolution
    kept: np.ndarray
    coupling: np.ndarray                # (d, count) volume-averaged <rho phi>
    C_eff: np.ndarray | None = None
    Y_tilde: np.ndarray | None = field(default=None, repr=False)  # (ndof, 3)
    ops: fem.ConstraintOperators | None = field(default=None, repr=False)


def _align_degenerate(sol: modal.ModalSolution, coupling: np.ndarray,
                      rel_tol: float = CLUSTER_RTOL):
    """Rotate (near-)degenerate eigenspaces so coupling columns decouple.

    Repeated eigenvalues of symmetric cells come back from the solver in an
    arbitrary basis that mixes x- and y-coupled motion. A QR rotation of
    each cluster concentrates the x-coupling in its first mode and leaves
    the remaining cluster modes purely y-coupled, which makes the per-mode
    attribution well defined without changing the physics (the rotation is
    orthogonal and preserves M-orthonormality).
    """
    vals = sol.eigenvalues
    modes = sol.modes.copy()
    coupling = coupling.copy()
    scale = max(float(np.abs(vals).max(initial=0.0)), 1e-300)
    start = 0
    for end in range(1, len(vals) + 1):
        if end < len(vals) and abs(vals[end] - vals[end - 1]) <= rel_tol * scale:
            continue
        if end - start > 1:
            block = coupling[:, start:end]
            rot, tri = np.linalg.qr(block.T, mode="complete")
            for j in range(min(tri.shape)):
                if tri[j, j] < 0.0:
                    rot[:, j] = -rot[:, j]
            modes[:, start:end] = modes[:, start:end] @ rot
            coupling[:, start:end] = block @ rot
        start = end
    return modal.ModalSolution(vals, modes, sol.residuals), coupling


def reduced_inertial_system(M, Kr, Mr, P, I_rigid, volume: float, rho_bar: float,
                            modes_below: int, delta_tol: float = 1e-3,
                            factor: modal.ShiftInvert | None = None) -> CellModes:
    """Modal reduction of the constrained inertial problem.

    Solves the undamped constrained pencil (Kr, Mr) = P^T (K, M) P, shifted
    by zero (``factor``, when given, is that factorization), once for its
    ``modes_below`` smallest modes, the count below the mode ceiling, and
    keeps those with significant momentum coupling (against a rigid
    translation of mean density ``rho_bar``); none may couple. The
    coupling columns are scaled so that Q Q^T carries density units, making
    rho_eff a true density.
    """
    if modes_below > 0:
        sol = modal.solve_smallest(Kr, Mr, modes_below, factor=factor)
    else:
        sol = modal.ModalSolution(np.empty(0), np.empty((Kr.shape[0], 0)), np.empty(0))
    coupling = modal.momentum_coupling(sol, M, P, I_rigid, volume)
    sol, coupling = _align_degenerate(sol, coupling)
    try:
        kept = modal.filter_relevant_restricted(sol, coupling,
                                                math.sqrt(rho_bar / volume), delta_tol)
    except NoRelevantModeError:
        kept = np.empty(0, dtype=int)
    Q = coupling[:, kept] * math.sqrt(volume)
    omega2 = sol.eigenvalues[kept].copy()
    return CellModes(rho_bar=rho_bar, Q=Q, omega2=omega2, solution=sol, kept=kept,
                     coupling=coupling)


def cell_modes(grid: StructuredGrid, fields: GaussPointFields, delta_tol: float = 1e-3,
               keep_below_hz: float = 6000.0) -> CellModes:
    """Periodic quasi-static tensor and undamped modal basis of a cell, once
    per design; the viscosity in ``fields`` is ignored.

    An inertia count of the pencil at ``keep_below_hz`` says how many modes
    lie below it, and one eigensolve computes exactly those.
    """
    ops = fem.build_constraints(grid, fem.BoundaryCondition.PERIODIC_PINNED)
    volume = grid.area
    M, K = fem.assemble(grid, fields)
    Mr, Kr = fem.assemble(grid, fields, ops)
    # counted first: its factorization is freed before the zero-shift one exists
    modes_below = modal.count_below(Kr, Mr, (2.0 * math.pi * keep_below_hz) ** 2)
    # one factorization serves the quasi-static solve and the eigensolve
    try:
        factor = modal.shift_invert(Kr, Mr, shift=0.0)
    except SolverFailureError as err:
        raise ConstraintError(f"reduced stiffness singular: {err}") from err
    C_eff, Y_tilde = quasi_static(K, ops, volume, factor)
    rho_bar = float(fields.rho.mean())   # <rho>: every Gauss point weighs the same
    red = reduced_inertial_system(M, Kr, Mr, ops.P, ops.I_rigid, volume, rho_bar,
                                  modes_below, delta_tol=delta_tol, factor=factor)
    return replace(red, C_eff=C_eff, Y_tilde=Y_tilde, ops=ops)


def effective_material(cell: CellModes, fields: GaussPointFields) -> EffectiveMaterial:
    """Effective record of ``cell`` with the viscosity of ``fields``: assembles
    only the damping matrix and projects it onto the quasi-static basis
    (eta_eff) and the kept modes (omega_d)."""
    grid, sol, kept = cell.ops.grid, cell.solution, cell.kept
    volume = grid.area
    C = fem.damping_matrix(grid, fields)
    eta_eff = (cell.Y_tilde.T @ (C @ cell.Y_tilde)) / volume
    eta_eff = 0.5 * (eta_eff + eta_eff.T)
    Cr = fem.damping_matrix(grid, fields, cell.ops)
    # one projection gives the kept block and its leakage into the dropped modes
    proj = sol.modes.T @ (Cr @ sol.modes[:, kept])
    omega_d = proj[kept]
    omega_d = 0.5 * (omega_d + omega_d.T)
    dropped = np.setdiff1d(np.arange(sol.count), kept)
    ratio = 0.0
    if kept.size and dropped.size:
        cross = proj[dropped]
        on = np.linalg.norm(omega_d)
        if on > 0.0:
            ratio = float(np.linalg.norm(cross) / on)
    kept_set = set(int(k) for k in kept)
    scale = math.sqrt(volume)
    table = tuple(
        ModeRecord(index=j,
                   frequency_hz=float(sol.frequencies_hz[j]),
                   coupling_x=float(abs(cell.coupling[0, j]) * scale),
                   coupling_y=float(abs(cell.coupling[1, j]) * scale),
                   kept=j in kept_set)
        for j in range(sol.count))
    return EffectiveMaterial(rho_bar=cell.rho_bar, C_eff=cell.C_eff, eta_eff=eta_eff,
                             Q=cell.Q, omega2=cell.omega2, omega_d=omega_d,
                             cell_size=grid.cell_size, volume=volume,
                             mode_table=table, coupling_ratio=ratio)


def effective_density(em: EffectiveMaterial, omega: float) -> np.ndarray:
    """Complex 2x2 dynamic density at angular frequency ``omega``.

    Diverges at the undamped kept resonances; callers must offset their
    sampling (PoleError reports the offending frequency).
    """
    if omega < 0.0:
        raise ValueError("omega must be >= 0")
    rho = em.rho_bar * np.eye(2, dtype=complex)
    m = em.n_modes
    if m == 0 or omega == 0.0:
        return rho
    undamped = not np.any(em.omega_d)
    gap = np.abs(em.omega2 - omega ** 2)
    if undamped and gap.min() <= 1e-10 * max(float(np.max(em.omega2)), omega ** 2):
        k = int(np.argmin(gap))
        raise PoleError("effective density evaluated at an undamped resonance",
                        frequency_hz=float(np.sqrt(em.omega2[k]) / (2 * math.pi)))
    A = np.diag(em.omega2.astype(complex) - omega ** 2) - 1j * omega * em.omega_d
    try:
        X = np.linalg.solve(A, em.Q.T.astype(complex))
    except np.linalg.LinAlgError as err:
        raise PoleError(f"modal system singular at {omega / (2 * math.pi):.3f} Hz",
                        frequency_hz=omega / (2 * math.pi)) from err
    return rho + omega ** 2 * (em.Q @ X)


def bandgap_edges(em: EffectiveMaterial, axis: int = 0,
                  f_max_hz: float = 6000.0) -> tuple[float, float] | None:
    """First negative-density band in direction ``axis`` (undamped picture).

    The lower edge is the first coupled resonance; the upper edge is where
    the real part of rho_eff returns to positive. Returns None when no
    coupled resonance lies below ``f_max_hz``.
    """
    # imported here, its only use: scipy.optimize is heavy and no stage needs it
    from scipy.optimize import brentq

    poles = em.poles_hz(axis=axis)
    below = poles[poles < f_max_hz]
    if below.size == 0:
        return None
    f_lo = float(below[0])
    above = poles[poles > f_lo * (1.0 + 1e-9)]
    f_stop = float(above[0]) * (1.0 - 1e-6) if above.size else f_max_hz

    undamped = replace(em, omega_d=np.zeros_like(em.omega_d))

    def re_rho(f_hz: float) -> float:
        return float(effective_density(undamped, 2.0 * math.pi * f_hz)[axis, axis].real)

    fs = np.linspace(f_lo * (1.0 + 1e-4), f_stop, 400)
    vals = np.array([re_rho(f) for f in fs])
    pos = np.flatnonzero(vals > 0.0)
    if pos.size == 0:
        return (f_lo, f_stop)
    k = pos[0]
    if k == 0:
        return (f_lo, float(fs[0]))
    f_hi = brentq(re_rho, fs[k - 1], fs[k], xtol=1e-6 * fs[k])
    return (f_lo, float(f_hi))


def _fmt_matrix(a: np.ndarray) -> str:
    return " ".join(f"{v:.12g}" for v in np.asarray(a).ravel())


def write_report(em: EffectiveMaterial, path) -> None:
    """Plain-text key = value report with row-major tensors and mode table."""
    lines = [
        "# homogenized cell report; tensors row-major, SI units",
        f"cell_size_m = {em.cell_size:.12g}",
        f"cell_volume_m3 = {em.volume:.12g}",
        f"rho_bar_kg_m3 = {em.rho_bar:.12g}",
        f"C_eff_Pa = {_fmt_matrix(em.C_eff)}",
        f"eta_eff_Pa_s = {_fmt_matrix(em.eta_eff)}",
        f"n_modes_kept = {em.n_modes}",
        f"omega2_rad2_s2 = {_fmt_matrix(em.omega2)}",
        f"omega_d_rad_s = {_fmt_matrix(em.omega_d)}",
        f"Q_kg05_m15 = {_fmt_matrix(em.Q)}",
        f"damping_coupling_ratio = {em.coupling_ratio:.12g}",
        "# rho_eff(w) = rho_bar*I + w^2 * Q (Omega^2 - w^2 I - i w Omega_D)^-1 Q^T",
        "# mode table: index = f_Hz |Q_x| |Q_y| kept",
    ]
    for rec in em.mode_table:
        lines.append(f"mode_{rec.index} = {rec.frequency_hz:.6f} "
                     f"{rec.coupling_x:.12g} {rec.coupling_y:.12g} {int(rec.kept)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
