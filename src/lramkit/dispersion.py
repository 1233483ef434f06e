"""Plane-wave dispersion of the homogenized medium and a Bloch oracle.

The effective path turns the frequency-dependent density into a complex
wavenumber for an x-travelling longitudinal wave; the oracle solves the
true heterogeneous cell under Bloch phase shifts in x (plain periodicity
in y) and returns the lowest branches with their polarization content, so
longitudinal branches can be compared against the effective prediction.
The Bloch map is the unpinned periodic map P of ``fem`` as P0 + t P1, with
t = e^{i kappa L}, P1 the rows of P on x = L and P0 the others. For a
symmetric A the Bloch pencil is A0 + t A1 + conj(t) A1^T, whose two real
parts A0 = P0^T A P0 + P1^T A P1 and A1 = P0^T A P1 are formed once per
oracle call. Only this module knows the Bloch phase.

Only the border of the pencil depends on kappa: A1 has its columns in B,
the reduced dofs of the left-edge masters that the x = L dofs follow (2 ny
of them), against I, the rest. With A = K - sigma M, A_II = (A0)_II and
A_IB = E0 + t E1 with E0 = (A0)_IB, E1 = (A1)_IB. Each oracle call
therefore factors A_II once (the one sparse factorization of the call) and
forms the Gram matrix G = [E0 E1]^T A_II^-1 [E0 E1] in column chunks; per
kappa, the Schur complement S = A_BB - (G00 + t G01 + conj(t) G10 + G11) is
Cholesky-factored, and a shift-invert apply is an A_II solve, an S solve
and a second A_II solve for the interior. This is exact static
condensation. It needs sigma below the spectrum (sigma < 0 here), so that
A_II and S are positive definite; a failed factorization of either is a
solver failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as dla
from scipy import sparse
from scipy.sparse import linalg as spla

from . import fem, modal
from .errors import SolverFailureError
from .grid import StructuredGrid
from .homogenize import EffectiveMaterial, effective_density
from .materials import GaussPointFields

POLE_NUDGE_HZ = 0.1
# Bloch shift-invert point, well below the spectrum: a shift next to the two
# rigid branches at kappa = 0 leaves the first elastic branch there with a
# relative residual of about 1e-5 instead of 1e-8
_BLOCH_SHIFT = -(2.0 * math.pi * 300.0) ** 2
# border columns per interior solve while the Gram matrix is built: the whole
# interior-by-border block at once would raise the peak memory of a 60x60 run
_GRAM_CHUNK = 24


@dataclass(frozen=True)
class DispersionCurve:
    """kappa(f) of the homogenized medium, normalized by pi/cell."""

    frequencies_hz: np.ndarray
    kappa_norm: np.ndarray = field(repr=False)   # complex kappa * cell / pi
    branch: str = "longitudinal"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("f_Hz,Re_k_norm,Im_k_norm\n")
            for f, k in zip(self.frequencies_hz, self.kappa_norm):
                fh.write(f"{f:.12g},{k.real:.12g},{k.imag:.12g}\n")


@dataclass(frozen=True)
class BlochResult:
    """Lowest eigenfrequency branches of the Bloch-constrained cell."""

    kappas: np.ndarray                            # rad/m
    frequencies_hz: np.ndarray = field(repr=False)  # (nk, nb)
    x_fraction: np.ndarray = field(repr=False)      # (nk, nb) polarization
    residuals: np.ndarray = field(repr=False)       # (nk, nb) eigen residuals

    def worst_elastic_residual(self) -> float:
        """Largest eigen residual over the elastic branches. The first two
        branches at kappa = 0 are the rigid pair, left out by position: their
        eigenvalues are roundoff, so their residuals are not small by nature."""
        res = self.residuals.copy()
        res[self.kappas == 0.0, :2] = 0.0
        return float(res.max(initial=0.0))

    def to_csv(self, path, cell_size: float) -> None:
        nb = self.frequencies_hz.shape[1]
        with open(path, "w") as fh:
            fh.write("k_norm," + ",".join(f"f{j + 1}_Hz" for j in range(nb)) + "\n")
            for kap, row in zip(self.kappas, self.frequencies_hz):
                vals = ",".join(f"{v:.12g}" for v in row)
                fh.write(f"{kap * cell_size / math.pi:.12g},{vals}\n")


def nudge_frequencies(freqs_hz: np.ndarray, poles_hz: np.ndarray,
                      eps_hz: float = POLE_NUDGE_HZ) -> np.ndarray:
    """Move samples off undamped poles by ``eps_hz`` (side-preserving)."""
    out = np.asarray(freqs_hz, dtype=float).copy()
    for p in np.asarray(poles_hz, dtype=float):
        close = np.abs(out - p) < eps_hz
        if np.any(close):
            out[close] = np.where(out[close] >= p, p + eps_hz, p - eps_hz)
    return out


def effective_dispersion(em: EffectiveMaterial, freqs_hz, axis: int = 0,
                         nudge: bool = True) -> DispersionCurve:
    """kappa(w) = w sqrt(rho_eff,xx(w) / (C11 - i w eta11)), decaying branch.

    Under the exp(-i w t) convention a passive medium gives a radicand in
    the closed upper half plane, so the principal square root already lands
    in the first quadrant (Re kappa >= 0, Im kappa >= 0); the Heaviside gap
    of the undamped medium comes out purely imaginary.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    if nudge and not np.any(em.omega_d):
        freqs = nudge_frequencies(freqs, em.poles_hz(axis=axis))
    c11 = em.C_eff[axis, axis]
    eta11 = em.eta_eff[axis, axis]
    kappa = np.zeros(len(freqs), dtype=complex)
    for j, f in enumerate(freqs):
        w = 2.0 * math.pi * f
        if w == 0.0:
            continue
        rho = effective_density(em, w)[axis, axis]
        s = np.sqrt(rho / (c11 - 1j * w * eta11))
        if s.imag < 0.0:
            s = -s
        kappa[j] = w * s
    return DispersionCurve(frequencies_hz=freqs,
                           kappa_norm=kappa * em.cell_size / math.pi)


def _split_rows(ops):
    """(P0, P1): the rows of the map ``ops.P`` off and on x = L."""
    on_right = np.zeros(ops.grid.ndof)
    on_right[2 * ops.grid.right] = on_right[2 * ops.grid.right + 1] = 1.0
    return sparse.diags(1.0 - on_right) @ ops.P, sparse.diags(on_right) @ ops.P


def _bloch_parts(A, P0, P1):
    """Real parts (A0, A1) of the symmetric A under the Bloch map P0 + t P1,
    so that its pencil is A0 + t A1 + conj(t) A1^T. A0 is symmetrized: the
    pencil is then Hermitian to the last bit."""
    AP1 = A @ P1
    A0 = P0.T @ (A @ P0) + P1.T @ AP1
    return (0.5 * (A0 + A0.T)).tocsr(), (P0.T @ AP1).tocsr()


def _pencil_at(parts, t: complex):
    """A0 + t A1 + conj(t) A1^T, the Bloch pencil of the parts (A0, A1), csr
    or dense, at phase t."""
    A0, A1 = parts
    return A0 + t * A1 + np.conj(t) * A1.T


class _BlochCell:
    """The Bloch pencil of a cell in real parts and the wavenumber-free part
    of its shift-invert operator (see the module docstring). ``K`` and ``M``
    hold each matrix's parts (A0, A1), ``P`` the map, ``border`` and
    ``inner`` B and I in the map's column order. With A = K - sigma M,
    ``lu`` factors A_II, ``E`` is (E0, E1), ``A_BB`` the border block's
    parts, and ``gram`` is [E0 E1]^T A_II^-1 [E0 E1].
    """

    def __init__(self, grid: StructuredGrid, fields: GaussPointFields):
        M, K = fem.assemble(grid, fields)
        ops = fem.build_constraints(grid, fem.BoundaryCondition.PERIODIC)
        P0, P1 = _split_rows(ops)
        self.P, self.width = ops.P, grid.width
        self.K, self.M = _bloch_parts(K, P0, P1), _bloch_parts(M, P0, P1)
        A0, A1 = (k - _BLOCH_SHIFT * m for k, m in zip(self.K, self.M))
        self.border = np.unique(P1.indices)
        self.inner = np.setdiff1d(np.arange(ops.nfree), self.border)
        inner, border = self.inner, self.border
        A0_I = A0[inner]
        try:
            self.lu = modal._splu(A0_I[:, inner])
        except RuntimeError as err:
            raise SolverFailureError(
                f"Bloch interior factorization, shared by every wavenumber, failed: {err}"
            ) from err
        self.E = A0_I[:, border], A1[inner][:, border]
        self.A_BB = A0[border][:, border].toarray(), A1[border][:, border].toarray()
        E = sparse.hstack(self.E).tocsc()
        self.gram = np.empty((E.shape[1],) * 2)
        for lo in range(0, E.shape[1], _GRAM_CHUNK):
            chunk = slice(lo, lo + _GRAM_CHUNK)
            self.gram[:, chunk] = E.T @ self.lu.solve(E[:, chunk].toarray())

    def solve_interior(self, b):
        """A_II^-1 b for a complex b, as one two-column real solve."""
        x = self.lu.solve(np.column_stack((b.real, b.imag)))
        return x[:, 0] + 1j * x[:, 1]

    def shift_invert(self, t: complex, kappa: float) -> modal.ShiftInvert:
        """(Kb - sigma Mb)^-1 of the pencil at phase t = e^{i kappa L} through
        the Schur complement S = A_BB - A_BI A_II^-1 A_IB, Cholesky-factored:
        S is Hermitian positive definite because sigma lies below the spectrum."""
        inner, border = self.inner, self.border
        E0, E1 = self.E
        A_IB = (E0 + t * E1).tocsr()
        A_BI = A_IB.conj().T.tocsr()
        nb = len(border)
        G = self.gram
        S = _pencil_at(self.A_BB, t) - (G[:nb, :nb] + G[nb:, nb:]
                                        + t * G[:nb, nb:] + np.conj(t) * G[nb:, :nb])
        try:
            chol = dla.cho_factor(0.5 * (S + S.conj().T))
        except np.linalg.LinAlgError as err:
            raise SolverFailureError(
                f"Bloch Schur complement at kappa = {kappa:.9g} rad/m is not "
                f"positive definite: {err}") from err

        def apply(b):
            b = np.ravel(b)
            y = self.solve_interior(b[inner])
            x = np.empty(len(b), dtype=complex)
            x[border] = dla.cho_solve(chol, b[border] - A_BI @ y)
            x[inner] = y - self.solve_interior(A_IB @ x[border])
            return x

        return modal.ShiftInvert(_BLOCH_SHIFT, spla.LinearOperator(
            (self.P.shape[1],) * 2, matvec=apply, dtype=complex))


def _bloch_branches(cell: _BlochCell, kappa: float, n_branches: int):
    """Frequencies (Hz), x-polarization and eigen residuals of the lowest
    branches at one wavenumber. A function of its own so that the pencil,
    its operator and the modes are freed before the next wavenumber's."""
    t = np.exp(1j * kappa * cell.width)
    Kb, Mb = _pencil_at(cell.K, t), _pencil_at(cell.M, t)
    sol = modal.solve_smallest(Kb, Mb, n_branches, factor=cell.shift_invert(t, kappa))
    lam = np.clip(sol.eigenvalues, 0.0, None)
    # each row of the phased map holds one entry of modulus 1, so the
    # expanded |u|^2 is P |v|^2 dof by dof
    w = cell.P @ np.abs(sol.modes) ** 2
    return (np.sqrt(lam) / (2.0 * math.pi), w[0::2].sum(axis=0) / w.sum(axis=0),
            sol.residuals)


def bloch_oracle(grid: StructuredGrid, fields: GaussPointFields, kappas,
                 n_branches: int = 6) -> BlochResult:
    """Lowest real branches w(kappa) of the undamped heterogeneous cell.

    Viscosity in ``fields`` is ignored: the pencil is Hermitian and the
    squared frequencies are real. ``x_fraction`` reports per-branch
    longitudinal polarization for branch classification. The pencil's real
    parts are formed and the interior is factored once for every wavenumber
    (see the module docstring).
    """
    cell = _BlochCell(grid, fields)
    kappas = np.asarray(kappas, dtype=float)
    freqs, pol, res = (np.zeros((len(kappas), n_branches)) for _ in range(3))
    for idx, kap in enumerate(kappas):
        freqs[idx], pol[idx], res[idx] = _bloch_branches(cell, kap, n_branches)
    return BlochResult(kappas=kappas, frequencies_hz=freqs, x_fraction=pol,
                       residuals=res)


def bloch_band_gap(result: BlochResult, f_lo_hint: float, f_hi_hint: float,
                   min_x_fraction: float = 0.5) -> tuple[float, float]:
    """Gap edges of the longitudinal branches around a hinted gap.

    Collects every x-polarized branch frequency (x fraction at least
    ``min_x_fraction``, ties within roundoff included) and brackets the
    largest empty interval containing the hint's geometric center.
    """
    freqs = result.frequencies_hz.ravel()
    xs = result.x_fraction.ravel()
    # a branch with x and y energies equal by symmetry reads 0.5 only to
    # roundoff; in exact arithmetic it meets the threshold
    f = np.sort(freqs[(xs >= min_x_fraction - 1e-9) & (freqs >= 0.0)])
    center = math.sqrt(f_lo_hint * f_hi_hint)
    below = f[f <= center]
    above = f[f > center]
    if below.size == 0 or above.size == 0:
        raise ValueError("no longitudinal branches bracket the hinted gap")
    return float(below[-1]), float(above[0])
