"""Plane-wave dispersion of the homogenized medium and a Bloch oracle.

The effective path turns the frequency-dependent density into a complex
wavenumber for an x-travelling longitudinal wave; the oracle solves the
true heterogeneous cell under Bloch phase shifts in x (plain periodicity
in y) and returns the lowest branches with their polarization content, so
longitudinal branches can be compared against the effective prediction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import fem, modal
from .grid import StructuredGrid
from .homogenize import EffectiveMaterial, effective_density
from .materials import GaussPointFields

POLE_NUDGE_HZ = 0.1


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


@functools.lru_cache(maxsize=8)
def _bloch_pattern(nx: int, ny: int):
    """CSR ``indptr``/``indices`` of the Bloch map of an nx x ny grid plus the
    mask of its phased entries (the nodes with i = nx). Every row holds one
    entry; the arrays are read-only because every kappa shares them."""
    j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    master = (j % ny) * nx + i % nx
    indices = (2 * master[:, None] + np.arange(2)).ravel().astype(np.int32)
    indptr = np.arange(len(indices) + 1, dtype=np.int32)
    phased = np.repeat(i == nx, 2)
    for arr in (indptr, indices, phased):
        arr.flags.writeable = False
    return indptr, indices, phased


def bloch_transform(grid: StructuredGrid, kappa: float) -> sparse.csr_matrix:
    """Master-slave map enforcing u(x + L) = e^{i kappa L} u(x) in x and
    plain periodicity in y; masters are the nodes with i < nx, j < ny."""
    indptr, indices, phased = _bloch_pattern(grid.nx, grid.ny)
    data = np.ones(len(indices), dtype=complex)
    data[phased] = np.exp(1j * kappa * grid.width)
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(grid.ndof, 2 * grid.nx * grid.ny))


def _bloch_branches(K, M, T, n_branches: int, shift: float):
    """Frequencies (Hz) and x-polarization of the lowest branches at one
    wavenumber, T its Bloch map. A function of its own so that the pencil,
    its factorization and the modes are freed before the next wavenumber's."""
    Th = T.conj().T
    Kb = (Th @ (K @ T)).tocsr()
    Mb = (Th @ (M @ T)).tocsr()
    Kb = 0.5 * (Kb + Kb.conj().T)
    Mb = 0.5 * (Mb + Mb.conj().T)
    sol = modal.solve_smallest(Kb, Mb, n_branches, shift=shift, system="bloch")
    lam = np.clip(sol.eigenvalues, 0.0, None)
    full = T @ sol.modes
    ux2 = np.abs(full[0::2, :]) ** 2
    tot = np.abs(full) ** 2
    return (np.sqrt(lam) / (2.0 * math.pi),
            ux2.sum(axis=0) / np.maximum(tot.sum(axis=0), 1e-300))


def bloch_oracle(grid: StructuredGrid, fields: GaussPointFields, kappas,
                 n_branches: int = 6, shift: float = -(2.0 * math.pi * 5.0) ** 2) -> BlochResult:
    """Lowest real branches w(kappa) of the undamped heterogeneous cell.

    Viscosity in ``fields`` is ignored: the pencil is Hermitian and the
    squared frequencies are real. ``x_fraction`` reports per-branch
    longitudinal polarization for branch classification.
    """
    M, K = fem.assemble(grid, fields)
    kappas = np.asarray(kappas, dtype=float)
    freqs = np.zeros((len(kappas), n_branches))
    pol = np.zeros((len(kappas), n_branches))
    for idx, kap in enumerate(kappas):
        freqs[idx], pol[idx] = _bloch_branches(K, M, bloch_transform(grid, kap),
                                               n_branches, shift)
    return BlochResult(kappas=kappas, frequencies_hz=freqs, x_fraction=pol)


def bloch_band_gap(result: BlochResult, f_lo_hint: float, f_hi_hint: float,
                   min_x_fraction: float = 0.5) -> tuple[float, float]:
    """Gap edges of the longitudinal branches around a hinted gap.

    Collects every x-polarized branch frequency and brackets the largest
    empty interval containing the hint's geometric center.
    """
    freqs = result.frequencies_hz.ravel()
    xs = result.x_fraction.ravel()
    f = np.sort(freqs[(xs >= min_x_fraction) & (freqs >= 0.0)])
    center = math.sqrt(f_lo_hint * f_hi_hint)
    below = f[f <= center]
    above = f[f > center]
    if below.size == 0 or above.size == 0:
        raise ValueError("no longitudinal branches bracket the hinted gap")
    return float(below[-1]), float(above[0])
