"""Plane-wave dispersion of the homogenized medium and a Bloch oracle.

The effective path turns the frequency-dependent density into a complex
wavenumber for an x-travelling longitudinal wave; the oracle solves the
true heterogeneous cell under Bloch phase shifts in x (plain periodicity
in y) and returns the lowest branches with their polarization content, so
longitudinal branches can be compared against the effective prediction.
The Bloch map is the unpinned periodic map of ``fem`` with the nodes on
x = L times e^{i kappa L}, and the Bloch pencil is its ``fem.reduce``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem, modal
from .grid import StructuredGrid
from .homogenize import EffectiveMaterial, effective_density
from .materials import GaussPointFields

POLE_NUDGE_HZ = 0.1
# Bloch shift-invert point, well below the spectrum: a shift next to the two
# rigid branches at kappa = 0 leaves the first elastic branch there with a
# relative residual of about 1e-5 instead of 1e-8
_BLOCH_SHIFT = -(2.0 * math.pi * 300.0) ** 2


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


def _bloch_branches(K, M, ops, kappa: float, n_branches: int):
    """Frequencies (Hz) and x-polarization of the lowest branches at one
    wavenumber. A function of its own so that the pencil, its factorization
    and the modes are freed before the next wavenumber's."""
    phase = np.exp(1j * kappa * ops.grid.width)
    Kb = fem.reduce(K, ops, phase)
    Mb = fem.reduce(M, ops, phase)
    Kb = 0.5 * (Kb + Kb.conj().T)
    Mb = 0.5 * (Mb + Mb.conj().T)
    sol = modal.solve_smallest(Kb, Mb, n_branches, shift=_BLOCH_SHIFT, system="bloch")
    lam = np.clip(sol.eigenvalues, 0.0, None)
    # each row of the phased map holds one entry of modulus 1, so the
    # expanded |u|^2 is P |v|^2 dof by dof
    w = ops.P @ np.abs(sol.modes) ** 2
    return np.sqrt(lam) / (2.0 * math.pi), w[0::2].sum(axis=0) / w.sum(axis=0)


def bloch_oracle(grid: StructuredGrid, fields: GaussPointFields, kappas,
                 n_branches: int = 6) -> BlochResult:
    """Lowest real branches w(kappa) of the undamped heterogeneous cell.

    Viscosity in ``fields`` is ignored: the pencil is Hermitian and the
    squared frequencies are real. ``x_fraction`` reports per-branch
    longitudinal polarization for branch classification.
    """
    M, K = fem.assemble(grid, fields)
    ops = fem.build_constraints(grid, fem.BoundaryCondition.PERIODIC)
    kappas = np.asarray(kappas, dtype=float)
    freqs = np.zeros((len(kappas), n_branches))
    pol = np.zeros((len(kappas), n_branches))
    for idx, kap in enumerate(kappas):
        freqs[idx], pol[idx] = _bloch_branches(K, M, ops, kap, n_branches)
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
