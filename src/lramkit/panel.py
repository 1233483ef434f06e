"""Normal-incidence transmission loss of an air-backed homogenized panel.

A slice of the panel is meshed with a small quadrilateral grid, periodic
top/bottom (infinite panel), loaded on its left face by an incident plus
reflected plane air wave of unit incident amplitude and radiating a
transmitted wave on the right. The unknowns are the interior and boundary
displacements plus the reflection and transmission coefficients, solved
together as one dense complex system.

Convention exp(-i w t): the dynamic matrix is D(w) = K - i w C - w^2 M(w),
with M built from the complex frequency-dependent effective density so the
micro-resonances act on the macro inertia. Face tractions follow from the
air pressure fields: total left force -i K_a (1 + R), total right force
+i K_a T, with K_a = rho_a v_a w S and S the face area per unit depth.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from . import fem
from .errors import PoleError, ResonanceSingularityError
from .grid import build_rect_grid
from .homogenize import EffectiveMaterial, effective_density
from .materials import AIR_DENSITY, AIR_SOUND_SPEED, GaussPointFields
from .dispersion import nudge_frequencies


class PanelModel:
    """Macro model of a panel slice built from one EffectiveMaterial."""

    def __init__(self, em: EffectiveMaterial, n_cells: int = 1,
                 nx: int = 4, ny: int = 4,
                 rho_air: float = AIR_DENSITY, v_air: float = AIR_SOUND_SPEED):
        if n_cells < 1:
            raise ValueError("panel thickness must be at least one cell")
        self.em = em
        self.n_cells = n_cells
        self.rho_air = rho_air
        self.v_air = v_air
        self.thickness = n_cells * em.cell_size
        self.height = em.cell_size
        self.grid = build_rect_grid(nx, ny, self.thickness, self.height)
        self.surface = self.height * 1.0    # unit out-of-plane depth

        ne = self.grid.nelem
        fields = GaussPointFields(
            rho=np.full((ne, 4), em.rho_bar),
            C=np.broadcast_to(em.C_eff, (ne, 4, 3, 3)).copy(),
            eta=np.broadcast_to(em.eta_eff, (ne, 4, 3, 3)).copy(),
        )
        _, self._K = fem.assemble(self.grid, fields)
        C = fem.damping_matrix(self.grid, fields)
        # dense copies: the macro matrix is rebuilt densely at every frequency
        self._dense = tuple(A.toarray() for A in
                            (self._K, C) + fem.mass_templates(self.grid))
        self._build_partitions()

    def _build_partitions(self):
        g = self.grid
        ndof = g.ndof
        left = set(int(n) for n in g.left)
        right = set(int(n) for n in g.right)
        bottom = list(int(n) for n in g.bottom)
        top = list(int(n) for n in g.top)

        self._ldofs = np.array([2 * n for n in sorted(left)], dtype=int)
        self._rdofs = np.array([2 * n for n in sorted(right)], dtype=int)
        horizontal_faces = set(self._ldofs) | set(self._rdofs)

        bdofs, tdofs = [], []
        for nb, nt in zip(bottom, top):
            for d in range(2):
                db, dt = 2 * nb + d, 2 * nt + d
                if db in horizontal_faces or dt in horizontal_faces:
                    continue  # corner x-dofs already belong to the faces
                bdofs.append(db)
                tdofs.append(dt)
        self._bdofs = np.array(bdofs, dtype=int)
        self._tdofs = np.array(tdofs, dtype=int)

        claimed = horizontal_faces | set(bdofs) | set(tdofs)
        self._idofs = np.array([d for d in range(ndof) if d not in claimed], dtype=int)

        nf = len(self._idofs) + len(self._bdofs)
        ncols = nf + 2
        Pu = np.zeros((ndof, ncols))
        for col, d in enumerate(self._idofs):
            Pu[d, col] = 1.0
        off = len(self._idofs)
        for k, (db, dt) in enumerate(zip(self._bdofs, self._tdofs)):
            Pu[db, off + k] = 1.0
            Pu[dt, off + k] = 1.0   # periodic: top follows bottom
        Pu[self._ldofs, nf] = -1.0  # u_left = 1 - R
        Pu[self._rdofs, nf + 1] = 1.0  # u_right = T
        self._Pu = Pu

        wl = 1.0 / len(self._ldofs)
        wr = 1.0 / len(self._rdofs)
        Pf = np.zeros((ndof, ncols))
        Pf[self._ldofs, nf] = wl          # reflected-wave pressure on the left
        Pf[self._rdofs, nf + 1] = -wr     # transmitted wave pushes back (-x)
        self._Pf = Pf
        U0d = np.zeros(ndof)
        U0d[self._ldofs] = 1.0
        self._U0_disp = U0d
        U0f = np.zeros(ndof)
        U0f[self._ldofs] = wl
        self._U0_force = U0f


def assemble_macro(panel: PanelModel, omega: float) -> np.ndarray:
    """Dense complex dynamic matrix D(w) = K - i w C - w^2 M(w)."""
    rho = effective_density(panel.em, omega)
    K, C, Gxx, Gyy, Gxy = panel._dense
    M = rho[0, 0] * Gxx + rho[1, 1] * Gyy + rho[0, 1] * Gxy
    return (K - 1j * omega * C - omega ** 2 * M).astype(complex)


def solve_RT(panel: PanelModel, omega: float) -> tuple[complex, complex]:
    """Reflection and transmission coefficients at angular frequency omega.

    One LU factorization solves for the interior/boundary unknowns and
    (R, T) together; mixed-precision iterative refinement on it then polishes
    the solution. Stiff panels put the elastic energy many decades
    above the radiated acoustic power, and without the extended-precision
    residual that cancellation costs the lossless identity |R|^2 + |T|^2 = 1
    a couple of orders beyond double-precision roundoff.
    """
    D = assemble_macro(panel, omega)
    D = 0.5 * (D + D.T)   # losslessness rides on exact symmetry
    Ka = panel.rho_air * panel.v_air * omega * panel.surface
    A = panel._Pu.T @ D @ panel._Pu + 1j * Ka * (panel._Pu.T @ panel._Pf)
    B = -panel._Pu.T @ (D @ panel._U0_disp + 1j * Ka * panel._U0_force)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)   # a zero pivot is raised below
        lu = lu_factor(A)
    if not np.all(np.diagonal(lu[0])):
        raise ResonanceSingularityError(
            f"macro system singular at {omega / (2 * math.pi):.3f} Hz",
            frequency_hz=omega / (2 * math.pi))
    U1 = lu_solve(lu, B)
    A_l = A.astype(np.clongdouble)
    B_l = B.astype(np.clongdouble)
    for _ in range(3):
        resid = B_l - A_l @ U1.astype(np.clongdouble)
        U1 = U1 + lu_solve(lu, resid.astype(np.complex128))
    return complex(U1[-2]), complex(U1[-1])


@dataclass(frozen=True)
class TLResult:
    """Transmission-loss sweep with raw coefficients per frequency."""

    frequencies_hz: np.ndarray
    R: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    tl_db: np.ndarray = field(repr=False)
    failures: tuple[tuple[float, str], ...] = ()

    @property
    def energy(self) -> np.ndarray:
        return np.abs(self.R) ** 2 + np.abs(self.T) ** 2

    def bands(self, threshold_db: float = 40.0) -> list[tuple[float, float]]:
        """Contiguous frequency runs with TL above the threshold."""
        mask = np.isfinite(self.tl_db) & (self.tl_db > threshold_db)
        out = []
        start = None
        for f, ok in zip(self.frequencies_hz, mask):
            if ok and start is None:
                start = f
            elif not ok and start is not None:
                out.append((start, prev))
                start = None
            prev = f
        if start is not None:
            out.append((start, float(self.frequencies_hz[-1])))
        return out

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("f_Hz,Re_R,Im_R,Re_T,Im_T,TL_dB\n")
            for f, r, t, tl in zip(self.frequencies_hz, self.R, self.T, self.tl_db):
                fh.write(f"{f:.12g},{r.real:.12g},{r.imag:.12g},"
                         f"{t.real:.12g},{t.imag:.12g},{tl:.12g}\n")

    def write_band_report(self, path, threshold_db: float = 40.0) -> None:
        with open(path, "w") as fh:
            for lo, hi in self.bands(threshold_db):
                fh.write(f"{lo:.12g} {hi:.12g} {threshold_db:.12g}\n")


def tl_sweep(panel: PanelModel, freqs_hz, nudge: bool = True) -> TLResult:
    """TL(w) over a frequency list; per-sample failures are recorded and the
    sweep continues."""
    freqs = np.asarray(freqs_hz, dtype=float)
    if np.any(freqs <= 0.0):
        raise ValueError("sweep frequencies must be strictly positive")
    if nudge and not np.any(panel.em.omega_d):
        freqs = nudge_frequencies(freqs, panel.em.poles_hz())
    R = np.zeros(len(freqs), dtype=complex)
    T = np.zeros(len(freqs), dtype=complex)
    tl = np.full(len(freqs), np.nan)
    failures = []
    for j, f in enumerate(freqs):
        try:
            r, t = solve_RT(panel, 2.0 * math.pi * f)
        except (PoleError, ResonanceSingularityError) as err:
            failures.append((float(f), str(err)))
            R[j] = T[j] = np.nan
            continue
        R[j], T[j] = r, t
        tl[j] = -20.0 * math.log10(max(abs(t), 1e-300))
    return TLResult(frequencies_hz=freqs, R=R, T=T, tl_db=tl,
                    failures=tuple(failures))
