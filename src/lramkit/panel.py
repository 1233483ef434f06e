"""Normal-incidence transmission loss of an air-backed homogenized panel.

The panel is homogeneous, infinite in y and loaded uniformly, so its
discrete response cannot vary in y: the slice is a strip whose every node
follows the node of its column on y = 0. The strip is meshed with a small
quadrilateral grid, loaded on its left face by an incident plus reflected
plane air wave of unit incident amplitude and radiates a transmitted wave
on the right. The unknowns are the reflection coefficient R, u_y of the
left face and the column-to-column displacement steps, so
u_x = 1 - R + (x-steps up to the column) and T = 1 - R + (all x-steps).
Rigid translations do no elastic or viscous work, so the translation rows
and columns of the projected stiffness and damping are zero by
construction; no stiffness entry has to cancel against a unit
displacement, and one dense complex solve meets the lossless identity
|R|^2 + |T|^2 = 1 at double-precision roundoff.

Convention exp(-i w t): the dynamic matrix is D(w) = K - i w C - w^2 M(w),
with M built from the complex frequency-dependent effective density so the
micro-resonances act on the macro inertia. Face tractions follow from the
air pressure fields: total left force -i K_a (1 + R), total right force
+i K_a T, with K_a = rho_a v_a w S and S the face area per unit depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import PoleError, ResonanceSingularityError
from .grid import build_rect_grid
from .homogenize import EffectiveMaterial, effective_density
from .materials import AIR_DENSITY, AIR_SOUND_SPEED, GaussPointFields
from .dispersion import nudge_frequencies

_STRIP_NY = 2   # elements across the strip height; any count gives the same answer


class PanelModel:
    """Macro model of a panel slice built from one EffectiveMaterial."""

    def __init__(self, em: EffectiveMaterial, n_cells: int = 1, nx: int = 4,
                 rho_air: float = AIR_DENSITY, v_air: float = AIR_SOUND_SPEED):
        if n_cells < 1:
            raise ValueError("panel thickness must be at least one cell")
        self.em = em
        self.n_cells = n_cells
        self.rho_air = rho_air
        self.v_air = v_air
        self.thickness = n_cells * em.cell_size
        self.height = em.cell_size
        self.grid = build_rect_grid(nx, _STRIP_NY, self.thickness, self.height)
        self.surface = self.height * 1.0    # unit out-of-plane depth

        g = self.grid
        fields = GaussPointFields(
            rho=np.full((g.nelem, 4), em.rho_bar),
            C=np.broadcast_to(em.C_eff, (g.nelem, 4, 3, 3)).copy(),
            eta=np.broadcast_to(em.eta_eff, (g.nelem, 4, 3, 3)).copy(),
        )
        # step map from the unknowns (R, u_y of the left face, nx x-steps,
        # nx y-steps) to the displacement less u_x = 1: each node takes the
        # translations and the steps up to its column
        steps = (np.arange(g.nnode)[:, None] % (nx + 1)
                 >= np.arange(1, nx + 1)).astype(float)
        S = np.zeros((g.ndof, 2 * nx + 2))
        S[0::2, 0] = -1.0
        S[1::2, 1] = 1.0
        S[0::2, 2:nx + 2] = steps
        S[1::2, nx + 2:] = steps
        _, K = fem.assemble(g, fields)
        mats = [S.T @ (A @ S) for A in
                (K, fem.damping_matrix(g, fields)) + fem.mass_templates(g)]
        for A in mats[:2]:
            A[:2, :] = A[:, :2] = 0.0   # translations do no elastic or viscous work
        self._dense = tuple(mats)
        self._t = np.zeros(2 * nx + 2)  # T = 1 + t . z
        self._t[0] = -1.0
        self._t[2:nx + 2] = 1.0


def assemble_macro(panel: PanelModel, omega: float) -> np.ndarray:
    """Dense complex dynamic matrix D(w) = K - i w C - w^2 M(w) on the
    strip's step unknowns."""
    rho = effective_density(panel.em, omega)
    K, C, Gxx, Gyy, Gxy = panel._dense
    M = rho[0, 0] * Gxx + rho[1, 1] * Gyy + rho[0, 1] * Gxy
    return (K - 1j * omega * C - omega ** 2 * M).astype(complex)


def solve_RT(panel: PanelModel, omega: float) -> tuple[complex, complex]:
    """Reflection and transmission coefficients at angular frequency omega.

    The step unknowns z measure the displacement from u_x = 1 everywhere.
    That offset is the rigid translation -e_0 of the step map, so it loads
    the system with D[:, 0], inertia only. With R = z_0 and T = 1 + t . z
    the face forces -i K_a (1 + R) and +i K_a T add
    -i K_a (e_0 e_0^T + t t^T) to D and i K_a (e_0 + t) to the load.
    """
    D = assemble_macro(panel, omega)
    Ka = panel.rho_air * panel.v_air * omega * panel.surface
    t = panel._t
    A = D - 1j * Ka * np.outer(t, t)
    A[0, 0] -= 1j * Ka
    b = D[:, 0] + 1j * Ka * t
    b[0] += 1j * Ka
    try:
        z = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        raise ResonanceSingularityError(
            f"macro system singular at {omega / (2 * math.pi):.3f} Hz",
            frequency_hz=omega / (2 * math.pi)) from err
    return complex(z[0]), complex(1.0 + t @ z)


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
