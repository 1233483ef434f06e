"""Normal-incidence transmission loss of an air-backed homogenized panel.

The panel is homogeneous, infinite in y and loaded uniformly, so its
response cannot vary in y: the slice of one cell height H is a chain of
nx two-node bar elements through the thickness, each carrying u_x and u_y.
It is loaded on its left face by an incident plus reflected plane air wave
of unit incident amplitude and radiates a transmitted wave on the right.
The unknowns of each direction are a rigid translation and the nx
node-to-node displacement steps, mapped to the node displacements by the
lower-triangular map L. The x-translation is the offset a = -R from the
unit incident displacement, so u_x = 1 + a + (steps up to the node) and
T = 1 + a + (all x-steps). The strain of a bar is (dx/h, 0, dy/h) for its
steps dx, dy, so the stiffness and damping act on the steps alone through
the xx/xy slice of C_eff and eta_eff: the translation rows and columns are
zero by construction, no stiffness entry has to cancel against a unit
displacement, and one dense complex solve meets the lossless identity
|R|^2 + |T|^2 = 1 at double-precision roundoff. The consistent bar mass
equals the y-invariant restriction of the bilinear plane mass exactly.

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

from .errors import PoleError, ResonanceSingularityError
from .homogenize import EffectiveMaterial, effective_density
from .materials import AIR_DENSITY, AIR_SOUND_SPEED
from .dispersion import nudge_frequencies

# unit-density directional mass tensors: rho = rxx XX + ryy YY + rxy XY
_DIRECTIONS = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]]),
               np.array([[0.0, 1.0], [1.0, 0.0]]))


class PanelModel:
    """Macro model of a panel slice built from one EffectiveMaterial."""

    def __init__(self, em: EffectiveMaterial, n_cells: int = 1, nx: int = 4):
        if n_cells < 1:
            raise ValueError("panel thickness must be at least one cell")
        if nx < 2:
            raise ValueError(f"need at least 2 elements through the panel, got {nx}")
        self.em = em
        self.n_cells = n_cells
        self.nx = nx
        self.thickness = n_cells * em.cell_size
        self.height = em.cell_size
        self.surface = self.height * 1.0    # unit out-of-plane depth

        h = self.thickness / nx
        L = np.tril(np.ones((nx + 1, nx + 1)))  # (translation, steps) -> nodes
        ends = np.r_[2.0, np.full(nx - 1, 4.0), 2.0]   # consistent bar mass, assembled
        M1 = self.height * h / 6.0 * (np.diag(ends) + np.eye(nx + 1, k=1)
                                      + np.eye(nx + 1, k=-1))
        G = L.T @ M1 @ L
        K1 = self.height / h * np.diag([0.0] + [1.0] * nx)
        xs = [0, 2]   # Voigt xx and xy: the only strains a y-invariant field has
        self._dense = (np.kron(em.C_eff[np.ix_(xs, xs)], K1),
                       np.kron(em.eta_eff[np.ix_(xs, xs)], K1),
                       *(np.kron(e, G) for e in _DIRECTIONS))
        self._t = np.zeros(2 * nx + 2)  # T = 1 + t . z
        self._t[:nx + 1] = 1.0


def assemble_macro(panel: PanelModel, omega: float) -> np.ndarray:
    """Dense complex dynamic matrix D(w) = K - i w C - w^2 M(w) on the
    chain's translation and step unknowns."""
    rho = effective_density(panel.em, omega)
    K, C, Gxx, Gyy, Gxy = panel._dense
    M = rho[0, 0] * Gxx + rho[1, 1] * Gyy + rho[0, 1] * Gxy
    return (K - 1j * omega * C - omega ** 2 * M).astype(complex)


def solve_RT(panel: PanelModel, omega: float) -> tuple[complex, complex]:
    """Reflection and transmission coefficients at angular frequency omega.

    The unknowns z measure the displacement from u_x = 1 everywhere. That
    offset is the rigid translation e_0, so it loads the system with
    -D[:, 0], inertia only. With R = -z_0 and T = 1 + t . z the face forces
    -i K_a (1 + R) and +i K_a T add -i K_a (e_0 e_0^T + t t^T) to D and
    i K_a (t - e_0) to the load.
    """
    D = assemble_macro(panel, omega)
    Ka = AIR_DENSITY * AIR_SOUND_SPEED * omega * panel.surface
    t = panel._t
    A = D - 1j * Ka * np.outer(t, t)
    A[0, 0] -= 1j * Ka
    b = -D[:, 0] + 1j * Ka * t
    b[0] -= 1j * Ka
    try:
        z = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        raise ResonanceSingularityError(
            f"macro system singular at {omega / (2 * math.pi):.3f} Hz",
            frequency_hz=omega / (2 * math.pi)) from err
    return complex(-z[0]), complex(1.0 + t @ z)


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
