"""Unit-cell composition: fixed frame, design domain and material fields.

The cell is a square grid with a fixed matrix frame of constant relative
thickness on all four sides (non-design region, always dense) and an inner
design domain where the level-set function decides between the dense
inclusion phase and the soft coating phase. The characteristic function chi
is evaluated at Gauss points by bilinear interpolation of the nodal
level-set values followed by a Heaviside map, so state and sensitivities
live on one grid. ``material_fields`` turns chi into the Gauss-point
moduli (rho, K, G, mu_visc) that ``fem`` assembles.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import fem
from .grid import StructuredGrid
from .materials import (
    GaussPointFields,
    InterpolationScheme,
    MaterialPhase,
    interpolate,
)

DEFAULT_FRAME_FRACTION = 0.05  # frame thickness / cell edge; 19% of the volume


@dataclass(frozen=True)
class CellLayout:
    """Grid plus the frame/design partition of elements and nodes."""

    grid: StructuredGrid
    frame_fraction: float
    design_elements: np.ndarray = field(repr=False)  # (ne,) bool
    design_nodes: np.ndarray = field(repr=False)     # (nnode,) bool

    @property
    def frame_volume_fraction(self) -> float:
        return 1.0 - self.design_elements.sum() / self.grid.nelem


def build_layout(grid: StructuredGrid, frame_fraction: float = DEFAULT_FRAME_FRACTION) -> CellLayout:
    """Partition the cell into frame ring and interior design domain.

    The frame is ``round(frame_fraction * nx)`` element layers thick on every
    side; design nodes are the nodes of at least one design element (their
    level-set values influence the interior material only).
    """
    if not 0.0 < frame_fraction < 0.5:
        raise ValueError(f"frame fraction must be in (0, 0.5), got {frame_fraction}")
    tfx = max(1, int(round(frame_fraction * grid.nx)))
    tfy = max(1, int(round(frame_fraction * grid.ny)))
    if grid.nx - 2 * tfx < 2 or grid.ny - 2 * tfy < 2:
        raise ValueError(
            f"grid {grid.nx}x{grid.ny} too coarse for frame fraction {frame_fraction}")
    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny))
    design = ((ii >= tfx) & (ii < grid.nx - tfx) &
              (jj >= tfy) & (jj < grid.ny - tfy)).ravel()
    nodes = np.zeros(grid.nnode, dtype=bool)
    nodes[np.unique(grid.elements[design])] = True
    return CellLayout(grid=grid, frame_fraction=frame_fraction,
                      design_elements=design, design_nodes=nodes)


def chi_at_gauss(layout: CellLayout, phi: np.ndarray) -> np.ndarray:
    """Heaviside of the interpolated level set at Gauss points, (ne, 4).

    Frame elements report chi = 1 regardless of phi (fixed dense matrix).
    """
    shape_at_gp = np.array([fem.shape_functions(xi, eta) for xi, eta in fem.GAUSS_POINTS])
    phi_elem = phi[layout.grid.elements]                 # (ne, 4 nodes)
    phi_gp = phi_elem @ shape_at_gp.T                    # (ne, 4 gp)
    chi = (phi_gp >= 0.0).astype(np.float64)
    chi[~layout.design_elements, :] = 1.0
    return chi


@dataclass(frozen=True)
class PhaseSet:
    """The three phases of the cell with their interpolation schemes.

    ``frame`` fills the fixed ring; dense/soft are the chi = 1 / chi = 0
    endpoints inside the design domain. The schemes drive both the blended
    properties for intermediate chi (only the endpoints occur with a sharp
    Heaviside) and the derivative d(property)/d(chi) used by the optimizer.
    """

    frame: MaterialPhase
    dense: MaterialPhase
    soft: MaterialPhase
    exponent: float = 2.0

    def scheme(self, prop: str) -> InterpolationScheme:
        return InterpolationScheme(h_plus=getattr(self.dense, prop),
                                   h_minus=getattr(self.soft, prop),
                                   n=self.exponent)


def scaled_phases(frame: MaterialPhase, dense: MaterialPhase, soft: MaterialPhase,
                  soft_density_scale: float = 1e-10,
                  exponent: float = 2.0) -> PhaseSet:
    """Optimization-stage phases: massless coating.

    The frame keeps its true properties. The optimizer's constraint map
    holds it rigid, and there its stiffness cancels only to roundoff, which
    any stiffness scaling would amplify (``topopt.constraint_map``).
    """
    return PhaseSet(frame=frame, dense=dense,
                    soft=soft.scaled(density=soft_density_scale, suffix="*"),
                    exponent=exponent)


def material_fields(layout: CellLayout, chi: np.ndarray, phases: PhaseSet) -> GaussPointFields:
    """Gauss-point moduli for a given characteristic function: each is
    interpolated between the dense and soft phases, and the frame's value
    holds on the frame elements."""
    frame = ~layout.design_elements
    values = []
    for f in fields(GaussPointFields):
        value, _ = interpolate(chi, phases.scheme(f.name))
        value[frame] = getattr(phases.frame, f.name)
        values.append(value)
    return GaussPointFields(*values)


def volume_fractions(layout: CellLayout, chi: np.ndarray) -> tuple[float, float, float]:
    """(frame, dense, soft) volume fractions of the whole cell."""
    frame = layout.frame_volume_fraction
    design_chi = chi[layout.design_elements]
    dense = (1.0 - frame) * float(design_chi.mean()) if design_chi.size else 0.0
    soft = 1.0 - frame - dense
    return frame, dense, soft
