"""Material phases, their isotropic moduli and Voigt tensors, and the
characteristic-function interpolation used by the optimizer.

Every phase is isotropic, so Gauss-point fields carry the four moduli
(rho, K, G, mu_visc) of ``MaterialPhase``; the Voigt tensors K VOL + G DEV
and mu DEV are formed only inside the element templates of ``fem``.

All quantities are SI: densities in kg/m^3, moduli in Pa, viscosities in
Pa*s. Plane-strain Voigt ordering is (xx, yy, xy) with engineering shear.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidMaterialError

# Air surrounding the panel in the transmission-loss analysis.
AIR_DENSITY = 1.2        # kg/m^3
AIR_SOUND_SPEED = 344.0  # m/s

# Voigt building blocks: C(K, G) = K * VOL + G * DEV, eta(mu) = mu * DEV.
# DEV is the plane-strain restriction of the 3D deviatoric projector scaled
# so that a pure shear strain rate gamma' yields sigma_xy = mu * gamma'.
_VOL = np.array([[1.0, 1.0, 0.0],
                 [1.0, 1.0, 0.0],
                 [0.0, 0.0, 0.0]])
_DEV = np.array([[4.0 / 3.0, -2.0 / 3.0, 0.0],
                 [-2.0 / 3.0, 4.0 / 3.0, 0.0],
                 [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class MaterialPhase:
    """Isotropic phase with optional deviatoric Kelvin-Voigt viscosity."""

    name: str
    rho: float          # kg/m^3
    K: float            # Pa, bulk modulus
    G: float            # Pa, shear modulus
    mu_visc: float = 0.0  # Pa*s, deviatoric viscosity

    def __post_init__(self):
        if self.rho < 0.0:
            raise InvalidMaterialError(f"{self.name}: density must be >= 0, got {self.rho}")
        if self.K <= 0.0 or self.G <= 0.0:
            raise InvalidMaterialError(
                f"{self.name}: bulk and shear moduli must be > 0, got K={self.K}, G={self.G}")
        if self.mu_visc < 0.0:
            raise InvalidMaterialError(f"{self.name}: viscosity must be >= 0, got {self.mu_visc}")

    @property
    def p_wave_modulus(self) -> float:
        """K + 4G/3, the longitudinal plane-strain stiffness."""
        return self.K + 4.0 * self.G / 3.0

    def scaled(self, density: float, suffix: str = "") -> "MaterialPhase":
        """New phase with the density multiplied by ``density``."""
        return replace(self, name=self.name + suffix, rho=self.rho * density)

    def with_viscosity(self, mu_visc: float) -> "MaterialPhase":
        return replace(self, mu_visc=mu_visc)


def builtin_materials() -> dict[str, MaterialPhase]:
    """Reference registry: epoxy frame, steel inclusion, silicone coating."""
    return {
        "epoxy": MaterialPhase("epoxy", rho=1180.0, K=5.49e9, G=1.59e9),
        "steel": MaterialPhase("steel", rho=7780.0, K=1.72e11, G=7.96e10),
        "silicone_rubber": MaterialPhase("silicone_rubber", rho=1300.0, K=0.63e6, G=0.04e6),
    }


def isotropic_tensors(phase: MaterialPhase) -> tuple[np.ndarray, np.ndarray]:
    """Plane-strain Voigt elastic tensor C and viscous tensor eta of a phase.

    C = K * I(x)I + 2G * Idev restricted to (xx, yy, xy); the viscous tensor
    acts on the deviatoric strain rate only, so a hydrostatic rate produces
    zero viscous pressure.
    """
    C = phase.K * _VOL + phase.G * _DEV
    eta = phase.mu_visc * _DEV
    return C, eta


def deviatoric_voigt() -> np.ndarray:
    return _DEV.copy()


def volumetric_voigt() -> np.ndarray:
    return _VOL.copy()


@dataclass(frozen=True)
class InterpolationScheme:
    """Two-phase property interpolation h(chi) = [chi h+^(1/n) + (1-chi) h-^(1/n)]^n."""

    h_plus: float
    h_minus: float
    n: float = 2.0

    def __post_init__(self):
        if self.n <= 0.0:
            raise ValueError(f"interpolation exponent must be > 0, got {self.n}")
        if self.h_plus < 0.0 or self.h_minus < 0.0:
            raise ValueError("interpolated properties must be >= 0")


def interpolate(chi, scheme: InterpolationScheme):
    """Interpolated value and its chi-derivative.

    Accepts scalars or arrays with entries in [0, 1]. Endpoint values are
    returned exactly (no roundoff from the fractional powers).
    """
    chi_arr = np.asarray(chi, dtype=float)
    if np.any(chi_arr < 0.0) or np.any(chi_arr > 1.0):
        raise ValueError("chi must lie in [0, 1]")
    n = scheme.n
    ap = scheme.h_plus ** (1.0 / n)
    am = scheme.h_minus ** (1.0 / n)
    root = chi_arr * ap + (1.0 - chi_arr) * am
    value = root ** n
    deriv = n * root ** (n - 1.0) * (ap - am)
    # exact endpoints
    value = np.where(chi_arr == 1.0, scheme.h_plus, value)
    value = np.where(chi_arr == 0.0, scheme.h_minus, value)
    if np.isscalar(chi) or chi_arr.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


@dataclass(frozen=True)
class GaussPointFields:
    """Per-Gauss-point moduli on a grid, each (ne, ng) and named like the
    ``MaterialPhase`` property it holds. Inputs to global assembly."""

    rho: np.ndarray
    K: np.ndarray
    G: np.ndarray
    mu_visc: np.ndarray

    def validate(self):
        """Reject a negative (or NaN) entry. This is all positive
        semidefiniteness asks: C = K VOL + G DEV is PSD iff G >= 0 and
        K + G/3 >= 0, and eta = mu DEV iff mu >= 0."""
        for f in fields(self):
            if not np.all(getattr(self, f.name) >= 0.0):
                raise InvalidMaterialError(f"negative {f.name} in Gauss-point field")


def uniform_fields(grid, phase: MaterialPhase, ngauss: int = 4) -> GaussPointFields:
    """Homogeneous fields for a single-phase cell."""
    return GaussPointFields(*(np.full((grid.nelem, ngauss), getattr(phase, f.name))
                              for f in fields(GaussPointFields)))
