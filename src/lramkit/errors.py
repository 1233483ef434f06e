"""Exception types shared across the package."""


class LramError(Exception):
    """Base class for package-specific failures."""


class InvalidMaterialError(LramError, ValueError):
    """Material input violates a physical requirement (a negative density,
    modulus or viscosity)."""


class MeshIncompatibilityError(LramError, ValueError):
    """Periodic pairing or constraint construction failed for the grid."""


class ConstraintError(LramError, RuntimeError):
    """Reduced (constrained) system is singular where it must not be."""


class SolverFailureError(LramError, RuntimeError):
    """Eigensolver did not converge within its iteration budget."""


class NoRelevantModeError(LramError, RuntimeError):
    """No mode passes the relevance filter; the design may be infeasible or
    the requested mode count too small."""


class PoleError(LramError, ArithmeticError):
    """Evaluation requested at (or too close to) an undamped resonance pole."""

    def __init__(self, message, frequency_hz=None):
        super().__init__(message)
        self.frequency_hz = frequency_hz


class FeasibilityError(LramError, ValueError):
    """Optimization target below the theoretical lower frequency limit."""


class ResonanceSingularityError(LramError, RuntimeError):
    """Macroscale dynamic system singular at the requested frequency."""

    def __init__(self, message, frequency_hz=None):
        super().__init__(message)
        self.frequency_hz = frequency_hz


class ConfigError(LramError, ValueError):
    """Configuration input invalid; message carries line-numbered diagnostics."""
