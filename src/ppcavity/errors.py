"""Exception types shared across the toolkit."""


class CavityError(Exception):
    """Base class for all toolkit errors."""


class PoleProximityError(CavityError):
    """A phase-space point is too close to a singularity of the basis functions."""


class UnreachableTargetError(CavityError):
    """The requested value is not in the image of the basis function h."""


class BoundaryPopulationError(CavityError):
    """Atomic population sits on the boundary (rho11 in {0, 1}), so no K exists."""


class PositivityError(CavityError):
    """A density matrix is not positive semidefinite."""


class InconsistentStateError(CavityError):
    """Physical-variable state violates 4*rho21*rho12 = (1+nu)(1-nu)."""


class AllPathsDivergedError(CavityError):
    """Every requested realization diverged; no statistics can be formed."""


class DimensionCapError(CavityError):
    """Truncated Hilbert space exceeds the configured dimension cap."""


class TraceDriftError(CavityError):
    """Density-matrix trace drifted beyond tolerance during integration."""


class ConfigError(CavityError):
    """Configuration text failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
