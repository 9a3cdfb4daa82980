"""Exception types shared across the package."""


class VortexError(Exception):
    """Base class for all library errors."""


class CollisionError(VortexError):
    """Two vortices are closer than the collision tolerance."""


class DomainError(VortexError):
    """A point lies outside the fluid domain."""


class BoundaryError(DomainError):
    """A point is too close to the domain boundary for stable evaluation."""


class NoConvergence(VortexError):
    """An iterative procedure exhausted its iteration budget."""


class LeftDomain(VortexError):
    """A Newton iterate left the domain and damping could not recover it."""


class ZeroTotalVorticity(VortexError, ValueError):
    """Total vorticity zero to rounding (VortexSystem.nonzero_total)."""


class DimensionMismatch(VortexError):
    pass


class DegenerateFrame(VortexError, ValueError):
    """A seed that is not period-normalized, or no relative equilibrium."""


class ContractionFailure(VortexError):
    """Estimated Lipschitz factor of the fixed-point map exceeded the guard."""


class PhaseDefect(VortexError):
    """Full gradient residual is not dominated by the projected residual."""


class SingularOperator(VortexError):
    pass


class IntegrationError(VortexError):
    """Time integration failed; carries the failure time when known."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class CollisionApproach(IntegrationError):
    pass


class BoundaryApproach(IntegrationError):
    pass


class MinStepReached(IntegrationError):
    pass


class StepLimitReached(IntegrationError):
    """The integrator made its step budget, dynamics.MAX_STEPS, before the
    end time."""
