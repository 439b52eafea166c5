"""Exception types shared across the package."""


class FolsysError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FolsysError):
    pass


class BlowUpError(FolsysError):
    """Integration produced a non-finite state.

    ``partial`` carries the trajectory up to the last finite sample when the
    integrator raised this.
    """

    def __init__(self, t: float, partial=None):
        self.t = t
        self.partial = partial
        super().__init__(f"blow-up at t={t:.9g}")


class DomainExitError(FolsysError):
    """A state left the domain box of the system.

    ``partial`` carries the trajectory up to the last in-domain sample when
    the integrator raised this.
    """

    def __init__(self, t: float, detail: str = "", partial=None):
        self.t = t
        self.partial = partial
        msg = f"left domain at t={t:.9g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ErrorFloorError(FolsysError):
    """Reference solution too accurate to estimate a convergence order."""


class IncompatibleActionError(FolsysError):
    """Group action generators do not match the realized vector fields."""


class SingularCombinationError(FolsysError):
    """Superposition map evaluated at a singular input configuration."""


class MetricError(FolsysError):
    """Bilinear form is not symmetric, nondegenerate and invariant."""


class ConfigError(FolsysError):
    """Scenario configuration failed validation."""
