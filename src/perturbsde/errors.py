"""Exception hierarchy for the perturbsde package.

Every error raised by this package derives from :class:`PerturbSDEError`, so
callers can catch one type at the boundary.  A class's ``exit_code`` is the
command line's exit code for it: 2 (a configuration problem) unless it is a
:class:`NumericalFailure` (3) or a :class:`VerificationFailure` (4).
"""

class PerturbSDEError(Exception):
    """Base class for all errors raised by perturbsde."""
    exit_code = 2


class ConfigError(PerturbSDEError):
    """A run configuration or serialized spec is malformed or out of range."""


class AlphaOutOfRange(PerturbSDEError):
    """The supremum-feedback weight alpha must satisfy alpha < 1."""


class UnknownPreset(ConfigError):
    """A coefficient preset id is not in the built-in catalog."""


class UnsupportedOrder(PerturbSDEError):
    """A derivative order was requested that the coefficient cannot supply."""


class GridMismatch(PerturbSDEError):
    """Array lengths are inconsistent with the time grid."""


class NumericalFailure(PerturbSDEError):
    """A well-formed run met a quantity it cannot compute."""
    exit_code = 3


class DegenerateDiffusion(NumericalFailure):
    """The diffusion coefficient vanishes or changes sign on the working
    domain, so the unit-diffusion change of variables is unavailable."""


class NonFinite(NumericalFailure):
    """A simulated quantity left the finite range.

    Attributes
    ----------
    step:
        Index of the first offending time step, when known.
    path_index:
        Index of the offending path, when known.
    """

    def __init__(self, message: str, *, step: int | None = None,
                 path_index: int | None = None):
        super().__init__(message)
        self.step = step
        self.path_index = path_index


class OutOfDomain(NumericalFailure):
    """A path left the working domain of a tabulated transform."""


class DomainTooSmall(NumericalFailure):
    """A transform table does not cover the values it is asked to map."""


class IntegrationFailure(NumericalFailure):
    """A quadrature or root-finding routine failed to converge."""


class EmptySample(NumericalFailure):
    """A statistical routine received an empty or degenerate sample."""


class VerificationFailure(PerturbSDEError):
    """A verification suite reported at least one failing check."""
    exit_code = 4
