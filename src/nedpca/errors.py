"""Exception types shared across the package."""

__all__ = [
    "NedpcaError",
    "ParamError",
    "BudgetExceeded",
    "SolveFailed",
    "DomainError",
    "DegenerateDenominator",
    "DimensionMismatch",
]


class NedpcaError(Exception):
    """Base class for every error raised deliberately by this package."""


class ParamError(NedpcaError, ValueError):
    """Model, plan, or call parameters outside their documented domain."""


class BudgetExceeded(NedpcaError):
    """A request above a configured size cap, or over a byte budget."""


class SolveFailed(NedpcaError):
    """The stationary solve met a reducible lumped chain, or a float over- or underflowed.

    The solve reads only the rotation orbits' representatives' rows, which is
    exact when P commutes with rotating the ring, as every built matrix does. For
    valid parameters the chain is then ergodic, so a reducible chain signals an
    escape from validation (or a hand-built matrix); on a float matrix that passes
    the ergodicity certificate, it is an underflow instead.
    """


class DomainError(NedpcaError):
    """An operation was invoked outside its mathematical domain."""


class DegenerateDenominator(DomainError):
    """Pole extraction requested on the line p1 + p2 = 1, where the
    generating-function denominator degenerates to linear order."""


class DimensionMismatch(NedpcaError):
    """Two artifacts with incompatible shapes or parameter sets were combined."""
