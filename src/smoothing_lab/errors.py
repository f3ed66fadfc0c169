"""Exception types shared across the package."""


class SmoothingLabError(Exception):
    """Base class for all package-specific errors."""


class NotPrimitive(SmoothingLabError):
    """No power of the matrix is strictly positive."""


class ZeroColumn(SmoothingLabError):
    """A matrix column is identically zero, so it kills a vertex direction."""


class SingularDirection(SmoothingLabError):
    """A matrix maps some direction on the simplex to zero."""


class NoSingletonBranch(SmoothingLabError):
    """The model gives zero probability to branches of size one."""


class FurstenbergKestenViolated(SmoothingLabError):
    """A singleton-branch atom maps part of the simplex to zero, so negative
    powers of |A v| are unbounded."""


class NoConvergence(SmoothingLabError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class BudgetExceeded(SmoothingLabError):
    """An enumeration or simulation grew past its configured element budget."""


class SupercriticalBlowup(BudgetExceeded):
    """The live tree population exceeded the node budget."""


class WitnessNotFound(SmoothingLabError):
    """A bounded search ended without the requested certificate (not a disproof)."""


class RootNotBracketed(SmoothingLabError):
    """A bisection target does not change sign on the search interval."""


class OutOfRange(SmoothingLabError):
    """An input lies outside the representable interval."""


class EmptyTail(SmoothingLabError):
    """No pool sample falls below the largest requested threshold."""


class InsufficientDecay(SmoothingLabError):
    """A transform curve never drops below the fitting threshold."""
