"""Exception types shared across the package."""


class FractalCalcError(Exception):
    """Base class for all library errors."""


class CurveDomainError(FractalCalcError, ValueError):
    """An argument lies outside the range an operation accepts."""


class ResourceError(FractalCalcError):
    """A request would exceed the memory/size budget."""


class GeometryError(FractalCalcError):
    """A point does not lie on the curve within snapping tolerance."""


class ResolutionError(FractalCalcError):
    """A step is finer than the underlying table can resolve, or the
    staircase has a plateau where a difference quotient was requested."""


class EstimationError(FractalCalcError):
    """A numerical estimate failed to converge or to bracket."""


class EvaluationError(FractalCalcError):
    """A function produced non-finite values where finite ones are required."""


class ExistenceError(FractalCalcError):
    """The double-integral pre-check failed; the mean-square integral is
    not formed."""

