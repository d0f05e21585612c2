"""Exception types shared across the toolkit."""


class UnitShapesError(Exception):
    """Base class for all toolkit errors."""


class QuadratureFailure(UnitShapesError):
    """Adaptive quadrature exhausted its subdivision budget before meeting tolerance, or its
    estimate turned NaN."""


class DomainError(UnitShapesError, ValueError):
    """A parameter lies outside the admissible domain of its shape family."""


class NotConverged(UnitShapesError):
    """An iterative search ran out of iterations before reaching its tolerance."""
