"""Exception types shared across the toolkit, and ``require_finite``, the one finiteness rule
that every input boundary applies: constructors, optimizer brackets and scan ranges alike."""


class UnitShapesError(Exception):
    """Base class for all toolkit errors."""


class QuadratureFailure(UnitShapesError):
    """Adaptive quadrature exhausted its subdivision budget before meeting tolerance, or its
    estimate turned NaN."""


class DomainError(UnitShapesError, ValueError):
    """A parameter lies outside the admissible domain of its shape family."""


class NotConverged(UnitShapesError):
    """An iterative search ran out of iterations before reaching its tolerance."""


def require_finite(what: str, *values) -> None:
    """Raise DomainError unless every value is a finite number; ``what`` names their owner.

    v * 0.0 is 0.0 for a finite v and NaN for NaN or an infinity, so one test covers both;
    for an int beyond the float range it raises OverflowError, which only such a number does.
    """
    for v in values:
        try:
            if v * 0.0:
                break
        except OverflowError:
            raise DomainError(f"number beyond the float range in {what}") from None
    else:
        return
    raise DomainError(f"non-finite number in {what}: {', '.join(map(str, values))}")
