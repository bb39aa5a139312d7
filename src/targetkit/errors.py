"""Exception types shared across the package.

Every failure mode a caller can act on has its own class; the CLI maps
them onto exit codes (invalid input vs. infeasible-with-certificate vs.
internal numeric failure).
"""

__all__ = [
    "TargetkitError",
    "ShapeError",
    "ZeroMatrixError",
    "ZeroVectorError",
    "ZeroTargetError",
    "BadVariantPreconditionError",
    "BadFreeParameterError",
    "BadSpecError",
    "TooLargeError",
    "ConditionViolatedError",
    "InfeasibleError",
    "RankProvisoError",
    "NumericFailureError",
    "LambdaSearchError",
]


class TargetkitError(Exception):
    """Base class for all library errors."""


class ShapeError(TargetkitError, ValueError):
    """Operands have incompatible or unsupported shapes."""


class ZeroMatrixError(TargetkitError, ValueError):
    """An operand that must be nonzero is numerically zero."""


class ZeroVectorError(ZeroMatrixError):
    """A vector operand that must be nonzero is numerically zero."""


class ZeroTargetError(ZeroMatrixError):
    """The target matrix must be nonzero for the requested construction."""


class BadVariantPreconditionError(TargetkitError, ValueError):
    """A hypothesis of the requested congruence variant is violated."""


class BadFreeParameterError(TargetkitError, ValueError):
    """A user-supplied free parameter has the wrong shape or structure."""


class BadSpecError(TargetkitError, ValueError):
    """An instance specification is internally inconsistent."""


class TooLargeError(TargetkitError, ValueError):
    """The brute-force oracle was asked for a problem above its size bound."""


class ConditionViolatedError(TargetkitError, ValueError):
    """A hypothesis of a source-construction recipe fails; the message
    names the violated condition."""


class InfeasibleError(TargetkitError):
    """No targeting matrix with the requested structure exists.

    Carries the full :class:`~targetkit.feasibility.FeasibilityReport`
    so callers can see which condition failed and by how much.
    """

    def __init__(self, report):
        self.report = report
        failed = [c.name for c in report.conditions if not c.satisfied]
        super().__init__(
            "infeasible for property %r: failed %s" % (report.property.label(), ", ".join(failed) or "?")
        )


class RankProvisoError(TargetkitError):
    """Square X of full rank with Y a scalar multiple of X: the targeting
    matrix is forced to be that scalar times the identity, so no solution
    with a genuine two-point spectrum exists.  ``unique_solution_scale``
    is the scalar c such that A = c*I is the unique targeting matrix.
    """

    def __init__(self, message, unique_solution_scale, report=None):
        self.unique_solution_scale = unique_solution_scale
        self.report = report
        super().__init__(message)


class NumericFailureError(TargetkitError):
    """A construction could not be certified at the requested tolerance."""


class LambdaSearchError(NumericFailureError):
    """No bordering scalar produced a certified invertible completion."""
