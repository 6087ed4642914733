"""Exception types shared across the package."""


class SupermechError(Exception):
    """Base class for all package errors."""


class MixedParity(SupermechError):
    """An expression required to be parity-homogeneous mixes even and odd terms."""


class ParityMismatch(SupermechError):
    """A substitution binds a generator to an expression of the wrong parity."""


class NonNumericBody(SupermechError):
    """A matrix entry falls outside the constant-plus-nilpotent-soul class."""


class UnsupportedLagrangian(SupermechError):
    """The Lagrangian is outside the supported class (at most quadratic in velocities)."""


class ResidualVelocity(SupermechError):
    """A velocity survived where the construction guarantees cancellation."""


class Inconsistent(SupermechError):
    """The constraint algebra produced a nonzero constant: contradictory dynamics."""


class SingularBody(SupermechError):
    """The numeric body of a matrix (or ring element) is not invertible."""


class UnsolvableConstraint(SupermechError):
    """Solved forms bind each other in a cycle that never resolves."""


class GradeMismatch(SupermechError):
    """A numeric assignment violates the even/odd grading of a generator."""


class FlowError(SupermechError, ValueError):
    """A flow request is invalid: a bad path, an initial state off the
    constraint surface, a Lambda_n above the cap, or a flow whose step plan
    needs more entries than numeric_flow.PLAN_LIMIT."""


class ClosureDiverged(SupermechError):
    """The integrability closure loop exceeded its round budget."""


class ModelSyntaxError(SupermechError):
    """Model source failed to parse; carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownSymbol(SupermechError):
    """An expression references an undeclared name."""


class IndexOutOfRange(SupermechError):
    """An index reference falls outside its declared range."""


class UnboundConstant(SupermechError):
    """A tensor constant is referenced but never declared."""

