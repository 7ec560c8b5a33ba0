"""Exception and warning types shared across the package."""


class HalfScatterError(Exception):
    """Base class for all numerical-library errors."""


class DomainError(HalfScatterError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(HalfScatterError):
    """Evaluation requested exactly at a pole of a gamma-type function."""


class InvalidCError(HalfScatterError):
    """The lower hypergeometric parameter is a nonpositive integer."""


class NoConvergenceError(HalfScatterError):
    """A series or an iteration failed to meet its tolerance within its cap."""


class ParityError(HalfScatterError, ValueError):
    """Group index pair with odd difference; the reduced subspace is trivial."""


class AtEigenvalueError(HalfScatterError):
    """Resolvent requested at (or numerically indistinguishable from) an eigenvalue."""


class StepFailureError(HalfScatterError):
    """Adaptive ODE integration could not complete (step size underflow)."""


class IllConditionedError(HalfScatterError):
    """A fit or an integration is too ill-conditioned to trust (or leaves double range)."""


class UnwrapError(HalfScatterError):
    """Adaptive refinement could not bound adjacent phase steps below the cap."""


class QuadratureWarning(UserWarning):
    """Estimated quadrature truncation error exceeds the documented budget."""
