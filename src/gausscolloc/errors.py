"""Exception types shared across the package."""


class GaussCollocError(Exception):
    """Base class for all errors raised by this package."""


class IterationFailure(GaussCollocError):
    """A root-finding iteration failed to converge within its budget."""


class DimensionMismatch(GaussCollocError):
    """An array argument has a shape incompatible with the operator."""


class EvaluationFailure(GaussCollocError):
    """A user-supplied callback raised, returned a bad shape or made a solver
    iterate non-finite, or failed the finite-difference derivative audit."""


class UnknownProblem(GaussCollocError):
    """Requested built-in problem name is not registered."""


class NewtonDivergence(GaussCollocError):
    """The state Newton iteration failed to reduce the dynamics defect."""
