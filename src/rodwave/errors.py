"""Exception and warning types shared across the solver."""


class RodwaveError(Exception):
    """Base class for all solver errors."""


class GridMismatch(RodwaveError):
    """Two states that must share a grid do not."""


class FixedPointDiverged(RodwaveError):
    """The implicit-midpoint fixed-point iteration failed to contract.

    Usually means the time step is too large for the current state magnitude;
    the caller may halve the step or abort.
    """

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"fixed point not converged after {iterations} iterations "
            f"(residual {residual:.3e})"
        )

    def __reduce__(self):
        # pickle rebuilds an exception from self.args, the message alone,
        # which __init__ does not take
        return type(self), (self.iterations, self.residual)


class StepSizeUnderflow(RodwaveError):
    """The adaptive controller drove the step size below the representable floor."""


class NonMonotoneConstruction(RodwaveError):
    """Cuspon construction produced a decreasing position map for the given blend."""


class DegenerateFit(RodwaveError):
    """Not enough (or non-positive) data for a log-log slope fit."""


class PhysicalRangeWarning(UserWarning):
    """The material constant lies outside the physically surveyed range."""
