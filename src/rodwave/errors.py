"""Exception and warning types shared across the solver."""

import math


class RodwaveError(Exception):
    """Base class for all solver errors."""


class GridMismatch(RodwaveError):
    """Two states that must share a grid do not."""


class FixedPointDiverged(RodwaveError):
    """The implicit-midpoint fixed-point iteration did not converge.

    Carries the residual of the first iterate, of the last and the smallest
    of any, so that the message can say whether the iteration grew (the
    last is not finite, or above the first), was still contracting (the
    last is the smallest) or stalled (neither) when it was given up.  The
    first usually means the time step is too large for the current state
    magnitude, the second too few iterations; the caller may halve the step
    or abort.
    """

    def __init__(self, iterations: int, residual: float, first_residual: float,
                 smallest_residual: float):
        self.iterations = iterations
        self.residual = residual
        self.first_residual = first_residual
        self.smallest_residual = smallest_residual
        super().__init__(
            f"fixed point not converged after {iterations} iterations: the "
            f"residual {self.trend}, from {first_residual:.3e} at the first to "
            f"{residual:.3e} at the last, {smallest_residual:.3e} at its smallest"
        )

    @property
    def grew(self) -> bool:
        return not math.isfinite(self.residual) or self.residual > self.first_residual

    @property
    def trend(self) -> str:
        if self.grew:
            return "grew"
        return "was still contracting" if self.residual <= self.smallest_residual else "stalled"

    def __reduce__(self):
        # pickle rebuilds an exception from self.args, the message alone,
        # which __init__ does not take
        return type(self), (self.iterations, self.residual, self.first_residual,
                            self.smallest_residual)


class PositivityLost(RodwaveError):
    """A converged g1 substep would leave the admissible set.

    Where g1's closed-form denominator 1 - (dt lambda / 2)^2 is <= 0, the
    midpoint rule maps the cell's real rate lambda to a negative factor:
    the step keeps the cell's invariant but lands on q < 0 and h < 0.
    Carries the first such cell, the substep's dt and dt * lambda (>= 2).
    A smaller dt avoids it.
    """

    def __init__(self, cell: int, dt: float, dt_lambda: float):
        self.cell, self.dt, self.dt_lambda = cell, dt, dt_lambda
        super().__init__(
            f"the g1 substep of dt={dt} leaves the admissible set at cell {cell}: "
            f"dt*lambda = {dt_lambda:.4g} >= 2 flips q and h negative; take a smaller dt"
        )

    def __reduce__(self):
        return type(self), (self.cell, self.dt, self.dt_lambda)


class StepSizeUnderflow(RodwaveError):
    """The adaptive controller drove the step size below the representable floor."""


class NonMonotoneConstruction(RodwaveError):
    """Cuspon construction produced a decreasing position map for the given blend."""


class DegenerateFit(RodwaveError):
    """Not enough (or non-positive) data for a log-log slope fit."""


class PhysicalRangeWarning(UserWarning):
    """The material constant lies outside the physically surveyed range."""
