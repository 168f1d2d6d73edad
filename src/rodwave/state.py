"""Discrete Lagrangian state for the compressible hyperelastic rod wave equation.

The solver follows particle trajectories y(t, xi) moving in the velocity
field gamma*u.  A state holds six piecewise-constant fields on a uniform
xi-grid truncated to [-r, r), stored as the rows of one (6, 2N) float64
array ``x``, in this order:

    x[0]  zeta   position offset, y = xi + zeta
    x[1]  U      velocity along the characteristic
    x[2]  H      cumulative energy,  H(xi) = integral of u^2 + u_x^2 up to y(xi)
    x[3]  v      density offset, q = 1 + v  (q plays the role of y_xi)
    x[4]  w      velocity derivative (U_xi)
    x[5]  h      energy density (H_xi)

The integrators do their arithmetic on ``x`` directly (a time derivative is
another (6, 2N) array); ``state.zeta`` ... ``state.h`` are read-only views
of the rows.

q, w, h are carried as independent unknowns.  This keeps the evolution
semilinear and lets trajectories continue through wave breaking, where u_x
blows up in Eulerian variables but every Lagrangian field stays bounded.

Outside the truncation interval the derivative fields vanish and zeta, H are
frozen to the boundary constants stored on the state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GridMismatch, PhysicalRangeWarning

# Material-parameter range surveyed for physical rods; values outside it are
# legal (gamma=5 is a standard cuspon test case) but get a warning.
PHYSICAL_GAMMA_MIN = -29.4760
PHYSICAL_GAMMA_MAX = 3.4174


@dataclass(frozen=True)
class Parameters:
    """Material constant gamma of the rod equation (gamma=1 is Camassa-Holm)."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not PHYSICAL_GAMMA_MIN <= self.gamma <= PHYSICAL_GAMMA_MAX:
            warnings.warn(
                f"gamma={self.gamma} is outside the physical range "
                f"[{PHYSICAL_GAMMA_MIN}, {PHYSICAL_GAMMA_MAX}]",
                PhysicalRangeWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class GridSpec:
    """Uniform xi-grid with 2N cells covering [-r, r).

    Cell i (i = -N..N-1) is [xi_i, xi_{i+1}) with xi_i = i*dxi.  The radius
    r = n_half*dxi is computed from the two fields, so it cannot disagree
    with them.
    """

    n_half: int
    dxi: float

    def __post_init__(self):
        if self.n_half < 1:
            raise ValueError("n_half must be >= 1")
        if not self.dxi > 0:
            raise ValueError("dxi must be positive")

    @classmethod
    def from_radius(cls, dxi: float, r: float) -> "GridSpec":
        """Grid whose radius is the closest multiple of dxi to ``r``."""
        if not dxi > 0:
            raise ValueError("dxi must be positive")
        if not r > 0:
            raise ValueError(f"r must be positive, got {r}")
        return cls(max(1, int(round(r / dxi))), dxi)

    @property
    def r(self) -> float:
        return self.n_half * self.dxi

    @property
    def n_cells(self) -> int:
        return 2 * self.n_half

    @cached_property
    def cells(self) -> np.ndarray:
        """Left endpoints xi_i for i = -N..N-1, built once per grid and
        read-only, since every state on the grid shares it."""
        cells = np.arange(-self.n_half, self.n_half, dtype=np.float64) * self.dxi
        cells.flags.writeable = False
        return cells


ROWS = ("zeta", "U", "H", "v", "w", "h")


def _row(k: int, doc: str) -> property:
    return property(lambda self: self.x[k], doc=doc)


@dataclass(frozen=True, eq=False)
class LagrangianState:
    """The (6, 2N) field array ``x`` (rows in ``ROWS`` order) plus the
    boundary constants.

    Treated as immutable: ``x`` is a read-only view and every operation
    returns a new state.  Instances can therefore be shared freely across
    threads.  ``y`` is computed once per state and cached, which is sound
    only because ``x`` cannot change: whoever passes an array in (through
    the constructor or ``with_x``) must not write to it afterwards.
    """

    x: np.ndarray
    zeta_minus: float
    zeta_plus: float
    H_plus: float
    grid: GridSpec
    params: Parameters

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).view()
        if x.shape != (len(ROWS), self.grid.n_cells):
            raise ValueError(
                f"field array has shape {x.shape}, expected ({len(ROWS)}, {self.grid.n_cells})"
            )
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    zeta = _row(0, "Position offset, y = xi + zeta.")
    U = _row(1, "Velocity along the characteristic.")
    H = _row(2, "Cumulative energy.")
    v = _row(3, "Density offset, q = 1 + v.")
    w = _row(4, "Velocity derivative U_xi.")
    h = _row(5, "Energy density H_xi.")

    @classmethod
    def zero(cls, grid: GridSpec, params: Parameters) -> "LagrangianState":
        return cls(
            x=np.zeros((len(ROWS), grid.n_cells)),
            zeta_minus=0.0, zeta_plus=0.0, H_plus=0.0,
            grid=grid, params=params,
        )

    @cached_property
    def y(self) -> np.ndarray:
        """Particle positions xi + zeta (read-only, cached)."""
        y = self.grid.cells + self.zeta
        y.flags.writeable = False
        return y

    @property
    def q(self) -> np.ndarray:
        return 1.0 + self.v

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def with_x(self, x: np.ndarray) -> "LagrangianState":
        """Same grid, parameters and boundary constants around a new array."""
        return LagrangianState(
            x, self.zeta_minus, self.zeta_plus, self.H_plus, self.grid, self.params
        )

    def replace(self, **changes) -> "LagrangianState":
        """Copy with fields replaced by keyword: rows by name (``U=...``),
        or any of ``x``, the boundary constants, ``grid`` and ``params``."""
        if any(name in changes for name in ROWS):
            changes["x"] = np.stack(
                [changes.pop(name, row) for name, row in zip(ROWS, self.x)]
            )
        return replace(self, **changes)


def invariants(state: LagrangianState) -> np.ndarray:
    """Per-cell quantity I_i = U_i^2 q_i^2 + w_i^2 - q_i h_i.

    Conserved by the exact flow; zero on continuum-derived data, <= 0 on
    cell-averaged (projected) data.
    """
    q = state.q
    Uq = state.U * q
    return Uq * Uq + state.w * state.w - q * state.h


def _weighted_l2(x: np.ndarray, dxi: float) -> float:
    return math.sqrt(dxi * x.dot(x))


def _sup(x: np.ndarray, dxi: float) -> float:
    return float(np.abs(x).max())


# The norm's terms for each row of ROWS, in the order they are summed.
_ROW_TERMS = (
    (_sup,),                  # zeta
    (_weighted_l2, _sup),     # U
    (_sup,),                  # H
    (_weighted_l2,),          # v
    (_weighted_l2,),          # w
    (_weighted_l2,),          # h
)


def distance_f(a: LagrangianState, b: LagrangianState) -> float:
    """Norm of the difference of two states on the same grid."""
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    d = list(a.x - b.x)
    # zeta is zeta_minus left of the grid and zeta_plus right of it, and H
    # is 0 left of it and H_plus right of it: their sups take those in
    d[0] = np.append(d[0], (a.zeta_minus - b.zeta_minus, a.zeta_plus - b.zeta_plus))
    d[2] = np.append(d[2], a.H_plus - b.H_plus)
    total = 0.0     # left to right, as a + b + ... adds; sum() may compensate
    for x, terms in zip(d, _ROW_TERMS):
        for term in terms:
            total += term(x, a.grid.dxi)
    return total
