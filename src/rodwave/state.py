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

import warnings
from dataclasses import dataclass, field, replace

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
                stacklevel=2,
            )


@dataclass(frozen=True)
class GridSpec:
    """Uniform xi-grid with 2N cells covering [-r, r).

    Cell i (i = -N..N-1) is [xi_i, xi_{i+1}) with xi_i = i*dxi.  The radius is
    stored once at construction (r = n_half*dxi exactly) and never recomputed,
    so repeated use cannot drift.
    """

    n_half: int
    dxi: float
    r: float

    def __post_init__(self):
        if self.n_half < 1:
            raise ValueError("n_half must be >= 1")
        if not self.dxi > 0:
            raise ValueError("dxi must be positive")
        if self.r != self.n_half * self.dxi:
            raise ValueError(
                f"inconsistent grid: r={self.r!r} but n_half*dxi={self.n_half * self.dxi!r}"
            )

    @classmethod
    def from_cells(cls, n_half: int, dxi: float) -> "GridSpec":
        return cls(n_half=n_half, dxi=dxi, r=n_half * dxi)

    @classmethod
    def from_radius(cls, dxi: float, r: float) -> "GridSpec":
        """Grid whose radius is the closest multiple of dxi to ``r``."""
        n_half = max(1, int(round(r / dxi)))
        return cls.from_cells(n_half, dxi)

    @property
    def n_cells(self) -> int:
        return 2 * self.n_half

    @property
    def cells(self) -> np.ndarray:
        """Left endpoints xi_i for i = -N..N-1."""
        return np.arange(-self.n_half, self.n_half, dtype=np.float64) * self.dxi

    def cell_index(self, position: int) -> int:
        """Map array position 0..2N-1 to the cell index i in -N..N-1."""
        return position - self.n_half


ROWS = ("zeta", "U", "H", "v", "w", "h")


def _row(k: int, doc: str) -> property:
    return property(lambda self: self.x[k], doc=doc)


@dataclass(frozen=True, eq=False)
class LagrangianState:
    """The (6, 2N) field array ``x`` (rows in ``ROWS`` order) plus the
    boundary constants.

    Treated as immutable: ``x`` is a read-only view and every operation
    returns a new state.  Instances can therefore be shared freely across
    threads.
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

    @property
    def y(self) -> np.ndarray:
        return self.grid.cells + self.zeta

    @property
    def q(self) -> np.ndarray:
        return 1.0 + self.v

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def reported_H_plus(self) -> float:
        """Total-energy constant including the last cell, for output."""
        return float(self.H[-1] + self.grid.dxi * self.h[-1])

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
    return float(np.sqrt(dxi * np.dot(x, x)))


def _norm(d: np.ndarray, zeta_minus: float, zeta_plus: float, H_plus: float,
          dxi: float) -> float:
    zeta, U, H, v, w, h = d
    sup_zeta = max(float(np.max(np.abs(zeta))), abs(zeta_minus), abs(zeta_plus))
    # H equals 0 left of the grid and H_plus right of it.
    sup_H = max(float(np.max(np.abs(H))), abs(H_plus))
    return (
        sup_zeta
        + _weighted_l2(U, dxi)
        + float(np.max(np.abs(U)))
        + sup_H
        + _weighted_l2(v, dxi)
        + _weighted_l2(w, dxi)
        + _weighted_l2(h, dxi)
    )


def norm_f(state: LagrangianState) -> float:
    """State-space norm: sup norms on zeta, U, H (boundary constants included)
    plus dxi-weighted l2 norms on U, v, w, h."""
    return _norm(state.x, state.zeta_minus, state.zeta_plus, state.H_plus, state.grid.dxi)


def distance_f(a: LagrangianState, b: LagrangianState) -> float:
    """Norm of the difference of two states on the same grid."""
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    return _norm(
        a.x - b.x,
        a.zeta_minus - b.zeta_minus,
        a.zeta_plus - b.zeta_plus,
        a.H_plus - b.H_plus,
        a.grid.dxi,
    )


@dataclass
class AdmissibilityReport:
    """Per-cell violations of the admissible-set conditions (report only).

    Cell indices use the -N..N-1 numbering.  An empty report means the state
    satisfies q >= 0, h >= 0, q + h >= c_floor and q*h >= U^2 q^2 + w^2,
    all up to ``tol``.
    """

    c_floor: float
    tol: float
    q_negative: list[int] = field(default_factory=list)
    h_negative: list[int] = field(default_factory=list)
    floor_violations: list[int] = field(default_factory=list)
    invariant_violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.q_negative
            or self.h_negative
            or self.floor_violations
            or self.invariant_violations
        )

    def summary(self) -> str:
        if self.ok:
            return "admissible"
        return (
            f"q<0 at {len(self.q_negative)} cells, h<0 at {len(self.h_negative)}, "
            f"q+h<{self.c_floor} at {len(self.floor_violations)}, "
            f"qh<U^2q^2+w^2 at {len(self.invariant_violations)}"
        )


def check_admissible(
    state: LagrangianState, c_floor: float, tol: float = 1e-10
) -> AdmissibilityReport:
    """Report where the state leaves the admissible set."""
    if not c_floor > 0:
        raise ValueError("c_floor must be positive")
    q = state.q
    h = state.h
    I = invariants(state)
    n_half = state.grid.n_half
    report = AdmissibilityReport(c_floor=c_floor, tol=tol)
    report.q_negative = [int(k) - n_half for k in np.nonzero(q < -tol)[0]]
    report.h_negative = [int(k) - n_half for k in np.nonzero(h < -tol)[0]]
    report.floor_violations = [
        int(k) - n_half for k in np.nonzero(q + h < c_floor - tol)[0]
    ]
    report.invariant_violations = [int(k) - n_half for k in np.nonzero(I > tol)[0]]
    return report
