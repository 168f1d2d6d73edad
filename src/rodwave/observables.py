"""Error metrics on the solution graph, convergence fits and run diagnostics.

The solution graph is the point set (y_i, U_i) — no interpolation, since
convergence makes statements about exactly these points.  Cells where q
collapses map to (near-)repeated x values: vertical segments marking energy
concentration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFit, GridMismatch
from .initial_data import TravelingWaveSpec, smooth_profile
from .state import LagrangianState
from .stepping import StepReport


def sup_graph_error(a: LagrangianState, b: LagrangianState) -> float:
    """max_i of the Euclidean distance between matched graph points: each
    cell of ``a`` is matched to the cell of ``b``'s grid nearest its xi
    (clipped to that grid), which on one grid is the same cell.  ``b``'s
    grid may not be coarser than ``a``'s."""
    if b.grid.dxi > a.grid.dxi:
        raise GridMismatch(f"{b.grid} is coarser than {a.grid}")
    nearest = np.rint((a.grid.cells - b.grid.cells[0]) / b.grid.dxi).astype(int)
    idx = np.clip(nearest, 0, b.n_cells - 1)
    return float(np.max(np.hypot(a.y - b.y[idx], a.U - b.U[idx])))


# The kinds of initial data whose solution has a closed form: each is a
# traveling wave, u(t, x) = profile(x - x0 - c t, spec).
_PROFILES = {
    "smooth": lambda s, spec: smooth_profile(s, spec.gamma, spec.c),
    "peakon": lambda s, spec: spec.c * np.exp(-np.abs(s)),
}
EXACT_KINDS = tuple(_PROFILES)

# the fewest (resolution, error) points ``convergence_order`` fits a slope to
MIN_FIT_POINTS = 3


def exact_error(state: LagrangianState, spec: TravelingWaveSpec, t: float) -> float | None:
    """max_i |U_i - u(t, y_i)|, graph-aligned, for u the closed form of the
    solution from ``spec`` at time t; None for a kind not in
    ``EXACT_KINDS``, which has none."""
    profile = _PROFILES.get(spec.kind)
    if profile is None:
        return None
    exact = profile(state.y - spec.x0 - spec.c * t, spec)
    return float(np.max(np.abs(state.U - exact)))


def convergence_order(points) -> float:
    """Least-squares slope of log(error) against log(resolution), over at
    least ``MIN_FIT_POINTS`` points."""
    pts = [(float(r), float(e)) for r, e in points]
    if len(pts) < MIN_FIT_POINTS:
        raise DegenerateFit(f"need >= {MIN_FIT_POINTS} points, got {len(pts)}")
    res = np.array([p[0] for p in pts])
    err = np.array([p[1] for p in pts])
    if np.any(res <= 0) or np.any(err <= 0):
        raise DegenerateFit("resolutions and errors must be positive")
    if np.ptp(np.log(res)) == 0.0:
        raise DegenerateFit("all resolutions identical")
    slope, _ = np.polyfit(np.log(res), np.log(err), 1)
    return float(slope)


@dataclass
class DiagnosticsRow:
    """One row of diagnostics.csv; the field order is the column order."""

    t: float
    total_energy: float
    min_q: float
    min_h: float
    max_inv_drift: float
    fp_iters_max: int


@dataclass
class DiagnosticsRecorder:
    """evolve() observer accumulating one row per observation time.  A
    row's minima, drift and largest fixed-point iteration count are its
    step report's (at t=0 the start state's); only the total energy is
    measured on the state."""

    rows: list[DiagnosticsRow] = field(default_factory=list)

    def __call__(self, step: int, t: float, state: LagrangianState, report: StepReport):
        self.rows.append(
            DiagnosticsRow(
                t=t,
                total_energy=float(state.grid.dxi * np.sum(state.h)),
                min_q=report.min_q,
                min_h=report.min_h,
                max_inv_drift=report.max_inv_drift,
                fp_iters_max=max(report.fp_iterations, default=0),
            )
        )
