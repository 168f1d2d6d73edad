"""Shared test utilities: random admissible states and comparison metrics."""

import numpy as np

from rodwave import GridSpec, LagrangianState, Parameters


def random_admissible_state(rng, grid: GridSpec, gamma: float, scale: float = 1.0):
    """Random state in the admissible set: h is chosen so I = 0 exactly,
    q is bounded away from zero and y is strictly increasing."""
    n = grid.n_cells
    xi = grid.cells
    env = np.exp(-np.abs(xi) / max(1.0, grid.r / 4))
    U = scale * rng.normal(size=n) * env
    w = scale * rng.normal(size=n) * env
    q = rng.uniform(0.2, 1.8, size=n)
    h = (U * U * q * q + w * w) / q
    incr = rng.uniform(0.05, 2.0, size=n) * grid.dxi
    y = np.cumsum(incr)
    y -= y[n // 2]
    cs = np.cumsum(h)
    H = grid.dxi * np.concatenate(([0.0], cs[:-1]))
    return LagrangianState.zero(grid, Parameters(gamma)).replace(
        zeta=y - xi,
        U=U,
        H=H,
        v=q - 1.0,
        w=w,
        h=h,
        zeta_minus=float(y[0] - xi[0]),
        zeta_plus=float(y[-1] - xi[-1]),
        H_plus=float(grid.dxi * cs[-1]),
    )


def states_equal(a: LagrangianState, b: LagrangianState) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and a.zeta_minus == b.zeta_minus
        and a.zeta_plus == b.zeta_plus
        and a.H_plus == b.H_plus
    )


def rel_entrywise(a: np.ndarray, b: np.ndarray, floor: np.ndarray | float = 0.0):
    """Per-entry |a-b| / max(|a|, |b|, floor); zero entries compare as zero."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / np.where(denom > 0, denom, 1.0)
