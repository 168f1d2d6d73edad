"""Shared test utilities: random admissible states, comparison metrics and
the whole-state midpoint iteration the g1 substep is checked against."""

import math

import numpy as np

from rodwave import GridSpec, LagrangianState, Parameters, invariants
from rodwave.dynamics import vector_field_g1, vector_field_g2
from rodwave.errors import FixedPointDiverged
from rodwave.source_terms import evaluate_source_terms
from rodwave.state import distance_f
from rodwave.stepping import StepReport


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


def admissible(state: LagrangianState, floor: float, tol: float = 1e-10) -> bool:
    """q >= 0, h >= 0, q + h >= floor and I <= 0 on every cell, up to ``tol``."""
    q, h = state.q, state.h
    return bool(
        np.all(q >= -tol) and np.all(h >= -tol)
        and np.all(q + h >= floor - tol) and np.all(invariants(state) <= tol)
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


_FIELDS = {"g1": vector_field_g1, "g2": vector_field_g2}


def midpoint_substep_on_states(state, dt, which, cfg):
    """Solve Z = Y + dt*G_k((Z+Y)/2) by fixed-point iteration from Z=Y,
    building whole states at every iterate: the reference iteration for
    either sub-flow."""
    field_fn = _FIELDS[which]
    y = state.x
    z = state
    folded = False
    residual = math.inf
    for m in range(1, cfg.fp_max_iter + 1):
        mid = state.with_x(0.5 * (y + z.x))
        terms, fold = evaluate_source_terms(mid)
        folded = folded or fold
        z_next = state.with_x(y + dt * field_fn(mid, terms))
        residual = distance_f(z_next, z)
        z = z_next
        if residual <= cfg.fp_tol:
            return z, StepReport(
                fp_iterations=(m,),
                final_residual=residual,
                folded=folded,
            )
        if not math.isfinite(residual):
            raise FixedPointDiverged(m, residual)
    raise FixedPointDiverged(cfg.fp_max_iter, residual)
