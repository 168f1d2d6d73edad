"""Shared test utilities: random admissible states, comparison metrics and
the whole-state Gauss-Seidel midpoint iteration the midpoint substep is
checked against."""

import math

import numpy as np

from rodwave import GridSpec, LagrangianState, Parameters, invariants
from rodwave.dynamics import vector_field_g1, vector_field_g2
from rodwave.errors import FixedPointDiverged
from rodwave.source_terms import evaluate_source_terms
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


def _l2(x, dxi):
    return float(np.sqrt(dxi * np.dot(x, x)))


def distance_written_out(a, b):
    """``distance_f`` of two states on one grid, its terms written out in
    the order they are summed."""
    zeta, U, H, v, w, h = a.x - b.x
    dxi = a.grid.dxi
    sup_zeta = max(float(np.max(np.abs(zeta))), abs(a.zeta_minus - b.zeta_minus),
                   abs(a.zeta_plus - b.zeta_plus))
    sup_H = max(float(np.max(np.abs(H))), abs(a.H_plus - b.H_plus))
    return (
        sup_zeta + _l2(U, dxi) + float(np.max(np.abs(U))) + sup_H
        + _l2(v, dxi) + _l2(w, dxi) + _l2(h, dxi)
    )


# Each sub-flow's first row: the one moving row whose rate reads only the
# midpoint's own rows and source terms (w under g1, U under g2).
_FIRST_ROW = {"g1": 4, "g2": 1}


def midpoint_substep_on_states(state, dt, which, cfg):
    """Solve Z = Y + dt*G_k((Z+Y)/2) by Gauss-Seidel fixed-point iteration
    from Z=Y, building whole states at every iterate: the reference
    iteration for either sub-flow.

    An iterate evaluates P and Q on the midpoint state and takes the first
    row's rate from it; the other rows' rates are the field's on a midpoint
    state that holds the first row's update, Y_k + dt/2 * rate.
    """
    field_fn, k = _FIELDS[which], _FIRST_ROW[which]
    y = state.x
    z = state
    folded = False
    residual = math.inf
    for m in range(1, cfg.fp_max_iter + 1):
        mid = state.with_x(0.5 * (y + z.x))
        terms, fold = evaluate_source_terms(mid)
        folded = folded or fold
        first = field_fn(mid, terms)[k]
        xm = mid.x.copy()
        xm[k] = y[k] + 0.5 * dt * first
        rates = field_fn(mid.with_x(xm), terms)
        rates[k] = first
        z_next = state.with_x(y + dt * rates)
        residual = distance_written_out(z_next, z)
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
