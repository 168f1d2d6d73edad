"""Shared test utilities: random admissible states, comparison metrics and
the whole-state midpoint iteration the midpoint substep is checked
against."""

import math

import numpy as np

from rodwave import GridSpec, LagrangianState, Parameters, invariants
from rodwave.dynamics import vector_field_g2
from rodwave.errors import FixedPointDiverged
from rodwave.source_terms import integrand_u, source_terms_fast
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


def edge_state(rng, grid: GridSpec, gamma: float, fold: float = 0.0):
    """``random_admissible_state`` pushed to the edges of the admissible
    set.  On 30% of the cells q is scaled by f, drawn from [0, 0.05] and 0
    on a third of them, and w by sqrt(f), with
    h = U^2 q f + w^2 / q: every I_i stays 0 and h bounded.  With ``fold``
    > 0, y runs back by ``fold`` cells over a block of cells, folding it."""
    s = random_admissible_state(rng, grid, gamma)
    n = grid.n_cells
    f = np.where(rng.random(n) < 1 / 3, 0.0, rng.uniform(0.0, 0.05, n))
    f = np.where(rng.random(n) < 0.3, f, 1.0)
    q, U, w = s.q, s.U, s.w
    h = U * U * q * f + w * w / q
    cs = np.cumsum(h)
    zeta = s.zeta.copy()
    start = int(rng.integers(0, n // 2))
    zeta[start:start + n // 4] -= fold * grid.dxi
    return s.replace(zeta=zeta, v=q * f - 1.0, w=w * np.sqrt(f), h=h,
                     H=grid.dxi * np.concatenate(([0.0], cs[:-1])),
                     H_plus=float(grid.dxi * cs[-1]))


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


def _g1_rates(state, mid, dt):
    """g1's rates at a midpoint state, in closed form: for the P of ``mid``
    the midpoint system is linear in each cell, and w's rate solves it,
    w_t = (c0 + c1 w0) / (1 - dt/2 c1); v's and h's rates read w at
    w0 + dt/2 * w_t.  Each term is rounded as ``stepping._g1`` rounds it."""
    g, U, q0, w0, h0 = state.params.gamma, state.U, state.q, state.w, state.h
    P = source_terms_fast(mid).P
    a_u = integrand_u(g, U)
    h_u = 3.0 * U * U
    s_u = (0.5 * dt * g) * (0.5 * h_u + a_u)
    numerator = 0.5 * g * h0 + a_u * q0 + s_u * w0 - P * (q0 + g * dt * w0)
    w_t = numerator / ((1.0 - 0.5 * dt * s_u) + P * (0.5 * dt * (g * dt)))
    w_mid = w0 + 0.5 * dt * w_t
    rates = np.zeros(state.x.shape)
    rates[3] = g * w_mid
    rates[4] = w_t
    rates[5] = (h_u - P * 2.0) * w_mid
    return rates


def _g2_rates(state, mid, dt):
    """g2's rates at a midpoint state: U's rate from the source terms of
    ``mid``, then the field at a midpoint state holding U's update,
    U0 + dt/2 * U_t."""
    terms = source_terms_fast(mid)
    first = vector_field_g2(mid, terms)[1]
    xm = mid.x.copy()
    xm[1] = state.x[1] + 0.5 * dt * first
    rates = vector_field_g2(mid.with_x(xm), terms)
    rates[1] = first
    return rates


_RATES = {"g1": _g1_rates, "g2": _g2_rates}


def relative_change(new, old, start):
    """The largest over the rows of |new - old|_inf / max(|start|_inf,
    |new|_inf), a row that did not move counting 0 and a row of size 0
    that did counting 1; nan or inf when an iterate is not finite."""
    changes = []
    for a, b, y in zip(new.x, old.x, start.x):
        moved = np.max(np.abs(a - b))
        size = np.maximum(np.max(np.abs(y)), np.max(np.abs(a)))
        changes.append(0.0 if moved == 0 else 1.0 if size == 0 else moved / size)
    return float(np.max(changes))


def midpoint_substep_on_states(state, dt, which, cfg):
    """Solve Z = Y + dt*G_k((Z+Y)/2) by fixed-point iteration from Z=Y,
    building whole states at every iterate: the reference iteration for
    either sub-flow, stopped on the relative change of successive
    iterates."""
    rates_at = _RATES[which]
    z = state
    for m in range(1, cfg.fp_max_iter + 1):
        mid = state.with_x(0.5 * (state.x + z.x))
        z_next = state.with_x(state.x + dt * rates_at(state, mid, dt))
        residual = relative_change(z_next, z, state)
        z = z_next
        if m == 1:
            first = smallest = residual
        smallest = min(smallest, residual)
        if residual <= cfg.fp_tol:
            return z, StepReport(fp_iterations={m: 1}, final_residual=residual)
        if not math.isfinite(residual):
            raise FixedPointDiverged(m, residual, first, smallest)
    raise FixedPointDiverged(cfg.fp_max_iter, residual, first, smallest)
