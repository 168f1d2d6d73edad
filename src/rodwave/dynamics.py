"""Vector fields of the semi-discrete system and its two sub-systems.

The full right-hand side

    zeta_t = gamma U          v_t = gamma w
    U_t    = -Q               w_t = gamma/2 h + ((3-2*gamma)/2 U^2 - P) q
    H_t    = U^3 - 2 P U      h_t = -2 Q U q + (3 U^2 - 2 P) w

splits into a derivative-field part (g1: only v, w, h move) and a primary
part (g2: only zeta, U, H, h move).  Each part keeps every per-cell
invariant I_i = U_i^2 q_i^2 + w_i^2 - q_i h_i quadratic — U is frozen under
g1 and q under g2 — which is what lets the midpoint rule conserve them
exactly.  The full field is assembled as g1 + g2 so the split is exact by
construction.  Boundary constants never move.
"""

from __future__ import annotations

import numpy as np

from .source_terms import SourceTerms
from .state import LagrangianState

# The rows of a state's x (in ROWS order) that each sub-flow moves.
G1_ROWS = [3, 4, 5]         # v, w, h
G2_ROWS = [0, 1, 2, 5]      # zeta, U, H, h


def vector_field_g1(state: LagrangianState, terms: SourceTerms) -> np.ndarray:
    """Sub-flow moving only the derivative fields v, w, h (rows of a
    (6, 2N) array laid out like ``state.x``)."""
    g, q, w, h, P = state.params.gamma, state.q, state.w, state.h, terms.P
    U2 = state.U * state.U
    out = np.zeros(state.x.shape)
    out[3] = g * w
    out[4] = 0.5 * g * h + (0.5 * (3.0 - 2.0 * g) * U2 - P) * q
    out[5] = (3.0 * U2 - 2.0 * P) * w
    return out


def vector_field_g2(state: LagrangianState, terms: SourceTerms) -> np.ndarray:
    """Sub-flow moving zeta, U, H and the advected part of h."""
    g, U, q, P, Q = state.params.gamma, state.U, state.q, terms.P, terms.Q
    out = np.zeros(state.x.shape)
    out[0] = g * U
    out[1] = -Q
    out[2] = U * U * U - 2.0 * P * U
    out[5] = -2.0 * Q * U * q
    return out


def vector_field_full(state: LagrangianState, terms: SourceTerms) -> np.ndarray:
    """Full right-hand side; exactly the sum of the two sub-flows."""
    return vector_field_g1(state, terms) + vector_field_g2(state, terms)
