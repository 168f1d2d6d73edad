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


def g1_rows(
    gamma: float, U2: np.ndarray, q: np.ndarray, w: np.ndarray, h: np.ndarray,
    P: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """The three moving rows (v_t, w_t, h_t) of the g1 sub-flow, from
    ``U2 = U * U``, written into the (3, 2N) array ``out``, which is
    returned."""
    out[0] = gamma * w
    out[1] = 0.5 * gamma * h + (0.5 * (3.0 - 2.0 * gamma) * U2 - P) * q
    out[2] = (3.0 * U2 - 2.0 * P) * w
    return out


def g2_rows(
    gamma: float, U: np.ndarray, q: np.ndarray, P: np.ndarray, Q: np.ndarray,
    out: np.ndarray | list[np.ndarray],
) -> np.ndarray | list[np.ndarray]:
    """The four moving rows (zeta_t, U_t, H_t, h_t) of the g2 sub-flow,
    written into ``out``, a (4, 2N) array or four rows of one, which is
    returned."""
    out[0][...] = gamma * U
    out[1][...] = -Q
    out[2][...] = U * U * U - 2.0 * P * U
    out[3][...] = -2.0 * Q * U * q
    return out


def vector_field_g1(state: LagrangianState, terms: SourceTerms) -> np.ndarray:
    """Sub-flow moving only the derivative fields v, w, h (rows of a
    (6, 2N) array laid out like ``state.x``)."""
    out = np.zeros(state.x.shape)
    g1_rows(state.params.gamma, state.U * state.U, state.q, state.w, state.h, terms.P, out[3:])
    return out


def vector_field_g2(state: LagrangianState, terms: SourceTerms) -> np.ndarray:
    """Sub-flow moving zeta, U, H and the advected part of h."""
    out = np.zeros(state.x.shape)
    g2_rows(state.params.gamma, state.U, state.q, terms.P, terms.Q, [out[k] for k in G2_ROWS])
    return out


def vector_field_full(state: LagrangianState, terms: SourceTerms) -> np.ndarray:
    """Full right-hand side; exactly the sum of the two sub-flows."""
    return vector_field_g1(state, terms) + vector_field_g2(state, terms)
