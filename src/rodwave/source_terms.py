"""Nonlocal source terms P and Q of the Lagrangian rod-wave system.

Both are exponential-kernel integrals of the cell integrand

    a_j = (3 - 2*gamma)/2 * U_j^2 q_j + gamma/2 * h_j,

evaluated at the cell left endpoints.  The kernel is the signed exponent of
the Lagrangian formulation of Holden & Raynaud (Comm. PDE 32, 2007;
J. Differential Equations 233, 2007), exp(-sgn(xi - eta) (y(xi) - y(eta))).
For piecewise-constant data the integrals collapse to exact sums over cells
(weight dxi, kernel evaluated with the particle position y at left
endpoints):

    P_i =  dxi/2 * sum_j exp(-sgn(i - j) (y_i - y_j)) a_j
    Q_i = -dxi/2 * ( sum_{j<i} exp(-(y_i - y_j)) a_j
                   - sum_{j>i} exp(-(y_j - y_i)) a_j )

The evaluation cell itself carries kernel sign 0 and drops out of Q (the
signed kernel is odd about the node), while it contributes its full weight
to P.  This node-symmetric rule is what makes Q exactly antisymmetric for
mirror-symmetric states; assigning the cell to either one-sided sum instead
injects an O(dxi) drift that visibly damps traveling waves.

While y is nondecreasing the kernel is exp(-|y_i - y_j|).  When the particle
map folds over, a crossed pair (j < i, d = y_j - y_i > 0) keeps the sign of
i - j and is weighed with exp(+d); no state needs a second rule.

Both terms follow in O(N) from the inclusive one-sided sums

    f_i = sum_{j<=i} a_j exp(-(y_i - y_j)),   b_i = sum_{j>=i} a_j exp(-(y_j - y_i))

as P = dxi/2 (f + b - a) and Q = dxi/2 (b - f).  Each is a linear recurrence
(Camassa, Huang & Lee, J. Comput. Phys. 216, 2006) evaluated without a loop
over cells, as a cumulative sum of a_j exp(y_j - r) rescaled by exp(r - y_i)
with r the last position.  That needs the positions to span at most
``_SPAN``.  Otherwise the cells are cut into equal blocks, halved until the
first and last positions of each block are that close; each block is
rescaled to its own last position r_b, and the block totals are chained by a
Hillis-Steele scan (Blelloch, 1990) whose multipliers exp(-(r_b - r_{b-1}))
never exceed one on nondecreasing y.  No exponent leaves [-_SPAN, _SPAN]
there, so large |y| cannot overflow; a fold of depth d (the largest
y_j - y_i over j < i) widens that range by at most d.

The evaluation is split in two.  The factor step, ``kernel_factors``, takes
y alone to the block layout, the rescalings exp(y_j - r_b) and their
reciprocals, and the block links.  The sum step, ``kernel_sums``, takes
those factors and the integrand a to P and Q.  ``source_terms_fast`` is the
one after the other; a caller that holds y fixed (the g1 sub-flow freezes
zeta) builds the factors once and runs only the sum step per integrand.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .state import LagrangianState

_SPAN = 300.0        # largest position span in one block: exp(300) ~ 2e130


class SourceTerms(NamedTuple):
    P: np.ndarray
    Q: np.ndarray


def integrand_u(gamma: float, U: np.ndarray) -> np.ndarray:
    """The U-only factor (3-2*gamma)/2 U_j^2 of the integrand's first term."""
    return 0.5 * (3.0 - 2.0 * gamma) * U * U


def integrand(gamma: float, a_u: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Cell integrand a_j = (3-2*gamma)/2 U_j^2 q_j + gamma/2 h_j, from its
    U-only factor ``a_u = integrand_u(gamma, U)``."""
    return a_u * q + 0.5 * gamma * h


def integrand_a(state: LagrangianState) -> np.ndarray:
    """The cell integrand of a state's U, q and h."""
    g = state.params.gamma
    return integrand(g, integrand_u(g, state.U), state.q, state.h)


def source_terms_direct(state: LagrangianState) -> SourceTerms:
    """O(N^2) summation with the signed kernel; the reference implementation.

    The kernel is exp(-sgn(i - j) (y_i - y_j)) on any y.  On nondecreasing y
    it is bit for bit exp(-|y_i - y_j|), since the sign flips of y_i - y_j
    are exact.
    """
    y = state.y
    a = integrand_a(state)
    half = 0.5 * state.grid.dxi
    n = y.size
    # signs[i, j] = +1 for j < i, -1 for j > i, 0 for j = i
    signs = np.tri(n, n, -1) - np.tri(n, n, -1).T
    kernel = np.exp(-signs * (y[:, None] - y[None, :]))
    P = half * (kernel @ a)
    Q = -half * ((signs * kernel) @ a)
    return SourceTerms(P=P, Q=Q)


def _chain(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x_k = m_k x_{k-1} + t_k with x_{-1} = 0, by a Hillis-Steele scan."""
    x, m = t.copy(), m.copy()
    d = 1
    while d < x.size:
        x[d:] = x[d:] + m[d:] * x[:-d]
        m[d:] = m[d:] * m[:-d]
        d *= 2
    return x


def _blocks(x: np.ndarray, nb: int, block: int, fill: float) -> np.ndarray:
    """x as nb rows of ``block`` cells, its last row padded with ``fill``;
    a view of x when the blocks cover it exactly."""
    pad = nb * block - x.size
    if pad:
        x = np.concatenate((x, np.full(pad, fill)))
    return x.reshape(nb, block)


class KernelFactors(NamedTuple):
    """The y-dependent half of the fast kernel: the cells cut into blocks
    (one block per row of ``down``), exp(y_j - r_b) and its reciprocal for
    every cell of block b, and the links mu between adjacent blocks."""

    down: np.ndarray
    up: np.ndarray
    mu: np.ndarray


def kernel_factors(y: np.ndarray) -> KernelFactors:
    """The factor step: y -> block layout, ``down``, ``up`` and ``mu``.

    A state's factors serve every integrand on it, so a caller that holds y
    fixed can build them once.
    """
    n = y.size
    block = n
    while True:
        nb = -(-n // block)
        Y = _blocks(y, nb, block, y[-1])
        if block == 1 or (Y[:, -1] - Y[:, 0]).max() <= _SPAN:
            break
        block //= 2
    r = Y[:, -1]                 # each block is rescaled to its last position
    down = np.exp(Y - r[:, None])
    # mu[k] = exp(-(r_{k+1} - r_k)) links block k+1 to block k
    return KernelFactors(down=down, up=1.0 / down, mu=np.exp(r[:-1] - r[1:]))


def kernel_sums(factors: KernelFactors, a: np.ndarray, dxi: float) -> SourceTerms:
    """The sum step: P and Q of the integrand ``a`` on the factors' y.

    The inclusive one-sided sums are f_i = sum_{j<=i} a_j exp(-(y_i - y_j))
    and b_i = sum_{j>=i} a_j exp(-(y_j - y_i)); for nondecreasing y every
    exponent is <= 0.
    """
    down, up, mu = factors
    nb, block = down.shape
    n = a.size
    A = _blocks(a, nb, block, 0.0)
    lo = (A * down).cumsum(axis=1)
    hi = (A * up)[:, ::-1].cumsum(axis=1)[:, ::-1]
    f, b = lo * up, hi * down
    if nb > 1:
        # into[k] is the f-sum over blocks 0..k referred to r_{k+1}, out[k]
        # the b-sum over blocks k+1.. referred to r_k: each carry is
        # rescaled to the block that receives it
        into = mu * _chain(np.concatenate(([0.0], mu[:-1])), lo[:-1, -1])
        out = mu * _chain(np.concatenate(([0.0], mu[:0:-1])), hi[:0:-1, 0])[::-1]
        f[1:] += into[:, None] * up[1:]
        b[:-1] += out[:, None] * down[:-1]
    f, b = f.ravel()[:n], b.ravel()[:n]
    half = 0.5 * dxi
    # f and b both hold the evaluation cell, which Q must not see
    return SourceTerms(P=half * (f + b - a), Q=half * (b - f))


def source_terms_fast(state: LagrangianState) -> SourceTerms:
    """O(N) evaluation via blocked prefix sums, with the signed kernel: the
    factor step on ``state.y``, then the sum step on the state's integrand."""
    return kernel_sums(kernel_factors(state.y), integrand_a(state), state.grid.dxi)


def is_folded(y: np.ndarray) -> bool:
    """Whether two particles have crossed (j < i with y_j > y_i): the state
    is outside the positivity regime, and the signed kernel weighs such a
    pair with exp(+d)."""
    return bool((y[1:] < y[:-1]).any())

