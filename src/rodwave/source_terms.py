"""Nonlocal source terms P and Q of the Lagrangian rod-wave system.

Both are exponential-kernel integrals of the cell integrand

    a_j = (3 - 2*gamma)/2 * U_j^2 q_j + gamma/2 * h_j,

evaluated at the cell left endpoints.  For piecewise-constant data the
integrals collapse to exact sums over cells (weight dxi, kernel evaluated
with the particle position y at left endpoints):

    P_i =  dxi/2 * sum_j exp(-|y_i - y_j|) a_j
    Q_i = -dxi/2 * ( sum_{j<i} exp(-|y_i - y_j|) a_j
                   - sum_{j>i} exp(-|y_j - y_i|) a_j )

The evaluation cell itself carries kernel sign 0 and drops out of Q (the
signed kernel is odd about the node), while it contributes its full weight
to P.  This node-symmetric rule is what makes Q exactly antisymmetric for
mirror-symmetric states; assigning the cell to either one-sided sum instead
injects an O(dxi) drift that visibly damps traveling waves.

When y is nondecreasing, |y_i - y_j| = ±(y_i - y_j) and both terms follow in
O(N) from the inclusive one-sided sums

    f_i = sum_{j<=i} a_j exp(-(y_i - y_j)),   b_i = sum_{j>=i} a_j exp(-(y_j - y_i))

as P = dxi/2 (f + b - a) and Q = dxi/2 (b - f).  Each is a linear recurrence
(Camassa, Huang & Lee, J. Comput. Phys. 216, 2006) evaluated without a loop
over cells, as a cumulative sum of a_j exp(y_j - r) rescaled by exp(r - y_i)
with r the last position.  That needs the positions to span at most
``_SPAN``.  Otherwise the cells are cut into equal blocks, halved until the
positions in each block do; each block is rescaled to its own last position
r_b, and the block totals are chained by a Hillis-Steele scan (Blelloch,
1990) whose multipliers exp(-(r_b - r_{b-1})) never exceed one.  No exponent
leaves [-_SPAN, _SPAN] (widened by the fold depth below), so large |y|
cannot overflow.

When the particle map folds over (y_j > y_i for some j < i), the same signed
sums run without the monotone guard, and then the K inverted pairs are
corrected from exp(+d) to exp(-d) in one vectorised pass; the pairs are found
through the running maximum of y.  The candidate list holds at most
N(N-1)/2 pairs, so even a long fold costs no more than the direct sum's N x N
matrices.  Folds deeper than ``_FOLD_DEPTH``, where the exp(+d) terms would
cancel against exp(-d) at a loss of up to e^(2d) in relative accuracy, go to
the O(N^2) direct sum instead.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .errors import NonMonotoneY
from .state import LagrangianState

logger = logging.getLogger(__name__)

_SPAN = 300.0        # largest position span in one block: exp(300) ~ 2e130
_FOLD_DEPTH = 1.0    # deepest fold (max_{j<i} y_j - y_i) corrected pairwise


class SourceTerms(NamedTuple):
    P: np.ndarray
    Q: np.ndarray


def integrand_a(state: LagrangianState) -> np.ndarray:
    """Cell integrand a_j = (3-2*gamma)/2 U_j^2 q_j + gamma/2 h_j."""
    g = state.params.gamma
    U = state.U
    return 0.5 * (3.0 - 2.0 * g) * U * U * state.q + 0.5 * g * state.h


def source_terms_direct(state: LagrangianState) -> SourceTerms:
    """O(N^2) summation; the reference implementation.

    Uses |y_i - y_j| in the kernel so it stays well defined (and bounded)
    even when y is not monotone; for monotone y it coincides with the signed
    kernel form.
    """
    y = state.y
    a = integrand_a(state)
    half = 0.5 * state.grid.dxi
    kernel = np.exp(-np.abs(y[:, None] - y[None, :]))
    P = half * (kernel @ a)
    n = y.size
    # signs[i, j] = +1 for j < i, -1 for j > i, 0 for j = i
    signs = np.tri(n, n, -1) - np.tri(n, n, -1).T
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


def _signed_sums(y: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive one-sided sums f_i and b_i with the signed kernel.

    f_i = sum_{j<=i} a_j exp(-(y_i - y_j)) and b_i = sum_{j>=i} a_j
    exp(-(y_j - y_i)); for nondecreasing y every exponent is <= 0.
    """
    n = y.size
    block = n
    while True:
        nb = -(-n // block)
        pad = nb * block - n
        Y = np.concatenate((y, np.full(pad, y[-1]))).reshape(nb, block)
        if block == 1 or (Y[:, -1] - Y[:, 0]).max() <= _SPAN:
            break
        block //= 2
    A = np.concatenate((a, np.zeros(pad))).reshape(nb, block)
    r = Y[:, -1]                 # each block is rescaled to its last position
    down = np.exp(Y - r[:, None])
    up = 1.0 / down
    lo = np.cumsum(A * down, axis=1)
    hi = np.cumsum((A * up)[:, ::-1], axis=1)[:, ::-1]
    f, b = lo * up, hi * down
    if nb > 1:
        # mu[k] = exp(-(r_{k+1} - r_k)) links block k+1 to block k.  into[k]
        # is the f-sum over blocks 0..k referred to r_{k+1}, out[k] the b-sum
        # over blocks k+1.. referred to r_k: each carry is rescaled to the
        # block that receives it
        mu = np.exp(r[:-1] - r[1:])
        into = mu * _chain(np.concatenate(([0.0], mu[:-1])), lo[:-1, -1])
        out = mu * _chain(np.concatenate(([0.0], mu[:0:-1])), hi[:0:-1, 0])[::-1]
        f[1:] += into[:, None] * up[1:]
        b[:-1] += out[:, None] * down[:-1]
    return f.ravel()[:n], b.ravel()[:n]


def _combine(f: np.ndarray, b: np.ndarray, a: np.ndarray, dxi: float) -> SourceTerms:
    half = 0.5 * dxi
    # f and b both hold the evaluation cell, which Q must not see
    return SourceTerms(P=half * (f + b - a), Q=half * (b - f))


def source_terms_fast(state: LagrangianState) -> SourceTerms:
    """O(N) evaluation via blocked prefix sums; requires nondecreasing y."""
    y = state.y
    bad = np.nonzero(np.diff(y) < 0.0)[0]
    if bad.size:
        raise NonMonotoneY(state.grid.cell_index(int(bad[0]) + 1))
    a = integrand_a(state)
    return _combine(*_signed_sums(y, a), a, state.grid.dxi)


def _inverted_pairs(y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Index pairs (j, i) with j < i and y_j > y_i, or None for a deep fold.

    Only j at or after the first position where the running maximum of y
    exceeds y_i can be inverted against i; those candidates are listed and
    filtered.
    """
    n = y.size
    top = np.maximum.accumulate(y)
    if not (top - y).max() <= _FOLD_DEPTH:
        return None
    first = np.searchsorted(top, y, side="right")
    counts = np.maximum(np.arange(n) - first, 0)
    total = int(counts.sum())
    i = np.repeat(np.arange(n), counts)
    starts = np.cumsum(counts) - counts
    j = np.arange(total) + np.repeat(first - starts, counts)
    keep = y[j] > y[i]
    return j[keep], i[keep]


def source_terms_folded(state: LagrangianState) -> SourceTerms:
    """O(N + K) evaluation for a shallow fold with K inverted pairs.

    The signed sums weigh an inverted pair (j < i, d = y_j - y_i > 0) with
    exp(+d) where the |dy| kernel wants exp(-d); the difference 2 sinh(d) is
    taken back out of f_i (weight a_j) and b_j (weight a_i).  Deep folds are
    handed to ``source_terms_direct``.
    """
    y = state.y
    pairs = _inverted_pairs(y)
    if pairs is None:
        return source_terms_direct(state)
    j, i = pairs
    a = integrand_a(state)
    f, b = _signed_sums(y, a)
    excess = 2.0 * np.sinh(y[j] - y[i])
    f -= np.bincount(i, weights=a[j] * excess, minlength=y.size)
    b -= np.bincount(j, weights=a[i] * excess, minlength=y.size)
    return _combine(f, b, a, state.grid.dxi)


def evaluate_source_terms(state: LagrangianState) -> tuple[SourceTerms, bool]:
    """Fast path, with a fold-aware fallback on non-monotone positions.

    Returns the terms and whether y was folded (the fallback flag).  The
    fallback keeps the solver alive outside the positivity regime, where the
    particle map may fold over.  There, two particles that have crossed
    (j < i with y_j > y_i) interact through index sign x exp(-|y_i - y_j|):
    P sees exp(-|dy|) and Q keeps the sign of i - j, which is sign(xi - eta)
    of the Lagrangian integral, exactly as in ``source_terms_direct``.
    Shallow folds are served in O(N + K) by ``source_terms_folded``, deep
    ones by ``source_terms_direct``; the flag is True either way.
    """
    try:
        return source_terms_fast(state), False
    except NonMonotoneY as err:
        logger.debug(
            "non-monotone particle positions (first at cell %d); "
            "falling back to fold-aware summation",
            err.index,
        )
        return source_terms_folded(state), True
