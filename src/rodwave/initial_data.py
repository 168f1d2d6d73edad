"""Constructors for admissible discrete Lagrangian initial states.

Two routes produce a state from an Eulerian velocity profile u0:

* the generic pipeline: invert y + E(y) = xi (E = cumulative energy) on a
  fine sub-grid, then project to the solver grid by cell averaging.  The
  projected data satisfies q + h = 1 per cell exactly and
  q*h >= U^2 q^2 + w^2 (Jensen/Cauchy-Schwarz direction), so the positivity
  guarantees of the splitting schemes apply.

* direct relabeling: keep y = xi, q = 1 and set h = U^2 + w^2.  Cheaper and
  exact on the nose (per-cell invariant identically zero); used for the
  closed-form traveling waves.

Both routes land in the admissible set; they differ by a relabeling and
reconstruct the same Eulerian graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NonMonotoneConstruction,
    ProfileBlowup,
    RootBracketFailure,
)
from .state import GridSpec, LagrangianState, Parameters

WAVE_KINDS = ("smooth", "peakon", "cuspon", "peakon_antipeakon", "gaussian_derivative")

# Departure from u = M at the wave crest when integrating the profile
# equation; u' is started on the invariant curve u'^2 = F(u).
CREST_EPS = 1e-8


@dataclass(frozen=True)
class FineGrid:
    """Sub-cell refinement used to realise the cell averages."""

    m_ref: int = 16

    def __post_init__(self):
        if self.m_ref < 1:
            raise ValueError("m_ref must be >= 1")


@dataclass(frozen=True)
class TravelingWaveSpec:
    """Parameters of a traveling-wave (or collision) initial condition.

    Decaying waves need m = 0 and c = M; smooth crests exist for gamma < 1,
    peakons at gamma = 1 and cusped crests (height c/gamma) for gamma > 1.
    ``blend`` is the cuspon partition interval [a, b] over which the
    parabolic crest parameterization is faded into the exponential tail.
    """

    kind: str
    gamma: float
    c: float = 1.0
    M: float | None = None
    m: float = 0.0
    x0: float = 0.0
    blend: tuple[float, float] | None = None
    separation: float = 1.0  # peakon_antipeakon: distance to the antipeakon

    def __post_init__(self):
        if self.kind not in WAVE_KINDS:
            raise ValueError(f"unknown wave kind {self.kind!r}; choose from {WAVE_KINDS}")
        if self.m != 0.0:
            raise ValueError("only decaying waves (m = 0) are supported")
        M = self.M_resolved
        if self.kind == "smooth":
            if not (self.gamma < 1.0 and self.c == M and self.c > 0):
                raise ValueError("smooth traveling wave requires gamma < 1 and c = M > 0")
        elif self.kind == "peakon":
            if self.gamma != 1.0:
                raise ValueError("peakon traveling wave requires gamma = 1")
        elif self.kind == "cuspon":
            if not (self.gamma > 1.0 and self.c == M and self.c > 0):
                raise ValueError("cuspon traveling wave requires gamma > 1 and c = M > 0")

    @property
    def M_resolved(self) -> float:
        return self.c if self.M is None else self.M

    @property
    def blend_resolved(self) -> tuple[float, float]:
        if self.blend is not None:
            return self.blend
        s = math.sqrt(self.c / self.gamma)
        return (0.2 * s, 0.4 * s)


# ---------------------------------------------------------------------------
# Generic Eulerian -> Lagrangian pipeline
# ---------------------------------------------------------------------------


@dataclass
class EulerianProfile:
    """Initial velocity u0 with derivative, both vectorized callables."""

    u: Callable[[np.ndarray], np.ndarray]
    ux: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    @classmethod
    def from_samples(cls, x: np.ndarray, u: np.ndarray) -> "EulerianProfile":
        """Tabulated profile; derivative by central differences,
        values by linear interpolation, zero outside the samples."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim != 1 or x.shape != u.shape or x.size < 3:
            raise ValueError("need matching 1-d x, u arrays with >= 3 samples")
        order = np.argsort(x)
        x, u = x[order], u[order]
        ux = np.gradient(u, x)
        return cls(
            u=lambda xx: np.interp(xx, x, u, left=0.0, right=0.0),
            ux=lambda xx: np.interp(xx, x, ux, left=0.0, right=0.0),
            support_radius=float(np.max(np.abs(x))),
        )

    @classmethod
    def from_file(cls, path) -> "EulerianProfile":
        """Two-column numeric text ``x u``.

        The first line is a header (ignored); ``#`` lines are comments;
        columns are separated by whitespace or commas.
        """
        rows = []
        with open(path) as fh:
            for k, line in enumerate(fh):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.replace(",", " ").split()
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except (ValueError, IndexError):
                    if k == 0:
                        continue  # header line
                    raise ValueError(f"{path}: cannot parse line {k + 1}: {line!r}")
        if len(rows) < 3:
            raise ValueError(f"{path}: fewer than 3 data rows")
        arr = np.array(rows)
        return cls.from_samples(arr[:, 0], arr[:, 1])


@dataclass
class FineLagrangianData:
    """Continuum change of variables sampled on the refinement sub-grid."""

    xi: np.ndarray
    y: np.ndarray
    U: np.ndarray
    H: np.ndarray
    q: np.ndarray
    w: np.ndarray
    h: np.ndarray
    m_ref: int
    grid: GridSpec


def eulerian_to_lagrangian(
    profile: EulerianProfile, fine: FineGrid, grid: GridSpec
) -> FineLagrangianData:
    """Invert y + E(y) = xi on the fine nodes (bisection, |residual| <= 1e-13).

    E is the cumulative energy from a trapezoid table on a dense x-grid.
    The returned fields satisfy q + h = 1 and q*h = q^2 U^2 + w^2 at machine
    precision on every node: q is computed as 1/(1 + e(y)) from the same
    evaluations of u, u_x that feed U and w.
    """
    m = fine.m_ref
    n_nodes = grid.n_cells * m + 1
    xi = np.linspace(-grid.r, grid.r, n_nodes)

    span = max(profile.support_radius, 1.0)
    dx = min(1e-3, grid.dxi / (2 * m))
    n_x = min(4_000_001, int(math.ceil(2 * span / dx)) + 1)
    x_tab = np.linspace(-span, span, n_x)
    e_tab = profile.u(x_tab) ** 2 + profile.ux(x_tab) ** 2
    # cumulative trapezoid rule, in the operation order of scipy's
    # cumulative_trapezoid, so the table matches it bit for bit
    E_tab = np.concatenate(
        ([0.0], np.cumsum(np.diff(x_tab) * (e_tab[1:] + e_tab[:-1]) / 2.0))
    )
    E_tot = float(E_tab[-1])

    def E(yv):
        return np.interp(yv, x_tab, E_tab, left=0.0, right=E_tot)

    lo = np.full(n_nodes, -grid.r - E_tot - 1.0)
    hi = np.full(n_nodes, grid.r + 1.0)
    g_lo = lo + E(lo) - xi
    g_hi = hi + E(hi) - xi
    if np.any(g_lo > 0) or np.any(g_hi < 0):
        raise RootBracketFailure(
            "profile support exceeds the solver bracket "
            f"[{lo[0]:.3g}, {hi[0]:.3g}]"
        )
    y = 0.5 * (lo + hi)
    for _ in range(200):
        resid = y + E(y) - xi
        if np.max(np.abs(resid)) <= 1e-13:
            break
        take_lo = resid <= 0.0
        lo = np.where(take_lo, y, lo)
        hi = np.where(take_lo, hi, y)
        y = 0.5 * (lo + hi)
    else:
        raise RootBracketFailure(
            f"bisection stalled at residual {np.max(np.abs(resid)):.3e}"
        )

    u_y = profile.u(y)
    ux_y = profile.ux(y)
    e_y = u_y * u_y + ux_y * ux_y
    q = 1.0 / (1.0 + e_y)
    h = 1.0 - q
    w = ux_y * q
    return FineLagrangianData(
        xi=xi, y=y, U=u_y, H=xi - y, q=q, w=w, h=h, m_ref=m, grid=grid
    )


def _exclusive_cumsum_scaled(h: np.ndarray, dxi: float) -> tuple[np.ndarray, float]:
    cs = np.cumsum(h)
    H = dxi * np.concatenate(([0.0], cs[:-1]))
    return H, float(dxi * cs[-1])


def project_to_grid(
    fine: FineLagrangianData, grid: GridSpec, params: Parameters
) -> LagrangianState:
    """Cell-average the fine data onto the solver grid.

    Per cell: v, w, h are trapezoid averages, U is the q^2-weighted average
    of U (cells with vanishing q^2 mass get U = 0), H is the running energy
    sum and y = xi - H.  Averaging preserves q + h = 1 exactly and turns the
    fine-node equality q*h = q^2 U^2 + w^2 into the >= inequality.
    """
    if fine.grid != grid:
        raise ValueError("fine data was sampled for a different grid")
    m = fine.m_ref
    n = grid.n_cells
    wts = np.full(m + 1, 1.0 / m)
    wts[0] = wts[-1] = 0.5 / m
    idx = np.arange(n)[:, None] * m + np.arange(m + 1)[None, :]

    def avg(f):
        return f[idx] @ wts

    h_bar = avg(fine.h)
    v_bar = -h_bar  # q + h = 1 holds exactly on fine nodes, so v = -h
    w_bar = avg(fine.w)
    q2 = fine.q * fine.q
    den = avg(q2)
    num = avg(q2 * fine.U)
    U_bar = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    H, H_plus = _exclusive_cumsum_scaled(h_bar, grid.dxi)
    return LagrangianState.zero(grid, params).replace(
        zeta=-H,
        U=U_bar,
        H=H,
        v=v_bar,
        w=w_bar,
        h=h_bar,
        zeta_plus=-H_plus,
        H_plus=H_plus,
    )


# ---------------------------------------------------------------------------
# Direct relabeled constructors (y = xi, q = 1)
# ---------------------------------------------------------------------------


def _relabeled_state(
    U: np.ndarray,
    w_left: np.ndarray,
    w_right: np.ndarray,
    grid: GridSpec,
    gamma: float,
) -> LagrangianState:
    """Assemble y = xi, q = 1 data from one-sided derivative limits.

    At kink nodes w takes the mean of the limits and h the mean of their
    squares (the value of the energy density there).  A one-sided w turns
    the kink cell into a straggler particle that dominates the graph error,
    while sampling h = U^2 + w^2 with the averaged w loses the kink cell's
    share of the total energy.  Away from kinks both reduce to w and
    U^2 + w^2 exactly; at kinks h - (U^2 + w^2) >= 0, so the per-cell
    invariants stay on the admissible (<= 0) side.
    """
    w = 0.5 * (w_left + w_right)
    h = U * U + 0.5 * (w_left * w_left + w_right * w_right)
    H, H_plus = _exclusive_cumsum_scaled(h, grid.dxi)
    return LagrangianState.zero(grid, Parameters(gamma)).replace(
        U=U, H=H, w=w, h=h, H_plus=H_plus
    )


def make_peakon(
    c: float, x0: float, grid: GridSpec, gamma: float = 1.0
) -> LagrangianState:
    """Single peakon u = c*exp(-|x - x0|), relabeled construction.

    h equals 2 U^2 on every cell, the crest included; a crest sitting on a
    grid node gets w = 0 (mean of the one-sided limits)."""
    xi = grid.cells
    s = xi - x0
    U = c * np.exp(-np.abs(s))
    w_left = np.where(s > 0, -U, U)
    w_right = np.where(s < 0, U, -U)
    return _relabeled_state(U, w_left, w_right, grid, gamma)


def make_peakon_pair(
    peaks: list[tuple[float, float]], grid: GridSpec, gamma: float = 1.0
) -> LagrangianState:
    """Superposed peakons sum c_k exp(-|x - x_k|)."""
    xi = grid.cells
    U = np.zeros(grid.n_cells)
    w_left = np.zeros(grid.n_cells)
    w_right = np.zeros(grid.n_cells)
    for c, x0 in peaks:
        s = xi - x0
        bump = c * np.exp(-np.abs(s))
        U += bump
        w_left += np.where(s > 0, -bump, bump)
        w_right += np.where(s < 0, bump, -bump)
    return _relabeled_state(U, w_left, w_right, grid, gamma)


def _profile_rhs_factory(gamma: float, c: float, M: float):
    def F(u: float) -> float:
        return u * u * (M - u) / (c - gamma * u)

    def dF(u: float) -> float:
        denom = c - gamma * u
        return ((2.0 * M * u - 3.0 * u * u) * denom + gamma * u * u * (M - u)) / (
            denom * denom
        )

    return F, dF


def integrate_smooth_profile(
    gamma: float,
    c: float,
    M: float,
    dx: float,
    x_max: float,
    floor: float | None = None,
):
    """March u'' = F'(u)/2 outward from the crest with classical RK4.

    Starts at u = M - CREST_EPS on the invariant curve u'^2 = F(u) and stops
    once u drops below ``floor`` (default 1e-5*M) or the slope turns up,
    which marks the onset of the unstable-mode contamination in the tail.
    Returns (x, u, u') arrays for x >= 0.
    """
    F, dF = _profile_rhs_factory(gamma, c, M)
    if floor is None:
        floor = 1e-5 * M
    u0 = M - CREST_EPS
    f0 = F(u0)
    if not (f0 > 0 and math.isfinite(f0)):
        raise ProfileBlowup(f"F(M-eps) = {f0:.3e}; wrong parameter regime")
    u, p = u0, -math.sqrt(f0)
    xs, us, ps = [0.0], [u], [p]
    x = 0.0
    while x < x_max:
        # RK4 on (u, p) with p' = F'(u)/2
        k1u, k1p = p, 0.5 * dF(u)
        k2u, k2p = p + 0.5 * dx * k1p, 0.5 * dF(u + 0.5 * dx * k1u)
        k3u, k3p = p + 0.5 * dx * k2p, 0.5 * dF(u + 0.5 * dx * k2u)
        k4u, k4p = p + dx * k3p, 0.5 * dF(u + dx * k3u)
        u += dx * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        p += dx * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        x += dx
        if not (math.isfinite(u) and math.isfinite(p)) or u > 1.5 * M or u < -0.5 * M:
            raise ProfileBlowup(f"profile left the admissible range at x={x:.3g}")
        if u <= floor or p >= 0.0:
            break
        xs.append(x)
        us.append(u)
        ps.append(p)
    return np.array(xs), np.array(us), np.array(ps)


def make_smooth_tw(spec: TravelingWaveSpec, grid: GridSpec) -> LagrangianState:
    """Smooth decaying traveling wave (gamma < 1, c = M), relabeled."""
    if spec.kind != "smooth":
        raise ValueError(f"expected a smooth wave spec, got kind={spec.kind!r}")
    M = spec.M_resolved
    dx = grid.dxi / 32.0
    xs, us, ps = integrate_smooth_profile(
        spec.gamma, spec.c, M, dx, x_max=grid.r + grid.dxi
    )
    s = grid.cells - spec.x0
    d = np.abs(s)
    U = np.interp(d, xs, us, right=0.0)
    uxd = np.interp(d, xs, ps, right=0.0)  # profile slope, <= 0
    w_left = np.where(s > 0, uxd, -uxd)
    w_right = np.where(s < 0, -uxd, uxd)
    return _relabeled_state(U, w_left, w_right, grid, spec.gamma)


# ---------------------------------------------------------------------------
# Cuspon (gamma > 1): smooth Lagrangian parameterization of a cusped curve
# ---------------------------------------------------------------------------


class _CusponCurves:
    """Closed-form pieces of the cuspon parameterization for xi >= 0.

    The crest is reparameterized as U = c/gamma - xi^2 so that the
    Lagrangian fields stay smooth even though u_x blows up at the crest;
    past the blend window [a, b] the profile follows the exponential tail
    (c/gamma) exp(-sqrt(M/c) xi), which keeps y - xi bounded.
    """

    def __init__(self, gamma: float, c: float, M: float, a: float, b: float):
        self.gamma, self.c, self.M = gamma, c, M
        self.a, self.b = a, b
        self.crest = c / gamma
        self.k_tail = math.sqrt(M / c)
        if not 0.0 < a < b < math.sqrt(self.crest):
            raise NonMonotoneConstruction(
                f"blend interval ({a}, {b}) must satisfy 0 < a < b < sqrt(c/gamma)"
            )

    def chi1(self, xi):
        return np.clip((self.b - xi) / (self.b - self.a), 0.0, 1.0)

    def U(self, xi):
        xi = np.asarray(xi, dtype=float)
        c1 = self.chi1(xi)
        return c1 * (self.crest - xi * xi) + (1.0 - c1) * self.crest * np.exp(
            -self.k_tail * xi
        )

    def U_xi(self, xi):
        xi = np.asarray(xi, dtype=float)
        c1 = self.chi1(xi)
        tail = self.crest * np.exp(-self.k_tail * xi)
        inner = self.crest - xi * xi
        # d(chi1)/dxi = -1/(b-a) inside the blend window, 0 outside
        dchi = np.where((xi > self.a) & (xi < self.b), -1.0 / (self.b - self.a), 0.0)
        return dchi * (inner - tail) + c1 * (-2.0 * xi) + (1.0 - c1) * (
            -self.k_tail
        ) * tail

    def F(self, u):
        return (self.M - u) * u * u / (self.c - self.gamma * u)

    def y_xi(self, xi):
        """dy/dxi = -U_xi / sqrt(F(U)); reduces to an explicit polynomial
        form near the crest where F(U) diverges."""
        xi = np.asarray(xi, dtype=float)
        u = self.U(xi)
        near = xi < self.a
        out = np.empty_like(xi)
        # crest region: c - gamma*U = gamma*xi^2 exactly
        un = u[near]
        out[near] = (
            2.0 * math.sqrt(self.gamma) * xi[near] ** 2 / (un * np.sqrt(self.M - un))
        )
        uf = u[~near]
        out[~near] = -self.U_xi(xi[~near]) / np.sqrt(self.F(uf))
        return out

    def h(self, xi):
        """Energy density U^2 y_xi + U_xi^2 / y_xi, with the finite crest
        limit 2c/gamma^2 * sqrt(M*gamma - c) at xi = 0."""
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        at_crest = xi == 0.0
        out[at_crest] = (
            2.0 * self.c / self.gamma**2 * math.sqrt(self.M * self.gamma - self.c)
        )
        xo = xi[~at_crest]
        u = self.U(xo)
        uxi = self.U_xi(xo)
        yxi = self.y_xi(xo)
        out[~at_crest] = u * u * yxi + uxi * uxi / yxi
        return out

    def y_offset(self, u: float) -> float:
        """Position of the point with height u: integral of dz/sqrt(F(z))
        from u up to the crest value, in closed form.

        With s = sqrt((c - gamma u)/(M - u)) and s0 = sqrt(c/M) the integral
        is 2 s0 atanh(s/s0) - 2 sqrt(gamma) atanh(s/sqrt(gamma)).  The first
        term is written through gap = 1 - s/s0, expanded so that it keeps
        full relative accuracy as u -> 0 (s -> s0).  Towards the crest the
        two terms cancel to O(s^3); the error stays ~1e-16 in absolute terms.
        """
        if u >= self.crest:
            return 0.0
        gamma, c, M = self.gamma, self.c, self.M
        s0 = math.sqrt(c / M)
        s = math.sqrt((c - gamma * u) / (M - u))
        gap = u * (M * gamma - c) / (M * (M - u) * s0 * (s0 + s))
        return s0 * math.log((2.0 - gap) / gap) - 2.0 * math.sqrt(gamma) * math.atanh(
            s / math.sqrt(gamma)
        )

    def scan_monotone(self, r: float, n: int = 4001):
        """Verify U is nonincreasing (hence y nondecreasing) on [0, r]."""
        xs = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, r, n),
                    np.linspace(self.a, self.b, n // 2),
                ]
            )
        )
        slopes = self.U_xi(xs[1:])
        bad = np.nonzero(slopes > 1e-12)[0]
        if bad.size:
            raise NonMonotoneConstruction(
                f"y_xi < 0 near xi = {xs[1:][bad[0]]:.4g}; adjust the blend interval"
            )


def make_cuspon(spec: TravelingWaveSpec, grid: GridSpec) -> LagrangianState:
    """Cusped traveling wave (gamma > 1, c = M) with crest height c/gamma.

    The arrays are sampled for xi >= 0 and extended by parity (U, q, h even;
    y - x0, w odd).  q comes from the analytic y_xi formula, never from
    differencing.
    """
    if spec.kind != "cuspon":
        raise ValueError(f"expected a cuspon spec, got kind={spec.kind!r}")
    a, b = spec.blend_resolved
    curves = _CusponCurves(spec.gamma, spec.c, spec.M_resolved, a, b)
    curves.scan_monotone(grid.r)

    xi = grid.cells
    d = np.abs(xi)
    sgn = np.sign(xi)
    U = curves.U(d)
    w = sgn * curves.U_xi(d)
    q = curves.y_xi(d)
    h = curves.h(d)

    uniq, inverse = np.unique(d, return_inverse=True)
    y_half = np.array([curves.y_offset(curves.U(np.array([dd]))[0]) for dd in uniq])
    y = sgn * y_half[inverse] + spec.x0
    y_edge = curves.y_offset(curves.U(np.array([grid.r]))[0])

    H, H_plus = _exclusive_cumsum_scaled(h, grid.dxi)
    return LagrangianState.zero(grid, Parameters(spec.gamma)).replace(
        zeta=y - xi,
        U=U,
        H=H,
        v=q - 1.0,
        w=w,
        h=h,
        zeta_minus=spec.x0 + grid.r - y_edge,
        zeta_plus=spec.x0 - grid.r + y_edge,
        H_plus=H_plus,
    )


def make_gaussian_derivative(
    grid: GridSpec, gamma: float, fine: FineGrid = FineGrid()
) -> LagrangianState:
    """Colliding smooth waves: u0(x) = -x exp(-x^2/2), generic pipeline."""
    profile = EulerianProfile(
        u=lambda x: -x * np.exp(-0.5 * x * x),
        ux=lambda x: (x * x - 1.0) * np.exp(-0.5 * x * x),
        support_radius=9.0,
    )
    data = eulerian_to_lagrangian(profile, fine, grid)
    return project_to_grid(data, grid, Parameters(gamma))


def build_from_spec(
    spec: TravelingWaveSpec, grid: GridSpec, fine: FineGrid = FineGrid()
) -> LagrangianState:
    """Dispatch a TravelingWaveSpec to the matching constructor."""
    if spec.kind == "smooth":
        return make_smooth_tw(spec, grid)
    if spec.kind == "peakon":
        return make_peakon(spec.c, spec.x0, grid, gamma=spec.gamma)
    if spec.kind == "cuspon":
        return make_cuspon(spec, grid)
    if spec.kind == "peakon_antipeakon":
        peaks = [(spec.c, spec.x0), (-spec.c, spec.x0 + spec.separation)]
        return make_peakon_pair(peaks, grid, gamma=spec.gamma)
    if spec.kind == "gaussian_derivative":
        return make_gaussian_derivative(grid, spec.gamma, fine)
    raise ValueError(f"unknown wave kind {spec.kind!r}")
