"""Constructors for admissible discrete Lagrangian initial states.

Each kind of initial data is an entry of ``KINDS``, which names the keys
its config section holds besides ``kind``: smooth and peakon read c and x0,
cuspon also blend, peakon_antipeakon also separation, gaussian_derivative
none, and profile_file the path of a two-column ``x u`` text file.
``build_from_spec`` builds every kind, by one of two routes from an
Eulerian velocity profile u0:

* the generic pipeline: tabulate the cumulative energy E, take y on a fine
  sub-grid as the exact inverse of the tabulated map y -> y + E(y) = xi,
  then project to the solver grid by cell averaging.  The projected data
  satisfies q + h = 1 per cell exactly and q*h >= U^2 q^2 + w^2
  (Jensen/Cauchy-Schwarz direction), so the positivity guarantees of the
  splitting schemes apply.

* direct relabeling: keep y = xi, q = 1 and set h = U^2 + w^2.  Cheaper and
  exact on the nose (per-cell invariant identically zero); used for the
  peakons and the smooth wave.

Both routes land in the admissible set; they differ by a relabeling and
reconstruct the same Eulerian graph.

The smooth wave and the cuspon solve u'^2 = F(u), and ``travel_distance``
gives the distance from the crest to height u in closed form: the smooth
wave inverts it for U cell by cell (``smooth_profile``, which is also the
wave's closed form at any time), and the cuspon, whose U is a closed-form
function of xi, evaluates it for y.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonMonotoneConstruction
from .state import GridSpec, LagrangianState, Parameters

# The spec fields each kind of initial data reads, besides kind and gamma.
KINDS = {
    "smooth": ("c", "x0"),
    "peakon": ("c", "x0"),
    "cuspon": ("c", "x0", "blend"),
    "peakon_antipeakon": ("c", "x0", "separation"),
    "gaussian_derivative": (),
    "profile_file": ("path",),
}


@dataclass(frozen=True)
class TravelingWaveSpec:
    """Parameters of the initial data of any kind in ``KINDS``.

    A kind reads only the fields ``KINDS`` names for it.  The traveling
    waves move at speed c and decay to 0: smooth crests (height c) exist for
    gamma < 1, peakons at gamma = 1 and cusped crests (height c/gamma) for
    gamma > 1.  ``blend`` is the cuspon partition interval [a, b] over which
    the parabolic crest parameterization is faded into the exponential
    tail.  ``path`` names the profile_file's two-column ``x u`` text file.
    """

    kind: str
    gamma: float
    c: float = 1.0
    x0: float = 0.0
    blend: tuple[float, float] | None = None
    separation: float = 1.0  # peakon_antipeakon: distance to the antipeakon
    path: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown initial_data kind {self.kind!r}; choose from {tuple(KINDS)}")
        if self.kind == "smooth":
            if not (self.gamma < 1.0 and self.c > 0):
                raise ValueError("smooth traveling wave requires gamma < 1 and c > 0")
        elif self.kind == "peakon":
            if self.gamma != 1.0:
                raise ValueError("peakon traveling wave requires gamma = 1")
        elif self.kind == "cuspon":
            if not (self.gamma > 1.0 and self.c > 0):
                raise ValueError("cuspon traveling wave requires gamma > 1 and c > 0")
        elif self.kind == "profile_file" and not os.path.isfile(self.path):
            raise ValueError(f"profile file not found: {self.path!r}")

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
    def from_file(cls, path) -> "EulerianProfile":
        """Two-column numeric text ``x u``.

        The first line is a header (ignored); ``#`` lines are comments;
        columns are separated by whitespace or commas.  Every x and u must
        be finite, and no x may be listed twice.  Values are linearly
        interpolated and zero outside the samples; the derivative comes
        from central differences.
        """
        rows = []
        with open(path) as fh:
            for k, line in enumerate(fh):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.replace(",", " ").split()
                try:
                    row = (float(parts[0]), float(parts[1]))
                except (ValueError, IndexError):
                    if k == 0:
                        continue  # header line
                    raise ValueError(f"{path}: cannot parse line {k + 1}: {line!r}")
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"{path}: line {k + 1} is not finite: {line!r}")
                rows.append(row)
        if len(rows) < 3:
            raise ValueError(f"{path}: fewer than 3 data rows")
        arr = np.array(rows)
        order = np.argsort(arr[:, 0])
        x, u = arr[order, 0], arr[order, 1]
        repeated = x[1:][x[1:] == x[:-1]]
        if repeated.size:
            raise ValueError(f"{path}: x = {float(repeated[0])!r} is listed more than once")
        ux = np.gradient(u, x)
        return cls(
            u=lambda xx: np.interp(xx, x, u, left=0.0, right=0.0),
            ux=lambda xx: np.interp(xx, x, ux, left=0.0, right=0.0),
            support_radius=float(np.max(np.abs(x))),
        )


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
    profile: EulerianProfile, grid: GridSpec, m_ref: int = 16
) -> FineLagrangianData:
    """Invert y + E(y) = xi on the fine nodes, ``m_ref`` per cell of ``grid``.

    E is the cumulative energy from a trapezoid table on a dense x-grid,
    linearly interpolated, 0 left of the table and E_tot right of it.  y is
    the exact inverse of that tabulated map, which needs the labels
    x_tab + E_tab to be increasing (they are: e >= 0).  Past either end of
    the table y = xi (left) or y = xi - E_tot (right), on any grid radius.
    The returned fields satisfy q + h = 1 and q*h = q^2 U^2 + w^2 at machine
    precision on every node: q is computed as 1/(1 + e(y)) from the same
    evaluations of u, u_x that feed U and w.
    """
    if m_ref < 1:
        raise ValueError(f"m_ref must be >= 1, got {m_ref}")
    n_nodes = grid.n_cells * m_ref + 1
    xi = np.linspace(-grid.r, grid.r, n_nodes)

    span = max(profile.support_radius, 1.0)
    dx = min(1e-3, grid.dxi / (2 * m_ref))
    n_x = min(4_000_001, int(math.ceil(2 * span / dx)) + 1)
    x_tab = np.linspace(-span, span, n_x)
    e_tab = profile.u(x_tab) ** 2 + profile.ux(x_tab) ** 2
    # cumulative trapezoid rule, in the operation order of scipy's
    # cumulative_trapezoid, so the table matches it bit for bit
    E_tab = np.concatenate(
        ([0.0], np.cumsum(np.diff(x_tab) * (e_tab[1:] + e_tab[:-1]) / 2.0))
    )
    # H = E(y) is piecewise linear in xi = y + E(y), with nodes x_tab + E_tab
    H = np.interp(xi, x_tab + E_tab, E_tab, left=0.0, right=E_tab[-1])
    y = xi - H

    u_y = profile.u(y)
    ux_y = profile.ux(y)
    e_y = u_y * u_y + ux_y * ux_y
    q = 1.0 / (1.0 + e_y)
    h = 1.0 - q
    w = ux_y * q
    return FineLagrangianData(
        xi=xi, y=y, U=u_y, H=H, q=q, w=w, h=h, m_ref=m_ref, grid=grid
    )


def _exclusive_cumsum_scaled(h: np.ndarray, dxi: float) -> tuple[np.ndarray, float]:
    cs = np.cumsum(h)
    H = dxi * np.concatenate(([0.0], cs[:-1]))
    return H, float(dxi * cs[-1])


def project_to_grid(fine: FineLagrangianData, params: Parameters) -> LagrangianState:
    """Cell-average the fine data onto the solver grid it was sampled for,
    ``fine.grid``.

    Per cell: v, w, h are trapezoid averages, U is the q^2-weighted average
    of U (cells with vanishing q^2 mass get U = 0), H is the running energy
    sum and y = xi - H.  Averaging preserves q + h = 1 exactly and turns the
    fine-node equality q*h = q^2 U^2 + w^2 into the >= inequality.
    """
    grid, m = fine.grid, fine.m_ref
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


def make_peakon_pair(
    peaks: list[tuple[float, float]], grid: GridSpec, gamma: float = 1.0
) -> LagrangianState:
    """Superposed peakons sum c_k exp(-|x - x_k|), relabeled construction;
    ``[(c, x0)]`` gives a single peakon.

    A single peakon has h = 2 U^2 on every cell, the crest included; a
    crest sitting on a grid node gets w = 0 (mean of the one-sided limits)."""
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


def travel_distance(u, gamma: float, c: float) -> np.ndarray:
    """Distance from the crest to height u on the traveling wave of speed c,
    x(u) = integral of dz/sqrt(F(z)) from u up to the crest, for
    F(z) = z^2 (c - z) / (c - gamma z); vectorized over 0 < u <= crest.

    The crest is c for gamma < 1 and c/gamma for gamma > 1 (gamma != 1).
    r = sqrt(min(c - u, c - gamma u) / max(c - u, c - gamma u)) runs from 0
    at the crest, where x is exactly 0, to 1 at u = 0, where x = inf:
        x = 2 atanh(r) - 2 sqrt(gamma) atanh(r sqrt(min(gamma, 1/gamma)))  (gamma > 0)
        x = 2 atanh(r) + 2 sqrt(-gamma) atan(r sqrt(-gamma))               (gamma <= 0)
    2 atanh(r) is computed from 1 - r = |gamma - 1| u / (max * (1 + r)), which
    keeps full relative accuracy as u -> 0.  At gamma = 0, u = c sech^2(x/2).
    """
    u = np.asarray(u, dtype=float)
    near, far = np.minimum(c - u, c - gamma * u), np.maximum(c - u, c - gamma * u)
    r = np.sqrt(np.maximum(near, 0.0) / far)  # c - gamma fl(c/gamma) may round below 0
    g = abs(gamma - 1.0) * u / (far * (1.0 + r))  # 1 - r
    with np.errstate(divide="ignore"):  # u = 0 lies infinitely far out
        x = np.log1p(2.0 * r / g)
    if gamma > 0:
        return x - 2.0 * math.sqrt(gamma) * np.arctanh(r * math.sqrt(min(gamma, 1.0 / gamma)))
    return x + 2.0 * math.sqrt(-gamma) * np.arctan(r * math.sqrt(-gamma))


def smooth_profile(x, gamma: float, c: float) -> np.ndarray:
    """The smooth traveling wave of speed c (gamma < 1) at signed distance
    x from its crest: the u that solves travel_distance(u) = |x|, by a
    fixed-count bisection in log(u/c), to the last bit; x = 0 gives c.  The
    wave at time t of one whose crest starts at x0 is
    smooth_profile(x - x0 - c t)."""
    d = np.abs(np.asarray(x, dtype=float))
    # gamma < 1 makes the integrand >= 1/z, so travel_distance(c e^-d) >= d
    lo = -d - 1.0
    hi = np.zeros_like(d)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        too_far = travel_distance(c * np.exp(mid), gamma, c) > d
        lo = np.where(too_far, mid, lo)
        hi = np.where(too_far, hi, mid)
    return c * np.exp(hi)


def make_smooth_tw(spec: TravelingWaveSpec, grid: GridSpec) -> LagrangianState:
    """Smooth decaying traveling wave (gamma < 1), relabeled.

    Each cell's U is ``smooth_profile(xi - x0)``; a crest cell holds U = c.
    w = -sqrt(F(U)) right of the crest and +sqrt(F(U)) left of it, so
    h = U^2 + w^2 and every per-cell invariant is 0.
    """
    s = grid.cells - spec.x0
    U = smooth_profile(s, spec.gamma, spec.c)
    w = -np.sign(s) * U * np.sqrt((spec.c - U) / (spec.c - spec.gamma * U))
    return _relabeled_state(U, w, w, grid, spec.gamma)


# ---------------------------------------------------------------------------
# Cuspon (gamma > 1): smooth Lagrangian parameterization of a cusped curve
# ---------------------------------------------------------------------------


class _CusponCurves:
    """Closed-form pieces of the cuspon parameterization for xi >= 0.

    The crest is reparameterized as U = c/gamma - xi^2 so that the
    Lagrangian fields stay smooth even though u_x blows up at the crest;
    past the blend window [a, b] the profile follows the exponential tail
    (c/gamma) exp(-xi), which keeps y - xi bounded.
    """

    def __init__(self, gamma: float, c: float, a: float, b: float):
        self.gamma, self.c = gamma, c
        self.a, self.b = a, b
        self.crest = c / gamma
        if not 0.0 < a < b < math.sqrt(self.crest):
            raise NonMonotoneConstruction(
                f"blend interval ({a}, {b}) must satisfy 0 < a < b < sqrt(c/gamma)"
            )

    def chi1(self, xi):
        return np.clip((self.b - xi) / (self.b - self.a), 0.0, 1.0)

    def U(self, xi):
        xi = np.asarray(xi, dtype=float)
        c1 = self.chi1(xi)
        return c1 * (self.crest - xi * xi) + (1.0 - c1) * self.crest * np.exp(-xi)

    def U_xi(self, xi):
        xi = np.asarray(xi, dtype=float)
        c1 = self.chi1(xi)
        tail = self.crest * np.exp(-xi)
        inner = self.crest - xi * xi
        # d(chi1)/dxi = -1/(b-a) inside the blend window, 0 outside
        dchi = np.where((xi > self.a) & (xi < self.b), -1.0 / (self.b - self.a), 0.0)
        return dchi * (inner - tail) + c1 * (-2.0 * xi) - (1.0 - c1) * tail

    def F(self, u):
        return (self.c - u) * u * u / (self.c - self.gamma * u)

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
            2.0 * math.sqrt(self.gamma) * xi[near] ** 2 / (un * np.sqrt(self.c - un))
        )
        uf = u[~near]
        out[~near] = -self.U_xi(xi[~near]) / np.sqrt(self.F(uf))
        return out

    def h(self, xi):
        """Energy density U^2 y_xi + U_xi^2 / y_xi, with the finite crest
        limit 2c/gamma^2 * sqrt(c*gamma - c) at xi = 0."""
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        at_crest = xi == 0.0
        out[at_crest] = (
            2.0 * self.c / self.gamma**2 * math.sqrt(self.c * self.gamma - self.c)
        )
        xo = xi[~at_crest]
        u = self.U(xo)
        uxi = self.U_xi(xo)
        yxi = self.y_xi(xo)
        out[~at_crest] = u * u * yxi + uxi * uxi / yxi
        return out

    def scan_monotone(self, r: float):
        """Verify U is nonincreasing (hence y nondecreasing) on [0, r]."""
        xs = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, r, 4001),
                    np.linspace(self.a, self.b, 2000),
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
    """Cusped traveling wave (gamma > 1) with crest height c/gamma.

    The arrays are sampled for xi >= 0 and extended by parity (U, q, h even;
    y - x0, w odd); there y - x0 = travel_distance(U), and q comes from the
    analytic y_xi formula, never from differencing.
    """
    a, b = spec.blend_resolved
    curves = _CusponCurves(spec.gamma, spec.c, a, b)
    curves.scan_monotone(grid.r)

    xi = grid.cells
    d = np.abs(xi)
    sgn = np.sign(xi)
    U = curves.U(d)
    w = sgn * curves.U_xi(d)
    q = curves.y_xi(d)
    h = curves.h(d)

    y = sgn * travel_distance(U, spec.gamma, spec.c) + spec.x0
    y_edge = float(travel_distance(curves.U(grid.r), spec.gamma, spec.c))

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


def _projected(profile, grid: GridSpec, gamma: float) -> LagrangianState:
    """The generic pipeline: invert on the fine grid, then cell-average."""
    return project_to_grid(eulerian_to_lagrangian(profile, grid), Parameters(gamma))


def make_gaussian_derivative(grid: GridSpec, gamma: float) -> LagrangianState:
    """Colliding smooth waves: u0(x) = -x exp(-x^2/2), generic pipeline."""
    profile = EulerianProfile(
        u=lambda x: -x * np.exp(-0.5 * x * x),
        ux=lambda x: (x * x - 1.0) * np.exp(-0.5 * x * x),
        support_radius=9.0,
    )
    return _projected(profile, grid, gamma)


def build_from_spec(spec: TravelingWaveSpec, grid: GridSpec) -> LagrangianState:
    """Build the initial state of a spec of any kind in ``KINDS``."""
    if spec.kind == "smooth":
        return make_smooth_tw(spec, grid)
    if spec.kind == "peakon":
        return make_peakon_pair([(spec.c, spec.x0)], grid, gamma=spec.gamma)
    if spec.kind == "cuspon":
        return make_cuspon(spec, grid)
    if spec.kind == "peakon_antipeakon":
        peaks = [(spec.c, spec.x0), (-spec.c, spec.x0 + spec.separation)]
        return make_peakon_pair(peaks, grid, gamma=spec.gamma)
    if spec.kind == "gaussian_derivative":
        return make_gaussian_derivative(grid, spec.gamma)
    return _projected(EulerianProfile.from_file(spec.path), grid, spec.gamma)
