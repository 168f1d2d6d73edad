"""Time integrators for the semi-discrete Lagrangian system.

The workhorse schemes compose implicit-midpoint solves of the two sub-flows:

    lie_trotter    Phi2_dt o Phi1_dt                 (order 1)
    strang         Phi1_{dt/2} o Phi2_dt o Phi1_{dt/2}   (order 2, symmetric)

The midpoint rule satisfies b_i a_ij + b_j a_ji = b_i b_j, so each substep
conserves the per-cell quadratic invariants exactly; P and Q are recomputed
at every midpoint iterate (no lagging).  One fixed-point loop serves both
sub-flows.  It iterates on the rows the sub-flow moves (g1: v, w, h; g2:
zeta, U, H, h).  Terms built from frozen rows alone are built once per
substep; under g1 that includes the kernel's y-dependent factors, since g1
freezes zeta and so y is the same bit for bit.

Each iterate evaluates the kernel terms once, at the midpoint iterate, and
takes first the rate of one moving row: w under g1, which for the
iterate's P solves the midpoint system, linear in each cell, in closed
form; U under g2, whose rate is -Q.  The other moving rows read that row
at its updated midpoint, x0 + dt/2 * rate, not at the previous iterate's
(a Gauss-Seidel ordering; Hairer, Lubich & Wanner, Geometric Numerical
Integration, VIII.6).  The fixed point is the midpoint rule's.  So every
iterate of either sub-flow, converged or not, conserves each I_i to
roundoff, and the tolerance ``fp_tol`` bounds accuracy alone: the loop
stops when the change between successive iterates, relative to each
moving row's size, is at most ``fp_tol``.  That rule is scale-free, as the
equation is under u -> c u, t -> t/c.  Conserving I_i does not keep a cell
on the admissible side of the cone I_i <= 0: where dt is large against the
cell's rate, g1's midpoint map flips it onto q < 0 and h < 0, and a g1
substep then raises ``PositivityLost`` (see ``_g1``).  An explicit Euler
step and an embedded Dormand-Prince 4(5) pair are provided as
non-conservative comparators.

The two splitting schemes are plans, tuples of (sub-flow, fraction of dt),
stepped by one function.

Every scheme has the same interface,
``step_<scheme>(state, cfg, dt=None) -> (state, StepReport)``, advancing by
``dt`` (default cfg.dt); ``evolve`` drives any of them.  One rule,
``StepReport.merge``, folds substeps into a step and steps into a run, so a
run's report is no larger than a step's; ``evolve`` alone measures the
invariant drift, into each step's report.  ``converge``'s dt sweep, and
``compare`` on a kind of initial data with no closed form, measure against
``richardson_reference``: Strang runs at steps h and h/2, built as two jobs
by ``reference_runs``, extrapolated to order 4 (``richardson_extrapolate``).
It is their reference only, not a scheme, and it measures the error in
time alone.  On a kind with a closed form, compare measures against that
instead (``observables.exact_error``) and runs no reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import G1_ROWS, G2_ROWS, vector_field_full
from .errors import FixedPointDiverged, PositivityLost, StepSizeUnderflow
# g2, Euler and DP45 call source_terms.source_terms_fast, looked up on the
# module at each call rather than bound here: perfbench's kernel sampler and
# its source_terms.fast span replace that module attribute, and the
# benchmark fails a run in which the sampler sees no call.
from . import source_terms
from .source_terms import integrand, integrand_u, is_folded, kernel_factors, kernel_sums
# distance_f is no longer called here (the midpoint residual is the
# relative change of _relative_change), but perfbench's tracer reports
# calls to it by this module's name.
from .state import LagrangianState, distance_f, invariants  # noqa: F401

SCHEMES = ("lie_trotter", "strang", "explicit_euler", "adaptive_rk")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    scheme: str = "strang"
    fp_tol: float = 1e-8           # bound on the relative change of successive iterates
    fp_max_iter: int = 50
    rk_rel_tol: float = 1e-6
    rk_abs_tol: float = 1e-9

    def __post_init__(self):
        for name in ("dt", "fp_tol", "rk_rel_tol", "rk_abs_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.fp_max_iter < 1:
            raise ValueError("fp_max_iter must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


@dataclass
class StepReport:
    """Bookkeeping for one substep, step, adaptive segment or run.

    ``fp_iterations`` is the histogram {iterations: midpoint substeps}, a
    substep's {m: 1}.  ``final_residual`` is the largest, over the midpoint
    substeps, of the last iterate's change relative to the size of each
    moving row (see ``midpoint_substep``); 0 for the explicit schemes.
    ``min_q`` and ``min_h`` are the minima of q and h over the accepted
    states, and ``folded`` counts those whose y is folded (``is_folded``):
    a fixed step's end state, each accepted internal state of an adaptive
    segment, and a run's start state; not the iterates that led to them.
    ``max_inv_drift`` is the largest max_i |I_i - I_i(0)| (``invariants``)
    over t=0 and the end state of each step of ``evolve``, which sets it;
    unlike the minima, it does not cover the internal states of an
    adaptive step.
    """

    fp_iterations: dict[int, int] = field(default_factory=dict)
    final_residual: float = 0.0
    folded: int = 0
    accepted: int = 0
    rejected: int = 0
    min_q: float = math.inf
    min_h: float = math.inf
    max_inv_drift: float = 0.0

    def merge(self, other: "StepReport") -> "StepReport":
        fp_iterations = dict(self.fp_iterations)
        for m, count in other.fp_iterations.items():
            fp_iterations[m] = fp_iterations.get(m, 0) + count
        return StepReport(
            fp_iterations=fp_iterations,
            final_residual=max(self.final_residual, other.final_residual),
            folded=self.folded + other.folded,
            accepted=self.accepted + other.accepted,
            rejected=self.rejected + other.rejected,
            min_q=min(self.min_q, other.min_q),
            min_h=min(self.min_h, other.min_h),
            max_inv_drift=max(self.max_inv_drift, other.max_inv_drift),
        )


def _ended(state: LagrangianState, report: StepReport) -> tuple[LagrangianState, StepReport]:
    """Record the minima of q and h, and whether y is folded, on one
    accepted state (see ``StepReport``)."""
    report.min_q = float(np.min(state.q))
    report.min_h = float(np.min(state.h))
    report.folded = int(is_folded(state.y))
    return state, report


def _g1(state: LagrangianState, y0: np.ndarray, dt: float):
    """g1 freezes zeta, U and H.  The midpoint of a frozen row is
    0.5*(x + x) == x exactly, so y, the kernel's factors and the U-only
    terms are the same at every iterate and are built once.

    An iterate takes P at the midpoint.  For that P the midpoint system is
    linear in each cell and is solved in closed form: with A = a_u - P and
    B = h_u - 2 P, w's rate is w_t = (c0 + c1 w0) / (1 - dt/2 c1), where
    c0 = g/2 h0 + A q0 and c1 = dt g/2 (B/2 + A); v's and h's rates then
    read w at w's updated midpoint, w0 + dt/2 * w_t.  The U-only and
    start-row parts are built once, as w_t = (n_u - P m_u) / (d_u + e P).
    So every iterate, converged or not, conserves each I_i: a quadratic
    invariant of the linear system, which the midpoint rule keeps.

    The denominator is d_u + e P = 1 - (dt/2)^2 lambda^2, for lambda^2 =
    g ((3 - g) U^2 - 2 P), the square of the linear system's real rate
    where it is positive.  The midpoint rule maps that rate to
    (1 + lambda dt/2) / (1 - lambda dt/2), which is negative once
    dt lambda > 2: there the step keeps I_i but flips (q, w, h) through
    the origin, onto q < 0 and h < 0.  So the returned guard, called once
    on the converged iterate, raises ``PositivityLost`` where the least
    denominator is <= 0.
    """
    g, dxi = state.params.gamma, state.grid.dxi
    U = state.U
    factors = kernel_factors(state.y)
    a_u = integrand_u(g, U)          # (3 - 2g)/2 U^2, in P's integrand and in A
    h_u = 3.0 * U * U
    v0, w0, h0 = y0
    q0 = 1.0 + v0
    half_g, half_dt, g_dt = 0.5 * g, 0.5 * dt, g * dt
    # c1 = s_u - g dt P, with s_u = dt g/2 (h_u/2 + a_u)
    s_u = (half_dt * g) * (0.5 * h_u + a_u)
    n_u = half_g * h0 + a_u * q0 + s_u * w0
    m_u = q0 + g_dt * w0
    d_u = 1.0 - half_dt * s_u
    e = half_dt * g_dt
    out = np.empty((len(G1_ROWS), state.n_cells))
    v_t, w_t, h_t = out
    w_mid = np.empty(state.n_cells)
    den = np.empty(state.n_cells)   # the last iterate's d_u + e P

    def field(mid):
        v, _, h = mid
        P = kernel_sums(factors, integrand(g, a_u, 1.0 + v, h), dxi).P
        # w_t = (n_u - P m_u) / (d_u + e P); then v_t = g w_mid and
        # h_t = (h_u - 2 P) w_mid
        np.multiply(P, m_u, out=w_t)
        np.subtract(n_u, w_t, out=w_t)
        np.multiply(P, e, out=den)
        np.add(den, d_u, out=den)
        np.divide(w_t, den, out=w_t)
        np.multiply(w_t, half_dt, out=w_mid)
        np.add(w_mid, w0, out=w_mid)
        np.multiply(g, w_mid, out=v_t)
        np.multiply(P, 2.0, out=h_t)
        np.subtract(h_u, h_t, out=h_t)
        np.multiply(h_t, w_mid, out=h_t)
        return out

    def guard():
        if den.min() <= 0.0:
            cell = int(np.argmin(den))
            raise PositivityLost(cell, dt, 2.0 * math.sqrt(1.0 - den[cell]))

    return field, guard


def _g2(state: LagrangianState, y0: np.ndarray, dt: float):
    """g2 freezes v and w, so q is built once.  y moves with zeta: each
    iterate evaluates P and Q on a midpoint state of its own.

    U's rate, -Q, reads the kernel terms only; the rates of zeta, H and h
    then read U at U's updated midpoint, U0 + dt/2 * U_t.  So every iterate,
    converged or not, conserves each I_i: (U1^2 - U0^2) q^2 and q (h1 - h0)
    are both -2 dt Q U_mid q^2.
    """
    g, q, v_w = state.params.gamma, state.q, state.x[3:5]
    half_dt, U0 = 0.5 * dt, y0[1]
    out = np.empty((len(G2_ROWS), state.n_cells))
    zeta_t, U_t, H_t, h_t = out
    U_mid = np.empty(state.n_cells)

    def field(mid):
        xm = np.concatenate((mid[:3], v_w, mid[3:]))
        P, Q = source_terms.source_terms_fast(state.with_x(xm))
        # U_t = -Q; then zeta_t = g U_mid, H_t = U_mid^3 - 2 P U_mid and
        # h_t = -2 Q U_mid q, each rounded as ``vector_field_g2`` rounds it
        np.negative(Q, out=U_t)
        np.multiply(U_t, half_dt, out=U_mid)
        np.add(U_mid, U0, out=U_mid)
        np.multiply(g, U_mid, out=zeta_t)
        np.multiply(U_mid, U_mid, out=H_t)
        np.multiply(H_t, U_mid, out=H_t)
        np.multiply(P, 2.0, out=h_t)
        np.multiply(h_t, U_mid, out=h_t)
        np.subtract(H_t, h_t, out=H_t)
        np.multiply(Q, -2.0, out=h_t)
        np.multiply(h_t, U_mid, out=h_t)
        np.multiply(h_t, q, out=h_t)
        return out

    return field, None


# Each sub-flow: the rows it moves, and a function of the substep's state,
# its start rows and dt that builds the frozen terms once and returns the
# field and a guard, a check of the converged iterate or None.  The field
# maps the midpoint of the moving rows to their rates,
# which are Gauss-Seidel ordered: one row's rate comes first from the
# kernel terms (w under g1, U under g2), and the other rows read it at its
# updated midpoint.
_SUB_FLOWS = {"g1": (G1_ROWS, _g1), "g2": (G2_ROWS, _g2)}


def _relative_change(z_next: np.ndarray, z: np.ndarray, y0_size: list) -> float:
    """The largest over the rows of |z_next - z|_inf / max(|y0|_inf,
    |z_next|_inf), given the rows' |y0|_inf; nan or inf when an iterate
    is not finite."""
    moved = np.abs(z_next - z).max(axis=1).tolist()
    sizes = np.abs(z_next).max(axis=1).tolist()
    worst = 0.0
    for m, s0, s in zip(moved, y0_size, sizes):
        size = s0 if s0 > s else s      # nan when z_next is
        # a row of size 0 ends at zero: unmoved, it has converged; moved,
        # it changed by all of its previous iterate
        change = m / size if size else float(m != 0.0)
        if math.isnan(change):
            return change
        worst = max(worst, change)
    return worst


def midpoint_substep(
    state: LagrangianState, dt: float, which: str, cfg: StepperConfig
) -> tuple[LagrangianState, StepReport]:
    """Solve Z = Y + dt*G_k((Z+Y)/2) by fixed-point iteration from Z=Y.

    The iteration runs on the rows the sub-flow moves.  Its residual is the
    change between successive iterates relative to each row's size, the
    largest over those rows (``_relative_change``); it stops once that is
    at most cfg.fp_tol.  Every iterate conserves each I_i, so the bound is
    one of accuracy alone.  The rule is scale-free: a state scaled by
    u -> c u, run at dt/c with c a power of two, takes the same decisions
    and ends at the scaled result bit for bit.  The field is given the
    start rows Y and dt, so that within one iterate the rows after the
    first read the first row's updated midpoint (see ``_SUB_FLOWS``).  The
    substep's state is built at the end; g2 also builds one midpoint state
    per iterate, for its kernel evaluation.  Raises FixedPointDiverged when
    no iterate within cfg.fp_max_iter converges, or at once when one is
    not finite; overflow on the way there raises no warning.  Raises
    PositivityLost when g1's converged iterate would leave the admissible
    set (see ``_g1``).
    """
    rows, make_field = _SUB_FLOWS[which]
    z = y0 = state.x[rows]
    y0_size = np.abs(y0).max(axis=1).tolist()
    # a diverging iterate overflows, and 1/exp(y - r) in the kernel's
    # factors divides by an underflowed zero: FixedPointDiverged says so
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        field, guard = make_field(state, y0, dt)
        for m in range(1, cfg.fp_max_iter + 1):
            rates = field(0.5 * (y0 + z))
            z_next = y0 + dt * rates
            residual = _relative_change(z_next, z, y0_size)
            z = z_next
            if m == 1:
                first = smallest = residual
            smallest = min(smallest, residual)
            if residual <= cfg.fp_tol:
                break
            if not math.isfinite(residual):
                raise FixedPointDiverged(m, residual, first, smallest)
        else:
            raise FixedPointDiverged(cfg.fp_max_iter, residual, first, smallest)
    if guard is not None:
        guard()
    # the frozen rows take the update by dt * 0, as in a whole-state step,
    # where it turns a -0.0 into 0.0 for dt > 0
    x = state.x + dt * 0.0
    x[rows] = z
    return state.with_x(x), StepReport(fp_iterations={m: 1}, final_residual=residual)


# A splitting scheme is a plan: which sub-flow, for which fraction of dt.
LIE_TROTTER = (("g1", 1.0), ("g2", 1.0))
STRANG = (("g1", 0.5), ("g2", 1.0), ("g1", 0.5))


def _step_plan(
    plan, state: LagrangianState, cfg: StepperConfig, dt: float | None
) -> tuple[LagrangianState, StepReport]:
    """Run the substeps of ``plan`` in order, merging their reports."""
    dt = cfg.dt if dt is None else dt
    report = StepReport()
    for which, fraction in plan:
        state, substep = midpoint_substep(state, fraction * dt, which, cfg)
        report = report.merge(substep)
    return _ended(state, report)


def step_lie_trotter(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    return _step_plan(LIE_TROTTER, state, cfg, dt)


def step_strang(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    return _step_plan(STRANG, state, cfg, dt)


def _step_two_halves(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    """Two Strang steps of dt/2: the fine run of ``richardson_reference``,
    whose steps are then the coarse run's halved, a short last step too."""
    dt = cfg.dt if dt is None else dt
    half, r1 = step_strang(state, cfg, dt / 2)
    state, r2 = step_strang(half, cfg, dt / 2)
    return state, r1.merge(r2)


def step_explicit_euler(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    """Forward Euler; does not conserve the invariants (contrast scheme)."""
    dt = cfg.dt if dt is None else dt
    terms = source_terms.source_terms_fast(state)
    new = state.with_x(state.x + dt * vector_field_full(state, terms))
    return _ended(new, StepReport())


# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 4(5) comparator
# ---------------------------------------------------------------------------

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


def step_adaptive_rk(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    """Integrate the full field over ``dt`` with an embedded 4(5) pair.

    Standard PI step-size control on a scaled RMS error norm, starting from
    internal step cfg.dt.  Raises StepSizeUnderflow when the controller
    cannot satisfy the tolerances.
    """
    t_target = cfg.dt if dt is None else dt
    if t_target <= 0:
        return state, StepReport()
    shape = state.x.shape

    def rhs(vec: np.ndarray) -> np.ndarray:
        s = state.with_x(vec.reshape(shape))
        terms = source_terms.source_terms_fast(s)
        return vector_field_full(s, terms).ravel()

    y = state.x.ravel()
    t = 0.0
    h = min(cfg.dt, t_target)
    h_floor = 1e-14 * max(1.0, t_target)
    err_prev = 1.0
    out, report = state, StepReport()
    k = np.empty((7, y.size))

    while t < t_target:
        h = min(h, t_target - t)
        if h < h_floor:
            raise StepSizeUnderflow(
                f"step size {h:.3e} below floor {h_floor:.3e} at t={t:.6g}"
            )
        k[0] = rhs(y)
        for s in range(1, 7):
            k[s] = rhs(y + h * (_DP_A[s] @ k[:s]))
        y_new = y + h * (_DP_B5 @ k)
        err_vec = h * (_DP_E @ k)
        scale = cfg.rk_abs_tol + cfg.rk_rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(over="ignore", invalid="ignore"):
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y_new
            out, ended = _ended(state.with_x(y.reshape(shape)), StepReport(accepted=1))
            report = report.merge(ended)
            # PI controller (order 5): safety * err^-0.14 * err_prev^0.08
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
        else:
            # non-finite estimates shrink hard and retry; a persistent
            # failure ends at the step-size floor above
            report.rejected += 1
            fac = 0.2 if not np.isfinite(err) else max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, fac))

    return out, report


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------

def plan_steps(t_final: float, dt: float) -> tuple[int, float | None]:
    """The steps of a time loop to t_final: ``n_full`` steps of dt, then
    ``last``, one shortened final step, or None when none is needed."""
    if t_final <= 0:
        return 0, None
    n_full = int(math.floor(t_final / dt + 1e-9))
    rem = t_final - n_full * dt
    return n_full, (rem if rem > 1e-9 * max(1.0, t_final) else None)


def evolve(
    state: LagrangianState,
    t_final: float,
    cfg: StepperConfig,
    observers=(),
    observe_stride: int = 1,
    *,
    _step=None,
):
    """Drive the time loop, invoking observers along the way.

    Observers are callables obs(step_index, t, state, report) invoked at
    t=0, after every ``observe_stride``-th step, and at the final step.
    Each gets a StepReport: at t=0 the start state's, ``_ended`` of it;
    after a step that step's, its ``max_inv_drift`` set to
    max_i |I_i - I_i(0)| of the step's end state.  Returns (final state,
    the run's StepReport): the start state's report merged with each
    step's report as it comes.  Fully deterministic for a given
    configuration.

    ``_step`` is private to the package: a step function to drive in place
    of cfg.scheme's, for the reference that is not in ``SCHEMES``.
    """
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if observe_stride < 1:
        raise ValueError(f"observe_stride must be >= 1, got {observe_stride}")
    if callable(observers):
        observers = (observers,)
    _, run = _ended(state, StepReport())
    for obs in observers:
        obs(0, 0.0, state, run)
    # Looked up at call time, so a replaced module-level stepper is used.
    step = _step or globals()[f"step_{cfg.scheme}"]
    I0 = invariants(state)
    n_full, last = plan_steps(t_final, cfg.dt)
    n_steps = n_full + (last is not None)
    t = 0.0
    for j in range(1, n_steps + 1):
        dt_j = cfg.dt if j <= n_full else last
        t += dt_j
        state, report = step(state, cfg, dt_j)
        report.max_inv_drift = float(np.max(np.abs(invariants(state) - I0)))
        run = run.merge(report)
        if j % observe_stride == 0 or j == n_steps:
            for obs in observers:
                obs(j, t, state, report)
    return state, run


def evolve_job(state: LagrangianState, t_final: float, cfg: StepperConfig, *, _step=None):
    """``evolve`` as a job of ``_run_jobs``: the final state's array, all
    of the state that a job sends back, and the run's report."""
    state, report = evolve(state, t_final, cfg, _step=_step)
    return state.x, report


def reference_runs(state: LagrangianState, t_final: float, cfg: StepperConfig) -> list:
    """The two runs of ``richardson_reference`` as zero-argument jobs
    (``evolve_job``), the fine run first: Strang at h = cfg.dt, and each of
    its steps taken as two Strang steps of half its size."""
    return [functools.partial(evolve_job, state, t_final, cfg, _step=_step_two_halves),
            functools.partial(evolve_job, state, t_final, cfg, _step=step_strang)]


def richardson_extrapolate(
    state: LagrangianState, fine_x: np.ndarray, coarse_x: np.ndarray
) -> LagrangianState:
    """(4 fine - coarse) / 3 of the arrays of ``reference_runs``, on the grid
    and boundary constants of their start state.  A job's array may come
    back through a pipe writeable: ``with_x`` makes every state's x
    read-only."""
    return state.with_x((4.0 * fine_x - coarse_x) / 3.0)


def richardson_reference(
    state: LagrangianState, t_final: float, cfg: StepperConfig
) -> LagrangianState:
    """The state at t_final of the order-4 reference of compare and converge.

    Strang with midpoint sub-flows is symmetric, so its global error holds
    even powers of the step h = cfg.dt only, and one Richardson step,
    (4 S(h/2) - S(h)) / 3, cancels the h^2 term (Hairer, Norsett & Wanner,
    Solving ODEs I, II.9).  The fine run halves each of the coarse run's
    steps rather than planning its own, so that the cancellation holds when
    t_final is not a multiple of h.  The result is an extrapolated state,
    not one the flow reaches: its invariants are not conserved.  Here the
    two runs of ``reference_runs`` run in turn, the coarse run first;
    compare and converge hand the same jobs to their lanes.
    """
    fine, coarse = reference_runs(state, t_final, cfg)
    coarse_x, _ = coarse()
    return richardson_extrapolate(state, fine()[0], coarse_x)
