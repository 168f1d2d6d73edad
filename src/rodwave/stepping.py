"""Time integrators for the semi-discrete Lagrangian system.

The workhorse schemes compose implicit-midpoint solves of the two sub-flows:

    lie_trotter    Phi2_dt o Phi1_dt                 (order 1)
    strang         Phi1_{dt/2} o Phi2_dt o Phi1_{dt/2}   (order 2, symmetric)

The midpoint rule satisfies b_i a_ij + b_j a_ji = b_i b_j, so each substep
conserves the per-cell quadratic invariants exactly; the source terms are
recomputed at every midpoint iterate (no lagging), which the conservation
argument requires.  An explicit Euler step and an embedded Dormand-Prince
4(5) pair are provided as non-conservative comparators.

Every scheme has the same interface,
``step_<scheme>(state, cfg, dt=None) -> (state, StepReport)``, advancing by
``dt`` (default cfg.dt); ``evolve`` drives any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import vector_field_full, vector_field_g1, vector_field_g2
from .errors import FixedPointDiverged, StepSizeUnderflow
from .source_terms import evaluate_source_terms
from .state import LagrangianState, distance_f

SCHEMES = ("lie_trotter", "strang", "explicit_euler", "adaptive_rk")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    scheme: str = "strang"
    fp_tol: float = 1e-12          # fixed-point residual tolerance (distance_f)
    fp_max_iter: int = 50
    rk_rel_tol: float = 1e-6
    rk_abs_tol: float = 1e-9

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.fp_tol > 0:
            raise ValueError("fp_tol must be positive")
        if self.fp_max_iter < 1:
            raise ValueError("fp_max_iter must be >= 1")
        if not (self.rk_rel_tol > 0 and self.rk_abs_tol > 0):
            raise ValueError("rk_rel_tol and rk_abs_tol must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


@dataclass
class StepReport:
    """Bookkeeping for one step (or one adaptive segment).

    ``min_q`` and ``min_h`` are the minima of q and h over the states the
    step accepted: the end state of a fixed step, every accepted internal
    state of an adaptive segment.
    """

    fp_iterations: tuple[int, ...] = ()
    final_residual: float = 0.0
    monotonicity_fallback: bool = False
    accepted: int = 0
    rejected: int = 0
    min_q: float = math.inf
    min_h: float = math.inf

    def merge(self, other: "StepReport") -> "StepReport":
        return StepReport(
            fp_iterations=self.fp_iterations + other.fp_iterations,
            final_residual=max(self.final_residual, other.final_residual),
            monotonicity_fallback=self.monotonicity_fallback or other.monotonicity_fallback,
            accepted=self.accepted + other.accepted,
            rejected=self.rejected + other.rejected,
            min_q=min(self.min_q, other.min_q),
            min_h=min(self.min_h, other.min_h),
        )


def _ended(state: LagrangianState, report: StepReport) -> tuple[LagrangianState, StepReport]:
    """Record the minima of q and h on the state a fixed step ends at."""
    report.min_q = float(np.min(state.q))
    report.min_h = float(np.min(state.h))
    return state, report


_FIELDS = {"g1": vector_field_g1, "g2": vector_field_g2}


def midpoint_substep(
    state: LagrangianState, dt: float, which: str, cfg: StepperConfig
) -> tuple[LagrangianState, StepReport]:
    """Solve Z = Y + dt*G_k((Z+Y)/2) by fixed-point iteration from Z=Y.

    The residual is distance_f between successive iterates.  Raises
    FixedPointDiverged when |dt| is too large for the contraction to hold.
    """
    field_fn = _FIELDS[which]
    y = state.x
    z = state
    fallback = False
    residual = math.inf
    for m in range(1, cfg.fp_max_iter + 1):
        mid = state.with_x(0.5 * (y + z.x))
        terms, fb = evaluate_source_terms(mid)
        fallback = fallback or fb
        z_next = state.with_x(y + dt * field_fn(mid, terms))
        residual = distance_f(z_next, z)
        z = z_next
        if residual <= cfg.fp_tol:
            return z, StepReport(
                fp_iterations=(m,),
                final_residual=residual,
                monotonicity_fallback=fallback,
            )
        if not math.isfinite(residual):
            raise FixedPointDiverged(m, residual)
    raise FixedPointDiverged(cfg.fp_max_iter, residual)


def step_lie_trotter(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    dt = cfg.dt if dt is None else dt
    s1, r1 = midpoint_substep(state, dt, "g1", cfg)
    s2, r2 = midpoint_substep(s1, dt, "g2", cfg)
    return _ended(s2, r1.merge(r2))


def step_strang(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    dt = cfg.dt if dt is None else dt
    s1, r1 = midpoint_substep(state, 0.5 * dt, "g1", cfg)
    s2, r2 = midpoint_substep(s1, dt, "g2", cfg)
    s3, r3 = midpoint_substep(s2, 0.5 * dt, "g1", cfg)
    return _ended(s3, r1.merge(r2).merge(r3))


def step_explicit_euler(
    state: LagrangianState, cfg: StepperConfig, dt: float | None = None
) -> tuple[LagrangianState, StepReport]:
    """Forward Euler; does not conserve the invariants (contrast scheme)."""
    dt = cfg.dt if dt is None else dt
    terms, fb = evaluate_source_terms(state)
    new = state.with_x(state.x + dt * vector_field_full(state, terms))
    return _ended(new, StepReport(monotonicity_fallback=fb))


# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 4(5) comparator
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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
    fallback = False

    def rhs(vec: np.ndarray) -> np.ndarray:
        nonlocal fallback
        s = state.with_x(vec.reshape(shape))
        terms, fb = evaluate_source_terms(s)
        fallback = fallback or fb
        return vector_field_full(s, terms).ravel()

    y = state.x.ravel()
    t = 0.0
    h = min(cfg.dt, t_target)
    h_floor = 1e-14 * max(1.0, t_target)
    err_prev = 1.0
    accepted = 0
    rejected = 0
    min_q = min_h = math.inf
    out = state
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
            accepted += 1
            out = state.with_x(y.reshape(shape))
            min_q = min(min_q, float(np.min(out.q)))
            min_h = min(min_h, float(np.min(out.h)))
            # PI controller (order 5): safety * err^-0.14 * err_prev^0.08
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
        else:
            # non-finite estimates shrink hard and retry; a persistent
            # failure ends at the step-size floor above
            rejected += 1
            fac = 0.2 if not np.isfinite(err) else max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, fac))

    return out, StepReport(
        monotonicity_fallback=fallback, accepted=accepted, rejected=rejected,
        min_q=min_q, min_h=min_h,
    )


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------

def plan_steps(t_final: float, dt: float) -> list[float]:
    """Uniform steps of size dt, with one shortened final step if needed."""
    if t_final <= 0:
        return []
    n_full = int(math.floor(t_final / dt + 1e-9))
    steps = [dt] * n_full
    rem = t_final - n_full * dt
    if rem > 1e-9 * max(1.0, t_final):
        steps.append(rem)
    return steps


def evolve(
    state: LagrangianState,
    t_final: float,
    cfg: StepperConfig,
    observers=(),
    observe_stride: int = 1,
):
    """Drive the time loop, invoking observers along the way.

    Observers are callables obs(step_index, t, state, report) invoked at
    t=0 (report None), after every ``observe_stride``-th step, and at the
    final step.  Returns (final state, list of per-step StepReports).
    Fully deterministic for a given configuration.
    """
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if callable(observers):
        observers = (observers,)
    for obs in observers:
        obs(0, 0.0, state, None)
    # Looked up at call time, so a replaced module-level stepper is used.
    step = globals()[f"step_{cfg.scheme}"]
    reports: list[StepReport] = []
    steps = plan_steps(t_final, cfg.dt)
    t = 0.0
    for j, dt_j in enumerate(steps, start=1):
        t += dt_j
        state, report = step(state, cfg, dt_j)
        reports.append(report)
        if j % observe_stride == 0 or j == len(steps):
            for obs in observers:
                obs(j, t, state, report)
    return state, reports
