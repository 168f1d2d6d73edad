import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rodwave as rw
from rodwave import source_terms, stepping
from rodwave.dynamics import G1_ROWS, G2_ROWS
from rodwave.errors import FixedPointDiverged, PositivityLost, StepSizeUnderflow
from rodwave.experiments import build_initial_state, resolve_config
from rodwave.stepping import (
    _step_two_halves, midpoint_substep, plan_steps, richardson_reference,
)

from helpers import (
    admissible, edge_state, midpoint_substep_on_states, random_admissible_state, states_equal,
)


def small_peakon(dxi=0.1, r=15.0, c=1.0):
    return rw.make_peakon_pair([(c, 0.0)], rw.GridSpec.from_radius(dxi, r))


def zero_state():
    return rw.LagrangianState.zero(rw.GridSpec(8, 0.25), rw.Parameters(1.0))


CFG = rw.StepperConfig(dt=0.1)


class TestStepperConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"dt": 0.1, "fp_tol": 0.0},
            {"dt": 0.1, "fp_max_iter": 0},
            {"dt": 0.1, "scheme": "leapfrog"},
            {"dt": 0.1, "rk_rel_tol": 0.0},
            {"dt": 0.1, "rk_abs_tol": -1e-9},
            {"dt": float("inf")},
            {"dt": float("nan")},
            {"dt": 0.1, "fp_tol": float("inf")},
            {"dt": 0.1, "rk_rel_tol": float("nan")},
            {"dt": 0.1, "rk_abs_tol": float("inf")},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            rw.StepperConfig(**kw)


class TestMidpointSubstep:
    def test_zero_state_converges_in_one_iteration(self):
        s = zero_state()
        for which in ("g1", "g2"):
            out, report = midpoint_substep(s, 0.7, which, CFG)
            assert states_equal(out, s)
            assert report.fp_iterations == {1: 1}
            assert report.final_residual == 0.0

    def test_g1_freezes_primary_fields_bitwise(self):
        s = small_peakon()
        out, _ = midpoint_substep(s, 0.1, "g1", CFG)
        assert np.array_equal(out.zeta, s.zeta)
        assert np.array_equal(out.U, s.U)
        assert np.array_equal(out.H, s.H)
        assert not np.array_equal(out.w, s.w)

    def test_g2_freezes_derivative_fields_bitwise(self):
        s = small_peakon()
        out, _ = midpoint_substep(s, 0.1, "g2", CFG)
        assert np.array_equal(out.v, s.v)
        assert np.array_equal(out.w, s.w)
        assert not np.array_equal(out.U, s.U)

    def test_residual_below_tolerance(self):
        s = small_peakon()
        out, report = midpoint_substep(s, 0.2, "g2", CFG)
        assert report.final_residual <= CFG.fp_tol

    def test_iteration_count_decreases_with_dt(self):
        s = small_peakon()
        _, rep_large = midpoint_substep(s, 0.2, "g2", CFG)
        _, rep_small = midpoint_substep(s, 0.05, "g2", CFG)
        (small,), (large,) = rep_small.fp_iterations, rep_large.fp_iterations
        assert small <= large

    @pytest.mark.parametrize("which", ["g1", "g2"])
    @pytest.mark.parametrize("dt", [5.0, 1e3])
    def test_diverges_for_huge_dt(self, which, dt):
        # g2's iterates overflow and g1's do not settle in fp_max_iter;
        # FixedPointDiverged is the only report of either
        s = build_initial_state(resolve_config("peakon_c1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointDiverged) as exc:
                midpoint_substep(s, dt, which, CFG)
        assert exc.value.iterations >= 1

    def test_a_huge_dt_reads_grew(self):
        s = build_initial_state(resolve_config("peakon_c1"))
        with pytest.raises(FixedPointDiverged) as exc:
            midpoint_substep(s, 1e3, "g2", CFG)
        err = exc.value
        assert not math.isfinite(err.residual) or err.residual > err.first_residual
        assert err.grew and "grew" in str(err) and "contracting" not in str(err)
        assert f"{err.first_residual:.3e}" in str(err) and f"{err.residual:.3e}" in str(err)

    def test_too_few_iterations_read_contracting(self):
        cfg = resolve_config("peakon_c1")
        with pytest.raises(FixedPointDiverged) as exc:
            rw.step_strang(build_initial_state(cfg), replace(cfg.stepper, fp_max_iter=2))
        err = exc.value
        assert err.iterations == 2 and 0 < err.residual < err.first_residual
        assert not err.grew and "still contracting" in str(err) and "grew" not in str(err)

    def test_a_wandering_iteration_reads_stalled(self):
        # g1 at a huge dt neither grows nor settles: its residual falls from
        # about 2.0 to about 0.56 and ends near 1.0
        s = build_initial_state(resolve_config("peakon_c1"))
        with pytest.raises(FixedPointDiverged) as exc:
            midpoint_substep(s, 1e3, "g1", CFG)
        err = exc.value
        assert err.smallest_residual < err.residual <= err.first_residual
        assert not err.grew and err.trend == "stalled"
        assert "stalled" in str(err) and "contracting" not in str(err) and "grew" not in str(err)
        assert f"{err.smallest_residual:.3e} at its smallest" in str(err)


def substep_cases():
    """States for the midpoint iteration: random admissible ones, a folded
    one, one whose y spans several kernel blocks, the zero state, and one
    holding -0.0 in U and H (frozen by g1) and in v and w (frozen by g2)."""
    rng = np.random.default_rng(31)
    cases = {}
    for k, (n_half, dxi, gamma) in enumerate(
        [(32, 0.2, 1.0), (64, 0.1, 0.5), (16, 0.3, 2.5), (100, 0.05, -1.0)]
    ):
        grid = rw.GridSpec(n_half, dxi)
        cases[f"random{k}"] = random_admissible_state(rng, grid, gamma)
    s = random_admissible_state(rng, rw.GridSpec(32, 0.2), 1.0)
    zeta = s.zeta.copy()
    zeta[40:44] -= 0.6
    cases["folded"] = s.replace(zeta=zeta)
    wide = random_admissible_state(rng, rw.GridSpec(800, 0.5), 1.0, scale=0.3)
    assert source_terms.kernel_factors(wide.y).down.shape[0] >= 4
    cases["wide"] = wide
    cases["zero"] = zero_state()
    s = random_admissible_state(rng, rw.GridSpec(16, 0.25), 1.0)
    U, H, v, w = s.U.copy(), s.H.copy(), s.v.copy(), s.w.copy()
    U[::4] = -0.0
    H[0] = -0.0
    v[1::4] = -0.0
    w[2::4] = -0.0
    cases["negative_zeros"] = s.replace(U=U, H=H, v=v, w=w)
    return cases


CASES = substep_cases()
DIVERGING_DT = 1e3


def substep_iterations(monkeypatch):
    """(sub-flow, iterations) of each midpoint substep taken from now on, in
    order."""
    substeps = []
    original = stepping.midpoint_substep

    def recorded(state, dt, which, cfg):
        out, report = original(state, dt, which, cfg)
        substeps.append((which, *report.fp_iterations))
        return out, report

    monkeypatch.setattr(stepping, "midpoint_substep", recorded)
    return substeps


def fast_kernel_calls(monkeypatch):
    """The states passed to ``source_terms.source_terms_fast`` from now on,
    in order.  perfbench's kernel sampler and span wrap that module
    attribute the same way, and see only the states passed to it."""
    seen = []
    original = source_terms.source_terms_fast

    def recorded(state):
        seen.append(state)
        return original(state)

    monkeypatch.setattr(source_terms, "source_terms_fast", recorded)
    return seen


def substep_outcome(substep, state, dt, which):
    """The state and the iteration a midpoint substep reports, bit for bit."""
    try:
        out, report = substep(state, dt, which, CFG)
    except FixedPointDiverged as exc:
        return ("diverged", exc.iterations)
    except PositivityLost as exc:
        return ("positivity_lost", exc.cell)
    return (out.x.tobytes(), report.fp_iterations, report.final_residual)


def check_against_whole_states(which, case, dt):
    s = CASES[case]
    with np.errstate(all="ignore"):
        expected = substep_outcome(midpoint_substep_on_states, s, dt, which)
    got = substep_outcome(midpoint_substep, s, dt, which)
    if got[0] == "positivity_lost":
        # the guard refuses a converged iterate, which the whole-state
        # iteration returns: the cell it names has left the admissible set
        v, h = np.frombuffer(expected[0]).reshape(s.x.shape)[[3, 5], got[1]]
        assert min(1.0 + v, h) < 0
    else:
        assert got == expected
    # g1 solves its linear part in closed form and iterates on P alone,
    # which on some cases converges even at DIVERGING_DT (see
    # TestG1Iteration.test_the_diverging_dt_meets_both_outcomes)
    if dt == DIVERGING_DT and case != "zero" and which == "g2":
        assert got[0] == "diverged"


def invariant_terms(state):
    """The size of the terms of each I_i = U^2 q^2 + w^2 - q h."""
    return (state.U * state.q) ** 2 + state.w * state.w + np.abs(state.q * state.h)


def check_every_iterate_conserves(which, case, dt):
    """One field evaluation at a midpoint far from the fixed point keeps
    each I_i, relative to the size of its terms."""
    rows = {"g1": G1_ROWS, "g2": G2_ROWS}[which]
    s = CASES[case]
    y0 = s.x[rows]
    mid = y0 + np.random.default_rng(7).normal(size=y0.shape)
    field, _ = getattr(stepping, f"_{which}")(s, y0, dt)
    rates = field(mid)
    x = s.x.copy()
    x[rows] = y0 + dt * rates
    new = s.with_x(x)
    scale = np.maximum(invariant_terms(s), invariant_terms(new))
    assert np.all(np.abs(rw.invariants(new) - rw.invariants(s)) <= 1e-14 * scale)


RANDOM_CASES = sorted(c for c in CASES if c.startswith("random"))


class TestG1Iteration:
    """The g1 substep iterates on v, w, h with the kernel's factors built
    once, solving for w's rate in closed form at each iterate's P; it must
    be the whole-state iteration bit for bit."""

    @pytest.mark.parametrize("dt", [0.1, -0.17, DIVERGING_DT])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_whole_state_iteration(self, case, dt):
        check_against_whole_states("g1", case, dt)

    def test_the_diverging_dt_meets_both_outcomes(self):
        # the whole-state comparison above meets the diverging path and the
        # converging one at DIVERGING_DT
        diverged = [substep_outcome(midpoint_substep, s, DIVERGING_DT, "g1")[0] == "diverged"
                    for case, s in CASES.items() if case != "zero"]
        assert any(diverged) and not all(diverged)

    @pytest.mark.parametrize("dt", [0.1, -0.17, 1.0])
    @pytest.mark.parametrize("case", RANDOM_CASES)
    def test_every_iterate_conserves_the_invariants(self, case, dt):
        # w's rate solves the midpoint system at the iterate's P, and v and
        # h read w at its updated midpoint, so one field evaluation at any
        # midpoint, converged or not, keeps each I_i
        check_every_iterate_conserves("g1", case, dt)

    @pytest.mark.parametrize("step", [rw.step_strang, rw.step_lie_trotter])
    def test_factors_built_once_per_g1_substep_and_per_g2_iterate(self, monkeypatch, step):
        calls = []
        original = source_terms.kernel_factors

        def counted(y):
            calls.append(y)
            return original(y)

        monkeypatch.setattr(source_terms, "kernel_factors", counted)
        monkeypatch.setattr(stepping, "kernel_factors", counted)
        substeps = substep_iterations(monkeypatch)
        step(small_peakon(), CFG)
        g1 = [m for which, m in substeps if which == "g1"]
        g2 = [m for which, m in substeps if which == "g2"]
        assert len(calls) == len(g1) + sum(g2)
        assert min(g1) > 1


class TestPositivity:
    """Where g1's denominator d_u + e P is <= 0, the midpoint rule flips a
    cell through the origin, onto q < 0 and h < 0, keeping its invariant;
    the guard refuses the converged iterate there (``PositivityLost``)."""

    def test_a_substep_that_flips_a_cell_raises(self):
        s = edge_state(np.random.default_rng(27), rw.GridSpec(16, 0.25), 1.0)
        with pytest.raises(PositivityLost) as info:
            midpoint_substep(s, 1.0, "g1", CFG)
        err = info.value
        assert (err.cell, err.dt) == (15, 1.0) and err.dt_lambda >= 2.0
        assert f"at cell 15: dt*lambda = {err.dt_lambda:.4g} >= 2" in str(err)
        # the same iteration without the guard lands there on the other nappe
        flipped, _ = midpoint_substep_on_states(s, 1.0, "g1", CFG)
        assert flipped.q[15] < 0 and flipped.h[15] < 0
        assert np.abs(rw.invariants(flipped) - rw.invariants(s)).max() <= 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(-1.0, 6.0),
           dt=st.floats(0.01, 1.0), fold=st.sampled_from([0.0, 0.5, 2.0]),
           step=st.sampled_from([rw.step_strang, rw.step_lie_trotter]))
    def test_a_step_raises_or_stays_admissible(self, seed, gamma, dt, fold, step):
        # q = 0 and q near 0 on 30% of the cells, gamma < 0 to past the
        # physical range, and y folded over up to two cells
        rng = np.random.default_rng(seed)
        s = edge_state(rng, rw.GridSpec(int(rng.integers(8, 33)), 0.25), gamma, fold=fold)
        try:
            out, _ = step(s, replace(CFG, dt=dt))
        except (FixedPointDiverged, PositivityLost):
            return
        assert admissible(out, floor=0.0)
        drift = np.abs(rw.invariants(out) - rw.invariants(s))
        assert np.all(drift <= 1e-13 * (1.0 + np.maximum(invariant_terms(s), invariant_terms(out))))


class TestG2Iteration:
    """The g2 substep iterates on zeta, U, H, h with q built once, U's rate
    first, and evaluates P and Q on one midpoint state per iterate; it must
    be the whole-state Gauss-Seidel iteration bit for bit."""

    @pytest.mark.parametrize("dt", [0.1, -0.17, DIVERGING_DT])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_whole_state_iteration(self, case, dt):
        check_against_whole_states("g2", case, dt)

    @pytest.mark.parametrize("step", [rw.step_strang, rw.step_lie_trotter])
    def test_each_g2_iterate_and_no_g1_one_calls_source_terms_fast(self, monkeypatch, step):
        seen = fast_kernel_calls(monkeypatch)
        s = small_peakon()
        substeps = substep_iterations(monkeypatch)
        step(s, CFG)
        [g2] = [m for which, m in substeps if which == "g2"]
        assert len(seen) == g2 > 1
        assert all(isinstance(state, rw.LagrangianState) for state in seen)
        del seen[:]
        _, report = midpoint_substep(s, 0.1, "g1", CFG)
        (g1,) = report.fp_iterations
        assert g1 > 1 and seen == []

    @pytest.mark.parametrize("dt", [0.1, -0.17, 1.0])
    @pytest.mark.parametrize("case", RANDOM_CASES)
    def test_every_iterate_conserves_the_invariants(self, case, dt):
        # U's rate comes first and the other rows read U at its updated
        # midpoint, so one field evaluation at any midpoint, converged or
        # not, keeps each I_i: measured <= 3.3e-16 relative
        check_every_iterate_conserves("g2", case, dt)


class TestComparatorsReachTheKernel:
    """Euler and DP45 evaluate P and Q through the module attribute
    ``source_terms.source_terms_fast``, once per stage."""

    def test_one_call_per_euler_step(self, monkeypatch):
        seen = fast_kernel_calls(monkeypatch)
        s = small_peakon()
        for steps in range(1, 4):
            start = s
            s, _ = rw.step_explicit_euler(s, CFG)
            assert len(seen) == steps and seen[-1] is start

    def test_seven_calls_per_dp45_attempt(self, monkeypatch):
        seen = fast_kernel_calls(monkeypatch)
        # measured: 4 internal steps accepted and 2 rejected over dt = 1
        _, report = rw.step_adaptive_rk(small_peakon(), rw.StepperConfig(dt=1.0))
        assert report.accepted > 1 and report.rejected > 0
        assert len(seen) == 7 * (report.accepted + report.rejected)


class TestSplittingSteps:
    def test_zero_state_stays_zero(self):
        s = zero_state()
        for step in (rw.step_lie_trotter, rw.step_strang):
            out, _ = step(s, CFG)
            assert states_equal(out, s)
        out, report = rw.step_explicit_euler(s, CFG)
        assert states_equal(out, s)
        assert (report.min_q, report.min_h) == (1.0, 0.0)

    def test_one_step_invariant_preservation(self):
        s = small_peakon(dxi=0.05, r=20.0)
        cfg = rw.StepperConfig(dt=0.2)
        I0 = rw.invariants(s)
        for step in (rw.step_lie_trotter, rw.step_strang):
            out, _ = step(s, cfg)
            assert np.abs(rw.invariants(out) - I0).max() <= 1e-11

    def test_lie_trotter_halving_is_second_order(self):
        # one step vs two half-steps differ at O(dt^2)
        s = small_peakon(dxi=0.2, r=10.0)
        diffs = []
        dts = (0.1, 0.05, 0.025)
        for dt in dts:
            cfg = rw.StepperConfig(dt=dt)
            one, _ = rw.step_lie_trotter(s, cfg)
            half, _ = rw.step_lie_trotter(s, cfg, dt=dt / 2)
            two, _ = rw.step_lie_trotter(half, cfg, dt=dt / 2)
            diffs.append(rw.distance_f(one, two))
        slope = rw.convergence_order(zip(dts, diffs))
        assert 1.7 <= slope <= 2.3

    def test_strang_time_symmetry(self):
        # symmetric at the fixed point, which a tight tolerance reaches
        s = small_peakon()
        cfg = rw.StepperConfig(dt=0.2, fp_tol=1e-12)
        forward, _ = rw.step_strang(s, cfg)
        back, _ = rw.step_strang(forward, cfg, dt=-cfg.dt)
        assert rw.distance_f(back, s) <= 1e-10

    def test_invariant_drift_over_fifty_steps(self):
        s = small_peakon(dxi=0.1, r=15.0)
        cfg = rw.StepperConfig(dt=0.1, scheme="strang")
        I0 = rw.invariants(s)
        out, _ = rw.evolve(s, 5.0, cfg)
        assert np.abs(rw.invariants(out) - I0).max() <= 5e-10

    def test_euler_breaks_invariants(self):
        s = small_peakon(dxi=0.05, r=20.0)
        cfg = rw.StepperConfig(dt=0.1, scheme="explicit_euler")
        out, _ = rw.step_explicit_euler(s, cfg)
        drift = np.abs(rw.invariants(out) - rw.invariants(s)).max()
        assert drift > 1e-8

    @pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
    def test_the_fold_flag_is_that_of_the_end_state(self, scheme):
        # the gamma = 5 collision folds y at some steps and not at others
        cfg = resolve_config("peakon_antipeakon_gamma5")
        ends, flags = [], []

        def observe(j, t, s, r):
            ends.append(source_terms.is_folded(s.y))
            flags.append(r and r.folded)

        _, run = rw.evolve(
            build_initial_state(cfg), cfg.t_final, replace(cfg.stepper, scheme=scheme),
            observers=observe)
        assert flags[1:] == ends[1:]
        assert run.folded == sum(ends) and 0 < sum(ends) < len(ends) - 1

    def test_euler_and_lie_trotter_agree_to_first_order(self):
        # both are first-order consistent: difference is O(dt^2)
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.0)
        s = rw.make_smooth_tw(spec, rw.GridSpec.from_radius(0.2, 10.0))
        dts = (0.1, 0.05, 0.025)
        diffs = []
        for dt in dts:
            cfg = rw.StepperConfig(dt=dt)
            lt, _ = rw.step_lie_trotter(s, cfg)
            eu, _ = rw.step_explicit_euler(s, cfg)
            diffs.append(rw.distance_f(lt, eu))
        slope = rw.convergence_order(zip(dts, diffs))
        assert 1.7 <= slope <= 2.3


def scaled(state, c):
    """The state under the equation's scaling u -> c u, t -> t/c: U and w
    times c, H, h and H_plus times c^2; y and q are unchanged."""
    c2 = c * c
    return state.replace(U=c * state.U, w=c * state.w, H=c2 * state.H, h=c2 * state.h,
                         H_plus=c2 * state.H_plus)


class TestStoppingRule:
    """The fixed point stops on the change of successive iterates relative
    to each row's size, and every iterate conserves."""

    @pytest.mark.parametrize("k", [6, 9])
    @pytest.mark.parametrize("name", ["peakon_c1", "smooth_gamma02"])
    def test_a_power_of_two_scaled_run_is_the_scaled_run(self, name, k):
        # every term of the field is homogeneous in c and the stopping rule
        # is scale-free, so for c = 2^k the scaled run is bit for bit the
        # run scaled
        cfg = resolve_config(name)
        s, c = build_initial_state(cfg), 2.0**k
        out, _ = rw.evolve(s, 2.0, cfg.stepper)
        big, _ = rw.evolve(scaled(s, c), 2.0 / c, replace(cfg.stepper, dt=cfg.stepper.dt / c))
        assert states_equal(big, scaled(out, c))

    @pytest.mark.parametrize("name", ["peakon_c1", "cuspon_gamma5"])
    def test_a_loose_tolerance_still_conserves(self, name):
        # measured drift <= 1.7e-13; an absolute 1e-4 drifts 1.2e-3 on peakon_c1
        cfg = resolve_config(name)
        s = build_initial_state(cfg)
        I0 = rw.invariants(s)
        drift = []
        _, run = rw.evolve(
            s, cfg.t_final, replace(cfg.stepper, fp_tol=1e-4),
            observers=lambda j, t, st, r: drift.append(np.abs(rw.invariants(st) - I0).max()))
        assert max(drift) <= 1e-12
        assert run.min_q >= 0 and run.min_h >= 0


class TestRichardsonReference:
    """The order-4 reference compare and converge measure against: Strang
    runs at h and h/2, extrapolated.  The fine run's step, two Strang steps
    of dt/2, is symmetric and conserves the invariants."""

    @staticmethod
    def change_per_halving(t_final):
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.0)
        s = rw.make_smooth_tw(spec, rw.GridSpec.from_radius(0.5, 10.0))
        finals = [richardson_reference(s, t_final, rw.StepperConfig(dt=dt))
                  for dt in (0.4, 0.2, 0.1)]
        coarse, fine = (rw.distance_f(a, b) for a, b in zip(finals, finals[1:]))
        return coarse / fine

    def test_fourth_order_on_smooth_wave(self):
        # the change per halving shrinks like dt^4: measured ratio 15.4
        # (Strang's is ~4)
        assert self.change_per_halving(2.0) >= 12

    def test_fourth_order_when_t_final_is_not_a_multiple_of_dt(self):
        # measured ratio 14.8; a fine run that plans its own steps, and so
        # leaves the short last step whole, gives 3.8
        assert self.change_per_halving(1.93) >= 12

    def test_fine_run_is_strang_at_half_the_step(self):
        # T/h is an integer: the halved steps are the steps of Strang at h/2
        s = small_peakon()
        fine, _ = rw.evolve(s, 1.0, rw.StepperConfig(dt=0.2), _step=_step_two_halves)
        strang, _ = rw.evolve(s, 1.0, rw.StepperConfig(dt=0.1))
        assert states_equal(fine, strang) and fine.x.tobytes() == strang.x.tobytes()

    def test_fine_run_halves_each_coarse_step(self, monkeypatch):
        dts = []
        original = stepping.step_strang

        def recorded(state, cfg, dt=None):
            dts.append(dt)
            return original(state, cfg, dt)

        monkeypatch.setattr(stepping, "step_strang", recorded)
        richardson_reference(small_peakon(), 0.25, rw.StepperConfig(dt=0.1))
        n_full, last = plan_steps(0.25, 0.1)
        steps = [0.1] * n_full + [last]
        assert len(steps) == 3 and steps[-1] < 0.1
        # the coarse run, then two steps of dt_j/2 for each coarse dt_j
        assert dts == steps + [d / 2 for d in steps for _ in range(2)]

    def test_time_symmetry(self):
        # a symmetric composition of symmetric steps, at the fixed point
        s = small_peakon()
        cfg = rw.StepperConfig(dt=0.2, fp_tol=1e-12)
        forward, _ = _step_two_halves(s, cfg)
        back, _ = _step_two_halves(forward, cfg, dt=-cfg.dt)
        assert rw.distance_f(back, s) <= 1e-10

    def test_invariant_drift_through_a_collision(self):
        # the peakon-antipeakon pair collides at t ~ 1.36; measured drift 1.7e-13
        s = rw.make_peakon_pair([(1.0, 0.0), (-1.0, 1.0)], rw.GridSpec.from_radius(0.1, 15.0))
        I0 = rw.invariants(s)
        drift = []
        rw.evolve(s, 2.0, rw.StepperConfig(dt=0.2), _step=_step_two_halves,
                  observers=lambda j, t, st, r: drift.append(np.abs(rw.invariants(st) - I0).max()))
        assert len(drift) == 11 and max(drift) <= 1e-12


class TestAdaptiveRK:
    def test_zero_state(self):
        s = zero_state()
        out, report = rw.step_adaptive_rk(s, CFG, 1.0)
        assert states_equal(out, s)
        assert report.accepted >= 1

    def test_matches_strang_on_smooth_wave(self):
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.0)
        s = rw.make_smooth_tw(spec, rw.GridSpec.from_radius(0.25, 15.0))
        cfg = rw.StepperConfig(dt=0.1)
        strang, _ = rw.evolve(s, 2.0, cfg)
        adaptive, _ = rw.step_adaptive_rk(s, cfg, 2.0)
        # measured baseline ~5.4e-3, dominated by Strang's own O(dt^2) error
        assert rw.distance_f(strang, adaptive) < 2e-2

    def test_report_minima_cover_internal_steps(self):
        # peakon-antipeakon collision: min q falls to ~1e-3 at t ~ 1.45, then recovers
        g = rw.GridSpec.from_radius(0.1, 10.0)
        s = rw.make_peakon_pair([(1.0, 0.0), (-1.0, 1.0)], g, gamma=1.0)
        cfg = rw.StepperConfig(dt=0.05)
        # q falls monotonically up to t = 1: the end state holds the minimum
        out, report = rw.step_adaptive_rk(s, cfg, 1.0)
        assert report.accepted > 1
        assert report.min_q == out.q.min()
        assert report.min_h <= out.h.min()
        # across the collision the minimum is reached between the end points
        out, report = rw.step_adaptive_rk(s, cfg, 2.0)
        assert report.min_q < 0.05 < min(s.q.min(), out.q.min())

    def test_fold_flag_comes_from_the_accepted_internal_states(self):
        # y folds inside the first 0.5 of the gamma = 5 collision and is
        # monotone again at its end; measured 4 accepted steps over 0.5, 1
        # over 0.1
        cfg = resolve_config("peakon_antipeakon_gamma5")
        state0 = build_initial_state(cfg)
        out, report = rw.step_adaptive_rk(state0, cfg.stepper, 0.5)
        assert report.accepted == 4 and report.folded
        assert not source_terms.is_folded(out.y)
        out, report = rw.step_adaptive_rk(state0, cfg.stepper, 0.1)
        assert report.accepted == 1 and not report.folded

    def test_step_size_underflow(self):
        s = small_peakon()
        cfg = rw.StepperConfig(dt=0.1, rk_rel_tol=1e-300, rk_abs_tol=1e-300)
        with pytest.raises(StepSizeUnderflow):
            rw.step_adaptive_rk(s, cfg, 1.0)


class TestEvolve:
    def test_zero_time_returns_input(self):
        s = small_peakon()
        calls = []
        out, run = rw.evolve(s, 0.0, CFG, observers=lambda j, t, st, r: calls.append(t))
        assert states_equal(out, s)
        # the report of the start state alone: no substep, no fold
        assert run == stepping.StepReport(min_q=s.q.min(), min_h=s.h.min())
        assert calls == [0.0]

    @pytest.mark.parametrize("start", ["peakon", "folded"])
    def test_the_start_state_is_observed_with_its_report(self, start):
        s0 = small_peakon() if start == "peakon" else zero_state().replace(zeta=-2.0 * zero_state().y)
        reports = []
        rw.evolve(s0, 0.2, CFG, observers=lambda j, t, st, r: reports.append(r))
        report = reports[0]
        assert isinstance(report, stepping.StepReport)
        assert report.min_q == float(np.min(s0.q)) and report.min_h == float(np.min(s0.h))
        assert report.max_inv_drift == 0.0 and report.fp_iterations == {}
        assert report.folded == int(source_terms.is_folded(s0.y)) == (start == "folded")

    def test_plan_steps_shortens_final_step(self):
        assert plan_steps(1.0, 0.25) == (4, None)
        n_full, last = plan_steps(0.25, 0.1)
        assert n_full == 2
        assert last == pytest.approx(0.05)
        assert n_full * 0.1 + last == pytest.approx(0.25)
        assert plan_steps(0.0, 0.1) == (0, None)
        # a count, not a list of 2**23 steps
        assert plan_steps(1.0, 2.0**-23) == (2**23, None)

    def test_evolve_takes_the_planned_steps(self, monkeypatch):
        dts, times = [], []

        def recorded(state, cfg, dt=None):
            dts.append(dt)
            return state, stepping.StepReport(fp_iterations={len(dts): 1}, accepted=1)

        monkeypatch.setattr(stepping, "step_strang", recorded)
        _, run = rw.evolve(small_peakon(), 1.05, rw.StepperConfig(dt=0.1),
                           observers=lambda j, t, st, r: times.append(t))
        n_full, last = plan_steps(1.05, 0.1)
        assert dts == [0.1] * n_full + [last] and n_full == 10
        # the run's report merges each step's once
        assert run.fp_iterations == {j: 1 for j in range(1, 12)} and run.accepted == 11
        # t adds the steps in order: ten steps of 0.1 add to 0.9999999999999999
        assert times == list(itertools.accumulate([0.0, *dts]))
        assert times[10] != 10 * 0.1

    def test_observer_stride(self):
        s = small_peakon()
        times = []
        rw.evolve(s, 1.0, rw.StepperConfig(dt=0.1), observers=lambda j, t, st, r: times.append(round(t, 10)),
                  observe_stride=5)
        assert times == [0.0, 0.5, 1.0]

    def test_determinism_bitwise(self):
        s = small_peakon(dxi=0.1, r=10.0)
        cfg = rw.StepperConfig(dt=0.1, scheme="strang")
        a, _ = rw.evolve(s, 1.0, cfg)
        b, _ = rw.evolve(s, 1.0, cfg)
        assert states_equal(a, b)

    def test_peakon_transport_speed(self):
        # crest within one cell + c*dt of x = c*T
        g = rw.GridSpec.from_radius(0.05, 25.0)
        s = rw.make_peakon_pair([(1.0, 0.0)], g)
        cfg = rw.StepperConfig(dt=0.2, scheme="strang")
        out, _ = rw.evolve(s, 5.0, cfg)
        crest_x = out.y[np.argmax(out.U)]
        assert abs(crest_x - 5.0) <= g.dxi + 1.0 * cfg.dt

    def test_adaptive_scheme_through_evolve(self):
        s = small_peakon()
        cfg = rw.StepperConfig(dt=0.25, scheme="adaptive_rk")
        steps = []
        out, run = rw.evolve(s, 0.5, cfg, observers=lambda j, t, st, r: steps.append(r))
        assert len(steps) == 3
        assert all(r.accepted >= 1 for r in steps[1:])
        assert run.accepted == sum(r.accepted for r in steps[1:])

    @pytest.mark.parametrize("scheme, substeps", [("strang", 3), ("lie_trotter", 2)])
    def test_the_run_report_is_complete_and_bounded(self, scheme, substeps):
        cfg = rw.StepperConfig(dt=0.01, scheme=scheme)
        minima = []
        _, run = rw.evolve(small_peakon(dxi=0.5, r=10.0), 3.0, cfg,
                           observers=lambda j, t, st, r: minima.append((st.q.min(), st.h.min())))
        assert len(minima) == 301
        assert sum(run.fp_iterations.values()) == substeps * 300
        assert len(run.fp_iterations) <= cfg.fp_max_iter
        assert (run.min_q, run.min_h) == tuple(np.min(minima, axis=0))

    @pytest.mark.parametrize("name, folded", [
        ("peakon_antipeakon_gamma1", 13), ("peakon_antipeakon_gamma5", 3), ("collision_smooth", 7)])
    def test_the_run_report_counts_the_folded_states(self, name, folded):
        # each collision starts unfolded, so each folded state is a step's
        cfg = resolve_config(name)
        assert cfg.stepper.scheme == "strang"
        _, run = rw.evolve(build_initial_state(cfg), cfg.t_final, cfg.stepper)
        assert run.folded == folded

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rw.evolve(small_peakon(), -1.0, CFG)
        seen = []
        with pytest.raises(ValueError):
            rw.evolve(small_peakon(), 0.5, CFG, lambda *obs: seen.append(obs), observe_stride=0)
        assert seen == []  # rejected before the t=0 observation
