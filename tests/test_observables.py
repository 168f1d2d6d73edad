from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rodwave as rw
from rodwave.errors import DegenerateFit, GridMismatch

from helpers import admissible, random_admissible_state


def zero_state(n_half=8, dxi=0.25):
    return rw.LagrangianState.zero(rw.GridSpec(n_half, dxi), rw.Parameters(1.0))


class TestGraph:
    """The solution graph is the point set (state.y, state.U)."""

    def test_zero_state_graph(self):
        s = zero_state()
        np.testing.assert_array_equal(s.y, s.grid.cells)
        np.testing.assert_array_equal(s.U, np.zeros(16))

    def test_peakon_graph_matches_formula(self):
        grid = rw.GridSpec.from_radius(0.1, 15.0)
        s = rw.make_peakon_pair([(0.7, 0.3)], grid)
        np.testing.assert_allclose(s.U, 0.7 * np.exp(-np.abs(s.y - 0.3)), rtol=1e-14)

    def test_x_nondecreasing_for_admissible_states(self):
        grid = rw.GridSpec.from_radius(0.25, 10.0)
        s = rw.make_gaussian_derivative(grid, gamma=0.8)
        assert admissible(s, floor=0.4)
        assert np.all(np.diff(s.y) >= 0)


class TestDensities:
    def test_peakon_energy_density(self):
        # the energy density u^2 + u_x^2 on the graph is h/q, and q = 1 here
        grid = rw.GridSpec.from_radius(0.1, 15.0)
        c = 1.0
        s = rw.make_peakon_pair([(c, 0.0)], grid)
        np.testing.assert_array_equal(s.q, np.ones(grid.n_cells))
        expected = 2.0 * c * c * np.exp(-2.0 * np.abs(s.y))
        np.testing.assert_allclose(s.h, expected, rtol=1e-13)

    def test_unit_particle_density_for_relabeled_data(self):
        # the particle density is 1/q
        grid = rw.GridSpec.from_radius(0.1, 10.0)
        s = rw.make_peakon_pair([(1.0, 0.0)], grid)
        np.testing.assert_array_equal(1.0 / s.q, np.ones(grid.n_cells))

    def test_telescoping_position_increments(self):
        # projected states have y_{i+1} - y_i = dxi * q_i exactly per cell
        grid = rw.GridSpec.from_radius(0.25, 10.0)
        s = rw.make_gaussian_derivative(grid, gamma=0.8)
        y = s.y
        np.testing.assert_allclose(
            np.sum(np.diff(y)), grid.dxi * np.sum(s.q[:-1]), rtol=1e-12
        )


class TestSupGraphError:
    def test_identical_states(self):
        s = rw.make_peakon_pair([(1.0, 0.0)], rw.GridSpec.from_radius(0.25, 5.0))
        assert rw.sup_graph_error(s, s) == 0.0

    def test_velocity_offset(self):
        s = rw.make_peakon_pair([(1.0, 0.0)], rw.GridSpec.from_radius(0.25, 5.0))
        b = s.replace(U=s.U + 0.125)
        assert rw.sup_graph_error(s, b) == pytest.approx(0.125, rel=1e-15)

    def test_grid_mismatch(self):
        a = zero_state(4, 0.25)
        b = zero_state(4, 0.5)
        with pytest.raises(GridMismatch):
            rw.sup_graph_error(a, b)

    def test_a_finer_grid_is_matched_by_nearest_xi(self):
        # the coarse grid reaches past the fine one at its left end, where
        # the nearest fine cell is the first
        coarse = rw.make_peakon_pair([(1.0, 0.3)], rw.GridSpec.from_radius(0.4, 5.2))
        fine = rw.make_peakon_pair([(1.0, 0.0)], rw.GridSpec.from_radius(0.05, 5.0))
        assert coarse.grid.cells[0] < fine.grid.cells[0]
        distances = []
        for i, xi in enumerate(coarse.grid.cells):
            j = int(np.argmin(np.abs(fine.grid.cells - xi)))
            distances.append(np.hypot(coarse.y[i] - fine.y[j], coarse.U[i] - fine.U[j]))
        assert rw.sup_graph_error(coarse, fine) == max(distances) > 0.1

    def test_pseudometric(self):
        rng = np.random.default_rng(13)
        g = rw.GridSpec(16, 0.2)
        a, b, c = (random_admissible_state(rng, g, 1.0) for _ in range(3))
        assert rw.sup_graph_error(a, b) == rw.sup_graph_error(b, a)
        assert rw.sup_graph_error(a, c) <= (
            rw.sup_graph_error(a, b) + rw.sup_graph_error(b, c) + 1e-14
        )


class TestExactPeakonError:
    PEAKON = rw.TravelingWaveSpec(kind="peakon", gamma=1.0, c=1.0, x0=2.0)

    def test_initial_data_is_exact(self):
        grid = rw.GridSpec.from_radius(0.05, 20.0)
        s = rw.make_peakon_pair([(1.0, 0.0)], grid)
        spec = rw.TravelingWaveSpec(kind="peakon", gamma=1.0)
        assert rw.exact_error(s, spec, 0.0) < 1e-14

    def test_offset_and_speed_enter(self):
        grid = rw.GridSpec.from_radius(0.05, 20.0)
        s = rw.make_peakon_pair([(1.0, 2.0)], grid)
        assert rw.exact_error(s, self.PEAKON, 0.0) < 1e-14
        assert rw.exact_error(s, self.PEAKON, 1.0) > 0.1

    def test_the_wave_moved_by_c_t_is_exact(self):
        # the builder's peakon at x0 + c t, on the same cells, is the exact
        # solution at t; and so is the smooth wave's
        grid = rw.GridSpec.from_radius(0.25, 15.0)
        smooth = rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.5, x0=0.3)
        for spec in (self.PEAKON, smooth):
            moved = rw.build_from_spec(replace(spec, x0=spec.x0 + spec.c * 2.0), grid)
            assert rw.exact_error(moved, spec, 2.0) <= 1e-15
            assert rw.exact_error(rw.build_from_spec(spec, grid), spec, 2.0) > 0.5

    @pytest.mark.parametrize("spec", [
        rw.TravelingWaveSpec(kind="cuspon", gamma=5.0),
        rw.TravelingWaveSpec(kind="peakon_antipeakon", gamma=1.0),
        rw.TravelingWaveSpec(kind="gaussian_derivative", gamma=0.8)],
        ids=lambda spec: spec.kind)
    def test_a_kind_with_no_closed_form_has_no_exact_error(self, spec):
        s = rw.make_peakon_pair([(1.0, 0.0)], rw.GridSpec.from_radius(0.25, 5.0))
        assert rw.exact_error(s, spec, 1.0) is None

    def test_euler_less_accurate_than_strang(self):
        # smooth-wave comparison against a small-step reference isolates the
        # time error: Euler is ~60x worse at these resolutions
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.0)
        grid = rw.GridSpec.from_radius(0.25, 15.0)
        s = rw.make_smooth_tw(spec, grid)
        ref, _ = rw.evolve(s, 7.0, rw.StepperConfig(dt=0.01, scheme="strang"))
        strang, _ = rw.evolve(s, 7.0, rw.StepperConfig(dt=0.1, scheme="strang"))
        euler, _ = rw.evolve(s, 7.0, rw.StepperConfig(dt=0.1, scheme="explicit_euler"))
        assert rw.sup_graph_error(euler, ref) > 10 * rw.sup_graph_error(strang, ref)


class TestConvergenceOrder:
    def test_exact_quadratic_power_law(self):
        res = [0.1, 0.05, 0.025, 0.0125]
        errs = [3.7 * r**2 for r in res]
        assert rw.convergence_order(zip(res, errs)) == pytest.approx(2.0, abs=1e-10)

    def test_square_root_law(self):
        res = [0.2, 0.1, 0.05]
        errs = [0.9 * r**0.5 for r in res]
        assert rw.convergence_order(zip(res, errs)) == pytest.approx(0.5, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(
        k=st.floats(min_value=1e-3, max_value=1e3),
        p=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_recovers_arbitrary_power_laws(self, k, p):
        res = [0.4, 0.2, 0.1, 0.05]
        errs = [k * r**p for r in res]
        assert rw.convergence_order(zip(res, errs)) == pytest.approx(p, abs=1e-8)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            rw.convergence_order([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(DegenerateFit):
            rw.convergence_order([(0.1, 1.0), (0.05, 0.5), (0.025, -0.1)])
        with pytest.raises(DegenerateFit):
            rw.convergence_order([(0.1, 1.0), (0.1, 0.5), (0.1, 0.25)])


class TestDiagnosticsRecorder:
    def test_records_rows_with_drift_relative_to_start(self):
        grid = rw.GridSpec.from_radius(0.1, 10.0)
        s = rw.make_peakon_pair([(1.0, 0.0)], grid)
        rec = rw.DiagnosticsRecorder()
        _, run = rw.evolve(s, 0.5, rw.StepperConfig(dt=0.1, scheme="strang"),
                           observers=(rec,), observe_stride=1)
        assert len(rec.rows) == 6
        assert rec.rows[0].t == 0.0
        assert rec.rows[0].max_inv_drift == 0.0
        assert rec.rows[0].fp_iters_max == 0
        assert rec.rows[-1].fp_iters_max > 0
        assert run.max_inv_drift <= 50 * 1e-12
        # only the per-cell invariants are exact; the energy sum drifts at
        # discretisation level (measured ~0.2% here)
        assert rec.rows[-1].total_energy == pytest.approx(rec.rows[0].total_energy, rel=0.01)

    @pytest.mark.parametrize("scheme", rw.SCHEMES)
    def test_a_rows_drift_is_its_states_and_the_run_takes_the_largest(self, scheme):
        s0 = rw.make_peakon_pair([(1.0, 0.0)], rw.GridSpec.from_radius(0.25, 5.0))
        rec, drifts = rw.DiagnosticsRecorder(), []

        def drift(step, t, state, report):
            drifts.append(float(np.max(np.abs(rw.invariants(state) - rw.invariants(s0)))))

        _, run = rw.evolve(s0, 0.5, rw.StepperConfig(dt=0.1, scheme=scheme),
                           observers=(rec, drift))
        assert [row.max_inv_drift for row in rec.rows] == drifts and len(drifts) == 6
        assert run.max_inv_drift == max(drifts)

    def test_a_rows_minima_are_its_step_reports_over_every_accepted_state(self):
        # DP45 splits the gamma = 5 collision's steps of 0.1 into up to 3
        # internal steps, and 3 of its 5 steps reach a lower q inside the
        # step than at its end
        spec = rw.TravelingWaveSpec(kind="peakon_antipeakon", gamma=5.0, c=1.0, separation=1.0)
        s0 = rw.build_from_spec(spec, rw.GridSpec.from_radius(0.1, 10.0))
        rec, steps = rw.DiagnosticsRecorder(), []

        def keep(step, t, state, report):
            if step:
                steps.append((report, float(np.min(state.q))))

        rw.evolve(s0, 0.5, rw.StepperConfig(dt=0.1, scheme="adaptive_rk"), observers=(rec, keep))
        rows = rec.rows[1:]
        assert len(rows) == len(steps) == 5
        assert max(report.accepted for report, _ in steps) > 1
        assert [(row.min_q, row.min_h) for row in rows] == [
            (report.min_q, report.min_h) for report, _ in steps]
        assert any(row.min_q < end_q for row, (_, end_q) in zip(rows, steps))
