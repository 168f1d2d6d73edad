import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import rodwave as rw
from rodwave import initial_data
from rodwave.errors import NonMonotoneConstruction, PhysicalRangeWarning
from rodwave.initial_data import _CusponCurves, smooth_profile, travel_distance

from helpers import admissible


def peakon_profile(c=1.0):
    return rw.EulerianProfile(
        u=lambda x: c * np.exp(-np.abs(x)),
        ux=lambda x: -c * np.sign(x) * np.exp(-np.abs(x)),
        support_radius=30.0,
    )


class TestEulerianToLagrangian:
    def test_zero_profile_is_identity(self):
        profile = rw.EulerianProfile(
            u=lambda x: np.zeros_like(x), ux=lambda x: np.zeros_like(x),
            support_radius=1.0,
        )
        grid = rw.GridSpec(8, 0.25)
        data = rw.eulerian_to_lagrangian(profile, grid, 4)
        np.testing.assert_allclose(data.y, data.xi, atol=1e-13)
        np.testing.assert_array_equal(data.U, np.zeros_like(data.xi))
        np.testing.assert_allclose(data.H, np.zeros_like(data.xi), atol=1e-13)
        np.testing.assert_allclose(data.q, np.ones_like(data.xi))

    @pytest.mark.parametrize("m_ref", [0, -1])
    def test_a_refinement_below_one_is_refused(self, m_ref):
        with pytest.raises(ValueError, match="m_ref must be >= 1"):
            rw.eulerian_to_lagrangian(peakon_profile(), rw.GridSpec(8, 0.25), m_ref)

    def test_peakon_energy_and_far_field(self):
        # total energy of c*e^{-|x|} is 2c^2; far right y -> xi - 2.
        # The energy table samples the kink-node derivative as 0, which
        # biases the tabulated total by one x-step (~1e-3 here).
        grid = rw.GridSpec.from_radius(0.1, 20.0)
        data = rw.eulerian_to_lagrangian(peakon_profile(), grid, 8)
        assert data.H[-1] == pytest.approx(2.0, abs=5e-3)
        assert data.y[-1] == pytest.approx(data.xi[-1] - 2.0, abs=5e-3)

    def test_pointwise_identities_on_fine_nodes(self):
        grid = rw.GridSpec.from_radius(0.2, 10.0)
        data = rw.eulerian_to_lagrangian(peakon_profile(), grid, 16)
        np.testing.assert_allclose(data.q + data.h, 1.0, atol=1e-10)
        lhs = data.q * data.h
        rhs = data.q**2 * data.U**2 + data.w**2
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_inversion_residual(self):
        # smooth profile: the independent-quadrature residual is limited only
        # by the tabulated-energy accuracy (measured ~8e-8)
        grid = rw.GridSpec.from_radius(0.2, 10.0)
        profile = rw.EulerianProfile(
            u=lambda x: -x * np.exp(-0.5 * x * x),
            ux=lambda x: (x * x - 1.0) * np.exp(-0.5 * x * x),
            support_radius=9.0,
        )
        data = rw.eulerian_to_lagrangian(profile, grid, 8)

        def energy_up_to(yv):
            val, _ = quad(
                lambda x: (x * x + (x * x - 1.0) ** 2) * np.exp(-x * x),
                -12.0, yv, limit=300,
            )
            return val

        for k in range(0, data.xi.size, data.xi.size // 7):
            resid = data.y[k] + energy_up_to(data.y[k]) - data.xi[k]
            assert abs(resid) < 5e-7

    @pytest.mark.parametrize("r", [600.0, 1100.0])
    @pytest.mark.parametrize("kind", ["gaussian_derivative", "profile_file"])
    def test_wide_grids_build(self, tmp_path, kind, r):
        # past |xi| = 512 one ulp of xi exceeds 1e-13
        if kind == "profile_file":
            # a table wider than the energy: zero rows out to |x| = 100
            x = np.concatenate(([-100.0], np.linspace(-9.0, 9.0, 1801), [100.0]))
            u = -x * np.exp(-0.5 * x * x)
            path = tmp_path / "profile.txt"
            path.write_text("x u\n" + "".join(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), u.tolist())))
            spec = rw.TravelingWaveSpec(kind=kind, gamma=0.8, path=str(path))
            profile = rw.EulerianProfile.from_file(path)
        else:
            spec = rw.TravelingWaveSpec(kind=kind, gamma=0.8)
            profile = rw.EulerianProfile(
                u=lambda x: -x * np.exp(-0.5 * x * x),
                ux=lambda x: (x * x - 1.0) * np.exp(-0.5 * x * x),
                support_radius=9.0,
            )
        span = profile.support_radius
        grid = rw.GridSpec.from_radius(1.0, r)
        data = rw.eulerian_to_lagrangian(profile, grid)
        assert np.all(np.diff(data.y) > 0)
        assert np.all(data.H[data.xi < -span] == 0.0)
        # slope 1 past the table: y = xi - E_tot, one value of H
        right = data.H[data.xi > span + 3.0]
        assert right.size > 0 and np.all(right == right[0])
        assert right[0] == pytest.approx(1.25 * math.sqrt(math.pi), rel=1e-3)
        s = rw.build_from_spec(spec, grid)
        assert np.all(np.diff(s.y) > 0)
        assert s.H_plus == rw.build_from_spec(spec, rw.GridSpec.from_radius(1.0, 25.0)).H_plus


class TestProjectToGrid:
    def test_constant_fine_data_projects_to_itself(self):
        grid = rw.GridSpec(4, 0.5)
        m = 8
        n_nodes = grid.n_cells * m + 1
        ones = np.ones(n_nodes)
        data = rw.FineLagrangianData(
            xi=np.linspace(-grid.r, grid.r, n_nodes),
            y=np.linspace(-grid.r, grid.r, n_nodes),
            U=0.3 * ones, H=np.zeros(n_nodes),
            q=0.25 * ones, w=0.125 * ones, h=0.75 * ones,
            m_ref=m, grid=grid,
        )
        state = rw.project_to_grid(data, rw.Parameters(1.0))
        np.testing.assert_allclose(state.U, 0.3)
        np.testing.assert_allclose(state.q, 0.25)
        np.testing.assert_allclose(state.w, 0.125)
        np.testing.assert_allclose(state.h, 0.75)

    def test_projected_peakon_identities(self):
        grid = rw.GridSpec.from_radius(0.1, 15.0)
        data = rw.eulerian_to_lagrangian(peakon_profile(), grid, 16)
        state = rw.project_to_grid(data, rw.Parameters(1.0))
        # q + h = 1 exactly (averaging the fine identity)
        np.testing.assert_array_equal(state.q + state.h, np.ones(grid.n_cells))
        # projection turns the equality into <= (values <= 1e-12)
        assert rw.invariants(state).max() <= 1e-12
        assert admissible(state, floor=0.5)

    def test_degenerate_cells_get_zero_velocity(self):
        grid = rw.GridSpec(2, 0.5)
        m = 4
        n_nodes = grid.n_cells * m + 1
        q = np.ones(n_nodes)
        q[: m + 1] = 0.0  # first cell carries no Eulerian extent
        U = np.full(n_nodes, 7.0)
        data = rw.FineLagrangianData(
            xi=np.linspace(-1, 1, n_nodes), y=np.linspace(-1, 1, n_nodes),
            U=U, H=np.zeros(n_nodes), q=q, w=np.zeros(n_nodes),
            h=1.0 - q, m_ref=m, grid=grid,
        )
        state = rw.project_to_grid(data, rw.Parameters(1.0))
        assert state.U[0] == 0.0
        np.testing.assert_allclose(state.U[1:], 7.0)

    def test_refinement_self_convergence(self):
        grid = rw.GridSpec.from_radius(0.2, 10.0)
        profile = peakon_profile()
        states = {
            m: rw.project_to_grid(
                rw.eulerian_to_lagrangian(profile, grid, m),
                rw.Parameters(1.0),
            )
            for m in (16, 64, 256)
        }
        d_coarse = rw.distance_f(states[16], states[64])
        d_fine = rw.distance_f(states[64], states[256])
        assert d_fine < d_coarse
        assert d_coarse < 0.02  # measured ~7e-3 baseline


class TestMakePeakon:
    def test_closed_form_fields(self):
        grid = rw.GridSpec.from_radius(0.05, 25.0)
        s = rw.make_peakon_pair([(1.0, 0.0)], grid)
        xi = grid.cells
        np.testing.assert_allclose(s.U, np.exp(-np.abs(xi)), rtol=1e-15)
        np.testing.assert_array_equal(s.q, np.ones(grid.n_cells))
        # h = 2 U^2 everywhere (the energy density of the peakon), which is
        # U^2 + w^2 exactly away from the crest node
        np.testing.assert_allclose(s.h, 2.0 * np.exp(-2.0 * np.abs(xi)), rtol=1e-14)
        off_crest = s.w != 0.0
        assert np.array_equal(s.h[off_crest], (s.U**2 + s.w**2)[off_crest])
        # total energy ~ 2 within quadrature error (2% at this resolution)
        assert s.H_plus == pytest.approx(2.0, rel=0.02)
        I = rw.invariants(s)
        np.testing.assert_array_equal(I[off_crest], np.zeros(off_crest.sum()))
        assert np.all(I <= 0)  # crest cell sits on the admissible side

    def test_crest_node_takes_mean_of_limits(self):
        grid = rw.GridSpec.from_radius(0.25, 5.0)
        s = rw.make_peakon_pair([(1.0, 0.0)], grid)
        k = np.argmax(s.U)
        assert s.w[k] == 0.0
        assert s.w[k + 1] < 0 < s.w[k - 1]

    def test_antipeakon_mirror(self):
        grid = rw.GridSpec.from_radius(0.25, 5.0)
        a = rw.make_peakon_pair([(1.0, 0.0)], grid)
        b = rw.make_peakon_pair([(-1.0, 0.0)], grid)
        np.testing.assert_array_equal(a.U, -b.U)

    def test_pair_superposes_evaluators(self):
        grid = rw.GridSpec.from_radius(0.1, 20.0)
        s = rw.make_peakon_pair([(1.0, 0.0), (-1.0, 1.0)], grid, gamma=1.0)
        xi = grid.cells
        expected = np.exp(-np.abs(xi)) - np.exp(-np.abs(xi - 1.0))
        np.testing.assert_allclose(s.U, expected, rtol=1e-14, atol=1e-15)
        I = rw.invariants(s)
        assert np.all(I <= 0)
        kinks = np.isin(xi, (0.0, 1.0))
        np.testing.assert_allclose(I[~kinks], 0.0, atol=1e-16)
        assert I[kinks].max() < 0  # kink nodes carry the averaged limits
        assert admissible(s, floor=0.5)


class TestRelabelingConsistency:
    def test_both_pipelines_reconstruct_the_same_graph(self):
        # relabeled and projected constructions of the same peakon agree on
        # the Eulerian graph, with error shrinking as the grid refines
        profile = peakon_profile()
        sups = []
        for dxi in (0.2, 0.1, 0.05):
            grid = rw.GridSpec.from_radius(dxi, 15.0)
            projected = rw.project_to_grid(
                rw.eulerian_to_lagrangian(profile, grid, 16),
                rw.Parameters(1.0),
            )
            sups.append(np.max(np.abs(projected.U - profile.u(projected.y))))
        assert sups[2] < sups[1] < sups[0]
        assert sups[2] < 0.03  # measured baseline ~0.009


class TestTravelDistance:
    @pytest.mark.parametrize("gamma", [-2.0, 0.0, 0.2, 0.8, 2.0, 5.0])
    def test_matches_quadrature(self, gamma):
        c = 1.0
        crest = c if gamma < 1 else c / gamma

        def F(z):
            return z * z * (c - z) / (c - gamma * z)

        def log_quad(a, b):
            # integral of dz/sqrt(F(z)) from a to b, in t = log z
            return quad(lambda t: math.exp(t) / math.sqrt(F(math.exp(t))), math.log(a),
                        math.log(b), epsabs=1e-15, epsrel=1e-13, limit=200)[0]

        def reference(u):
            if gamma > 1:
                return log_quad(u, crest)
            # z = c - t^2 removes the smooth crest's 1/sqrt singularity:
            # dz/sqrt(F) = 2 sqrt(c - gamma z) dt / z
            t_u = math.sqrt(c - u)
            split = min(t_u, math.sqrt(c / 2))
            near = quad(lambda t: 2.0 * math.sqrt(c - gamma * (c - t * t)) / (c - t * t),
                        0.0, split, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
            return near + (log_quad(u, c - split * split) if t_u > split else 0.0)

        for u in (1e-12, 1e-6, 0.3 * crest, 0.5 * crest, 0.9 * crest,
                  crest * (1 - 1e-4), crest * (1 - 1e-8)):
            assert float(travel_distance(u, gamma, c)) == pytest.approx(
                reference(u), rel=1e-12, abs=1e-15)
        assert float(travel_distance(crest, gamma, c)) == 0.0

    def test_zero_at_a_crest_that_rounds_up(self):
        # fl(c/gamma) lies above c/gamma here, so c - gamma*U rounds below 0
        c, gamma = 1.6, 1.375
        assert c - gamma * (c / gamma) < 0
        assert float(travel_distance(c / gamma, gamma, c)) == 0.0

    def test_vectorized_over_u(self):
        u = np.array([1e-9, 0.1, 0.19, 0.2])
        np.testing.assert_array_equal(
            travel_distance(u, 5.0, 1.0), [float(travel_distance(v, 5.0, 1.0)) for v in u])


class TestSmoothTravelingWave:
    SPEC = rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.0)
    GRID = rw.GridSpec.from_radius(0.25, 25.0)

    def test_profile_shape(self):
        s = rw.make_smooth_tw(self.SPEC, self.GRID)
        k = np.argmax(s.U)
        assert s.U[k] == 1.0
        assert s.y[k] == 0.0
        assert np.all(np.diff(s.U[k:]) < 0)
        assert np.all(np.diff(s.U[: k + 1]) > 0)

    def test_invariant_curve_residual(self):
        # u'^2 = F(u) on every cell off the crest, and the invariants vanish
        s = rw.make_smooth_tw(self.SPEC, self.GRID)
        off_crest = s.U < 1.0
        U, w = s.U[off_crest], s.w[off_crest]
        np.testing.assert_allclose(w * w, U * U * (1.0 - U) / (1.0 - 0.2 * U), rtol=1e-14)
        assert np.all(np.sign(w) == -np.sign(s.y[off_crest]))
        assert np.abs(rw.invariants(s)).max() == 0.0

    def test_solves_the_distance_to_the_crest(self):
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=0.8, c=1.5, x0=0.1375)
        s = rw.make_smooth_tw(spec, self.GRID)
        d = np.abs(self.GRID.cells - spec.x0)
        residual = np.abs(travel_distance(s.U, spec.gamma, spec.c) - d)
        assert np.all(residual <= 1e-13 * np.maximum(1.0, d))
        assert s.U.min() > 0

    @pytest.mark.parametrize("gamma, c, x0", [(0.2, 1.0, 0.0), (0.8, 1.5, 0.1375),
                                              (-2.0, 0.7, -3.3)])
    def test_the_builder_is_smooth_profile_on_the_cells(self, gamma, c, x0):
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=gamma, c=c, x0=x0)
        U = smooth_profile(self.GRID.cells - x0, gamma, c)
        built = rw.make_smooth_tw(spec, self.GRID).U
        assert np.array_equal(U.view(np.uint64), built.view(np.uint64))

    def test_smooth_profile_inverts_the_travel_distance(self):
        # near the crest u = c - O(x^2), so the last bit of u holds x to
        # about 1e-16 / x: the points start at x = 0.01
        right = np.geomspace(1e-2, 30.0, 40)
        x = np.concatenate((-right[::-1], [0.0], right))
        for gamma, c in ((0.2, 1.0), (0.9, 2.0), (-5.0, 0.5)):
            u = smooth_profile(x, gamma, c)
            assert u[40] == c and np.all(u > 0) and np.array_equal(u, u[::-1])
            residual = np.abs(travel_distance(u, gamma, c) - np.abs(x))
            assert np.all(residual <= 1e-12 * np.maximum(1.0, np.abs(x)))

    def test_gamma_zero_closed_form(self):
        # at gamma=0 the profile is c*sech^2(x/2)
        spec = rw.TravelingWaveSpec(kind="smooth", gamma=0.0, c=1.0)
        s = rw.make_smooth_tw(spec, self.GRID)
        np.testing.assert_allclose(s.U, 1.0 / np.cosh(self.GRID.cells / 2.0) ** 2, rtol=1e-12)

    def test_small_gamma_stays_near_gamma_zero(self):
        u0, u1 = (rw.make_smooth_tw(rw.TravelingWaveSpec(kind="smooth", gamma=g, c=1.0),
                                    self.GRID).U for g in (0.0, 0.05))
        assert np.abs(u0 - u1).max() < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            rw.TravelingWaveSpec(kind="smooth", gamma=1.2, c=1.0)

    def test_admissible(self):
        s = rw.make_smooth_tw(self.SPEC, self.GRID)
        floor = float(np.min(s.q + s.h)) / 2
        assert admissible(s, floor)


class TestCuspon:
    SPEC = rw.TravelingWaveSpec(kind="cuspon", gamma=5.0, c=1.0)

    def test_crest_value_is_c_over_gamma(self):
        grid = rw.GridSpec.from_radius(0.1, 25.0)
        s = rw.make_cuspon(self.SPEC, grid)
        assert s.U.max() == pytest.approx(0.2, abs=1e-14)

    def test_crest_energy_density_closed_form(self):
        # H_xi(0) = (2c/gamma^2) sqrt(c*gamma - c) = 0.16 at gamma=5, c=1
        grid = rw.GridSpec.from_radius(0.1, 25.0)
        s = rw.make_cuspon(self.SPEC, grid)
        k = np.argmax(s.U)
        expected = 2.0 * 1.0 / 25.0 * math.sqrt(5.0 - 1.0)
        assert expected == 0.16
        assert abs(s.h[k] - expected) <= 1e-10
        # the generic formula approaches the same limit off the crest
        curves = _CusponCurves(5.0, 1.0, *self.SPEC.blend_resolved)
        assert curves.h(np.array([1e-5]))[0] == pytest.approx(0.16, abs=1e-8)

    def test_parity(self):
        grid = rw.GridSpec.from_radius(0.1, 25.0)
        s = rw.make_cuspon(self.SPEC, grid)
        n = grid.n_half
        for i in range(1, n):
            assert s.U[n + i] == s.U[n - i]
            assert s.w[n + i] == -s.w[n - i]
            assert s.q[n + i] == s.q[n - i]
            assert s.y[n + i] == pytest.approx(-s.y[n - i], abs=1e-14)

    def test_invariant_zero_and_admissible(self):
        grid = rw.GridSpec.from_radius(0.1, 25.0)
        s = rw.make_cuspon(self.SPEC, grid)
        assert np.abs(rw.invariants(s)).max() < 1e-14
        floor = float(np.min(s.q + s.h)) / 2
        assert floor > 0
        assert admissible(s, floor)

    def test_crest_that_rounds_up_stays_finite(self):
        grid = rw.GridSpec.from_radius(0.1, 25.0)
        s = rw.make_cuspon(rw.TravelingWaveSpec(kind="cuspon", gamma=1.375, c=1.6), grid)
        assert np.all(np.isfinite(s.y))
        assert s.y[grid.n_half] == 0.0
        assert s.U[grid.n_half] == 1.6 / 1.375

    def test_position_consistent_with_analytic_slope(self):
        # y increments match the quadrature of the analytic y_xi
        grid = rw.GridSpec.from_radius(0.1, 5.0)
        s = rw.make_cuspon(self.SPEC, grid)
        curves = _CusponCurves(5.0, 1.0, *self.SPEC.blend_resolved)
        n = grid.n_half
        for i in (2, 7, 23, 40):
            seg, _ = quad(lambda z: curves.y_xi(np.array([z]))[0],
                          grid.cells[n + i], grid.cells[n + i + 1], limit=200)
            assert s.y[n + i + 1] - s.y[n + i] == pytest.approx(seg, abs=1e-8)

    def test_spec_default_blend_would_fold(self):
        # the wider blend makes U increase inside [a, b]; construction refuses
        sqrt_crest = math.sqrt(0.2)
        with pytest.raises(NonMonotoneConstruction):
            rw.make_cuspon(
                rw.TravelingWaveSpec(
                    kind="cuspon", gamma=5.0, c=1.0,
                    blend=(0.6 * sqrt_crest, 0.9 * sqrt_crest),
                ),
                rw.GridSpec.from_radius(0.1, 25.0),
            )

    @pytest.mark.parametrize("gamma, c", [(5.0, 0.1), (5.0, 0.01), (10.0, 0.5)])
    def test_a_low_crest_needs_a_blend_nearer_it(self, gamma, c):
        # the default window reaches past where the crest parabola
        # c/gamma - xi^2 falls below the tail (c/gamma) exp(-xi), so U rises
        # inside it; the error names the window and which way to move it
        grid = rw.GridSpec.from_radius(0.1, 25.0)
        spec = rw.TravelingWaveSpec(kind="cuspon", gamma=gamma, c=c)
        a, b = spec.blend_resolved
        with pytest.raises(NonMonotoneConstruction) as info:
            rw.build_from_spec(spec, grid)
        assert f"blend interval ({a}, {b}); move it toward the crest (smaller a and b)" in str(
            info.value)
        s = math.sqrt(c / gamma)
        state = rw.build_from_spec(replace(spec, blend=(0.02 * s, 0.05 * s)), grid)
        assert state.U.max() == pytest.approx(c / gamma, rel=1e-12)
        assert np.all(np.diff(state.y) >= 0)

    def test_blend_bounds_validated(self):
        with pytest.raises(NonMonotoneConstruction):
            rw.make_cuspon(
                rw.TravelingWaveSpec(kind="cuspon", gamma=5.0, c=1.0, blend=(0.3, 0.5)),
                rw.GridSpec.from_radius(0.1, 25.0),
            )

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            rw.TravelingWaveSpec(kind="cuspon", gamma=0.5, c=1.0)


class TestGaussianDerivative:
    def test_profile_formula(self):
        grid = rw.GridSpec.from_radius(0.25, 10.0)
        s = rw.make_gaussian_derivative(grid, gamma=0.8)
        # u0(0) = 0, u0(+-1) = -+e^{-1/2}
        u = lambda x: -x * math.exp(-0.5 * x * x)
        assert u(0.0) == 0.0
        assert u(1.0) == pytest.approx(-math.exp(-0.5))
        assert u(-1.0) == pytest.approx(math.exp(-0.5))
        # the projected graph reproduces u0 (cell-average error ~dxi/4)
        assert np.max(np.abs(s.U - (-s.y * np.exp(-0.5 * s.y**2)))) < 0.1

    def test_total_energy_analytic(self):
        # int u^2 = sqrt(pi)/2, int u_x^2 = 3 sqrt(pi)/4 -> total (5/4) sqrt(pi)
        grid = rw.GridSpec.from_radius(0.1, 15.0)
        s = rw.make_gaussian_derivative(grid, gamma=0.8)
        assert s.H_plus == pytest.approx(1.25 * math.sqrt(math.pi), rel=1e-5)

    def test_odd_symmetry_mirrors(self):
        grid = rw.GridSpec.from_radius(0.25, 10.0)
        s = rw.make_gaussian_derivative(grid, gamma=0.8)
        # u0 odd: the graph and its point reflection coincide within
        # projection error (measured ~0.13 at this resolution)
        u_left = np.interp(-s.y[::-1], s.y, s.U)
        np.testing.assert_allclose(-u_left[::-1], s.U, atol=0.2)


class TestProfileFiles:
    def test_round_trip_through_text_file(self, tmp_path):
        x = np.linspace(-10, 10, 4001)
        u = np.exp(-x * x)
        path = tmp_path / "profile.txt"
        lines = ["x u\n", "# gaussian bump\n"]
        lines += [f"{float(xv)!r} {float(uv)!r}\n" for xv, uv in zip(x, u)]
        path.write_text("".join(lines))
        profile = rw.EulerianProfile.from_file(path)
        xs = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(profile.u(xs), np.exp(-xs * xs), atol=1e-6)
        # derivative from central differences
        np.testing.assert_allclose(
            profile.ux(xs), -2 * xs * np.exp(-xs * xs), atol=1e-4
        )

    def test_comma_separated_values(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,u\n0.0,1.0\n1.0,0.5\n2.0,0.0\n")
        profile = rw.EulerianProfile.from_file(path)
        assert profile.u(np.array([0.5]))[0] == pytest.approx(0.75)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x u\n0.0 1.0\n")
        with pytest.raises(ValueError):
            rw.EulerianProfile.from_file(path)

    def test_garbage_line_reports_position(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("x u\n0.0 1.0\n1.0 oops\n2.0 0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            rw.EulerianProfile.from_file(path)

    def test_comments_may_come_before_the_header(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# made by hand\nx u\n-1 0\n0 1\n1 0\n")
        profile = rw.EulerianProfile.from_file(path)
        assert profile.u(np.array([-0.5, 0.0, 0.5])).tolist() == [0.5, 1.0, 0.5]
        # a second line that is not two numbers is still refused
        path.write_text("# made by hand\n\nx u\nx u\n-1 0\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="cannot parse line 4: 'x u'"):
            rw.EulerianProfile.from_file(path)


class TestBuildFromSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            rw.TravelingWaveSpec(kind="peakon", gamma=1.0, c=1.0),
            rw.TravelingWaveSpec(kind="smooth", gamma=0.2, c=1.0),
            rw.TravelingWaveSpec(kind="cuspon", gamma=5.0, c=1.0),
            rw.TravelingWaveSpec(kind="peakon_antipeakon", gamma=5.0, c=1.0),
            rw.TravelingWaveSpec(kind="gaussian_derivative", gamma=0.8),
        ],
    )
    def test_every_kind_builds_admissible_data(self, spec):
        grid = rw.GridSpec.from_radius(0.25, 10.0)
        s = rw.build_from_spec(spec, grid)
        floor = float(np.min(s.q + s.h)) / 2
        assert floor > 0
        assert admissible(s, floor)

    @pytest.mark.parametrize("kind", ["cuspon", "peakon_antipeakon"])
    def test_the_range_warning_names_the_builder(self, kind):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rw.build_from_spec(rw.TravelingWaveSpec(kind=kind, gamma=5.0, c=1.0),
                               rw.GridSpec.from_radius(0.25, 10.0))
        [warning] = caught
        assert warning.category is PhysicalRangeWarning
        assert warning.filename == initial_data.__file__

    def test_profile_file_builds_the_tabulated_profile(self, tmp_path):
        # the gaussian_derivative u0, tabulated: both go through the same
        # projection, so they differ only by the table's interpolation
        x = np.linspace(-9.0, 9.0, 1801)
        u = -x * np.exp(-0.5 * x * x)
        path = tmp_path / "profile.txt"
        path.write_text("x u\n" + "".join(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), u.tolist())))
        grid = rw.GridSpec.from_radius(0.25, 10.0)
        spec = rw.TravelingWaveSpec(kind="profile_file", gamma=0.8, path=str(path))
        s = rw.build_from_spec(spec, grid)
        assert admissible(s, float(np.min(s.q + s.h)) / 2)
        closed_form = rw.TravelingWaveSpec(kind="gaussian_derivative", gamma=0.8)
        # measured 8.1e-4; a misread column or sign would give O(1)
        assert rw.distance_f(s, rw.build_from_spec(closed_form, grid)) < 4e-3

    def test_profile_file_needs_an_existing_file(self, tmp_path):
        for path in ("", str(tmp_path / "missing.txt")):
            with pytest.raises(ValueError, match="profile file not found"):
                rw.TravelingWaveSpec(kind="profile_file", gamma=0.8, path=path)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rw.TravelingWaveSpec(kind="soliton", gamma=1.0)
