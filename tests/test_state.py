import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rodwave as rw
from rodwave.errors import GridMismatch, PhysicalRangeWarning

from helpers import distance_written_out, random_admissible_state


class TestGridSpec:
    def test_from_cells(self):
        g = rw.GridSpec(8, 0.25)
        assert g.r == 2.0
        assert g.n_cells == 16
        np.testing.assert_allclose(g.cells, np.arange(-8, 8) * 0.25)

    def test_from_radius_rounds_to_cell_multiple(self):
        g = rw.GridSpec.from_radius(0.3, 1.0)
        assert g.n_half == 3
        assert g.r == 3 * 0.3  # n_half * dxi, the one double it is computed as

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            rw.GridSpec(0, 0.1)
        with pytest.raises(ValueError):
            rw.GridSpec(4, -0.1)


class TestParameters:
    def test_physical_range_warns_not_errors(self):
        with pytest.warns(PhysicalRangeWarning):
            rw.Parameters(5.0)
        with pytest.warns(PhysicalRangeWarning):
            rw.Parameters(-30.0)

    def test_in_range_silent(self):
        with np.testing.assert_no_warnings():
            rw.Parameters(1.0)
            rw.Parameters(-29.0)
            rw.Parameters(3.4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            rw.Parameters(float("nan"))


class TestLagrangianState:
    def test_zero_state(self):
        g = rw.GridSpec(4, 0.25)
        s = rw.LagrangianState.zero(g, rw.Parameters(1.0))
        np.testing.assert_array_equal(s.y, g.cells)
        np.testing.assert_array_equal(s.q, np.ones(8))
        assert not s.x.any()

    def test_shape_validation(self):
        g = rw.GridSpec(4, 0.25)
        z = np.zeros(7)  # wrong length
        with pytest.raises(ValueError):
            rw.LagrangianState(
                x=np.zeros((6, 7)),
                zeta_minus=0.0, zeta_plus=0.0, H_plus=0.0,
                grid=g, params=rw.Parameters(1.0),
            )
        s = rw.LagrangianState.zero(g, rw.Parameters(1.0))
        with pytest.raises(ValueError):
            s.replace(zeta=z, U=z, H=z, v=z, w=z, h=z)
        with pytest.raises(ValueError):
            s.replace(U=z)

    def test_rows_are_read_only_views(self):
        g = rw.GridSpec(4, 0.25)
        s = rw.LagrangianState.zero(g, rw.Parameters(1.0)).replace(U=np.arange(8.0))
        np.testing.assert_array_equal(s.x[1], np.arange(8.0))
        for name in ("zeta", "U", "H", "v", "w", "h"):
            with pytest.raises(ValueError):
                getattr(s, name)[0] = 1.0

    def test_positions_are_built_once_and_read_only(self):
        # a kernel evaluation reads y twice; both reads share one array
        g = rw.GridSpec(4, 0.25)
        s = rw.LagrangianState.zero(g, rw.Parameters(1.0))
        assert g.cells is g.cells and s.y is s.y
        for positions in (g.cells, s.y):
            with pytest.raises(ValueError):
                positions[0] = 1.0


class TestPickle:
    """A state crosses a process boundary by pickle, and comes back whole."""

    @staticmethod
    def read_state(gamma=1.0):
        """A state whose cached y and grid cells have been read."""
        s = random_admissible_state(np.random.default_rng(7), rw.GridSpec(50, 0.2), gamma)
        s.y, s.grid.cells
        return s

    def test_a_copy_is_read_only_and_equal(self):
        s = self.read_state()
        copy = pickle.loads(pickle.dumps(s))
        for array in (copy.x, copy.y, copy.grid.cells):
            assert not array.flags.writeable
        assert copy.x.tobytes() == s.x.tobytes() and copy.y.tobytes() == s.y.tobytes()
        assert copy.grid == s.grid and copy.grid.cells.tobytes() == s.grid.cells.tobytes()
        assert copy.params == s.params
        assert (copy.zeta_minus, copy.zeta_plus, copy.H_plus) == (
            s.zeta_minus, s.zeta_plus, s.H_plus)
        assert s.H_plus > 0 and s.zeta_minus != 0 and s.zeta_plus != 0

    def test_a_pickle_ships_no_cache(self):
        s = self.read_state()
        assert len(pickle.dumps(s)) <= len(pickle.dumps(s.x)) + 512

    def test_unpickling_does_not_warn_of_gamma_again(self):
        with pytest.warns(PhysicalRangeWarning):
            s = self.read_state(gamma=5.0)
        data = pickle.dumps(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pickle.loads(data).params.gamma == 5.0


class TestInvariants:
    def test_peakon_type_cell_is_zero(self):
        # q = 1, h = U^2 + w^2 is the defining relation with equality
        g = rw.GridSpec(2, 0.5)
        U = np.array([0.3, -1.0, 2.0, 0.0])
        w = np.array([1.0, 0.5, 0.0, -2.0])
        s = rw.LagrangianState.zero(g, rw.Parameters(1.0)).replace(
            U=U, w=w, h=U * U + w * w
        )
        np.testing.assert_array_equal(rw.invariants(s), np.zeros(4))

    def test_vanishing_q_cell(self):
        g = rw.GridSpec(1, 0.5)
        s = rw.LagrangianState.zero(g, rw.Parameters(1.0)).replace(
            v=np.array([-1.0, -1.0]), w=np.array([3.0, -2.0]),
            h=np.array([1.0, 1.0]), U=np.array([5.0, 5.0]),
        )
        np.testing.assert_array_equal(rw.invariants(s), np.array([9.0, 4.0]))


class TestNormDistance:
    def test_distance_to_self_is_zero(self):
        rng = np.random.default_rng(0)
        g = rw.GridSpec(8, 0.25)
        s = random_admissible_state(rng, g, 1.0)
        assert rw.distance_f(s, s) == 0.0

    def test_constant_velocity_shift(self):
        # shifting U by 1 costs 1 (sup term) + sqrt(dxi * 2N) (weighted l2)
        rng = np.random.default_rng(1)
        g = rw.GridSpec(8, 0.25)
        a = random_admissible_state(rng, g, 1.0)
        b = a.replace(U=a.U + 1.0)
        expected = 1.0 + np.sqrt(0.25 * 16)
        assert rw.distance_f(a, b) == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_homogeneity(self, lam):
        rng = np.random.default_rng(7)
        g = rw.GridSpec(6, 0.2)
        a = random_admissible_state(rng, g, 1.0)
        zero = rw.LagrangianState.zero(g, a.params).replace(
            zeta=np.zeros(12)
        )
        zero = zero.replace(zeta_minus=0.0, zeta_plus=0.0, H_plus=0.0)
        scaled = a.replace(
            zeta=lam * a.zeta, U=lam * a.U, H=lam * a.H,
            v=lam * a.v, w=lam * a.w, h=lam * a.h,
            zeta_minus=lam * a.zeta_minus, zeta_plus=lam * a.zeta_plus,
            H_plus=lam * a.H_plus,
        )
        assert rw.distance_f(zero, scaled) == pytest.approx(
            lam * rw.distance_f(zero, a), rel=1e-12
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        g = rw.GridSpec(8, 0.25)
        a, b, c = (random_admissible_state(rng, g, 1.0) for _ in range(3))
        assert rw.distance_f(a, c) <= rw.distance_f(a, b) + rw.distance_f(b, c) + 1e-14

    def test_boundary_constants_counted(self):
        g = rw.GridSpec(4, 0.25)
        a = rw.LagrangianState.zero(g, rw.Parameters(1.0))
        b = a.replace(zeta_plus=0.5)
        assert rw.distance_f(a, b) == 0.5
        c = a.replace(H_plus=2.0)
        assert rw.distance_f(a, c) == 2.0

    def test_terms_summed_in_row_order(self):
        # the sum's rounding pins the order of its terms; swapping two of
        # them changes it on 2 of these 40 pairs
        rng = np.random.default_rng(5)
        g = rw.GridSpec(8, 0.25)
        pairs = [tuple(random_admissible_state(rng, g, 1.0) for _ in range(2))
                 for _ in range(40)]
        a, b = pairs[0]
        pairs.append((a, b.replace(zeta_minus=40.0, H_plus=-30.0)))
        assert all(rw.distance_f(a, b) == distance_written_out(a, b) for a, b in pairs)

    def test_grid_mismatch(self):
        a = rw.LagrangianState.zero(rw.GridSpec(4, 0.25), rw.Parameters(1.0))
        b = rw.LagrangianState.zero(rw.GridSpec(4, 0.5), rw.Parameters(1.0))
        with pytest.raises(GridMismatch):
            rw.distance_f(a, b)
