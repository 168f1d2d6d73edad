import numpy as np
import pytest

import rodwave as rw
from helpers import random_admissible_state


def zero_state(gamma=1.0):
    return rw.LagrangianState.zero(
        rw.GridSpec(8, 0.25), rw.Parameters(gamma)
    )


class TestVectorFields:
    def test_zero_state_is_fixed_point(self):
        s = zero_state()
        terms = rw.evaluate_source_terms(s)
        for field in (rw.vector_field_g1, rw.vector_field_g2, rw.vector_field_full):
            np.testing.assert_array_equal(field(s, terms), np.zeros((6, 16)))

    def test_velocity_free_state(self):
        # U = 0: a = gamma/2 h, Udot = -Q, wdot = gamma/2 h - P q, hdot = -2 P w
        rng = np.random.default_rng(4)
        gamma = 0.8
        grid = rw.GridSpec(16, 0.2)
        s = random_admissible_state(rng, grid, gamma).replace(U=np.zeros(32))
        terms = rw.evaluate_source_terms(s)
        a = rw.integrand_a(s)
        np.testing.assert_allclose(a, 0.5 * gamma * s.h, rtol=1e-15)
        _, U_t, _, v_t, w_t, h_t = rw.vector_field_full(s, terms)
        np.testing.assert_array_equal(U_t, -terms.Q)
        np.testing.assert_allclose(v_t, gamma * s.w, rtol=1e-15)
        np.testing.assert_allclose(
            w_t, 0.5 * gamma * s.h - terms.P * s.q, rtol=1e-13, atol=1e-15
        )
        np.testing.assert_allclose(h_t, -2.0 * terms.P * s.w, rtol=1e-13, atol=1e-15)

    def test_gamma_zero_freezes_characteristics(self):
        rng = np.random.default_rng(5)
        grid = rw.GridSpec(16, 0.2)
        s = random_admissible_state(rng, grid, 0.0)
        terms = rw.evaluate_source_terms(s)
        zeta_t, U_t, _, v_t, _, h_t = rw.vector_field_full(s, terms)
        np.testing.assert_array_equal(zeta_t, np.zeros(32))
        np.testing.assert_array_equal(v_t, np.zeros(32))
        np.testing.assert_allclose(
            rw.integrand_a(s), 1.5 * s.U * s.U * s.q, rtol=1e-15
        )
        # remaining fields still evolve
        assert np.any(U_t != 0)
        assert np.any(h_t != 0)

    def test_split_sums_to_full_bitwise(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            grid = rw.GridSpec(8, 0.25)
            s = random_admissible_state(rng, grid, rng.uniform(-1.0, 3.0))
            terms = rw.evaluate_source_terms(s)
            g1 = rw.vector_field_g1(s, terms)
            g2 = rw.vector_field_g2(s, terms)
            full = rw.vector_field_full(s, terms)
            assert np.array_equal(g1 + g2, full)

    def test_velocity_frozen_under_g1(self):
        rng = np.random.default_rng(7)
        grid = rw.GridSpec(16, 0.2)
        s = random_admissible_state(rng, grid, 1.0)
        terms = rw.evaluate_source_terms(s)
        zeta_t, U_t, H_t, _, _, _ = rw.vector_field_g1(s, terms)
        np.testing.assert_array_equal(U_t, np.zeros(32))
        np.testing.assert_array_equal(zeta_t, np.zeros(32))
        np.testing.assert_array_equal(H_t, np.zeros(32))


class TestInvariantDerivative:
    def test_chain_rule_derivative_vanishes(self):
        # d/dt I_i expanded along the full field is identically zero
        rng = np.random.default_rng(8)
        for _ in range(10):
            grid = rw.GridSpec(16, 0.2)
            s = random_admissible_state(rng, grid, rng.uniform(-1.0, 3.0))
            terms = rw.evaluate_source_terms(s)
            _, U_t, _, v_t, w_t, h_t = rw.vector_field_full(s, terms)
            q, U, w, h = s.q, s.U, s.w, s.h
            dI = (
                2 * U * q * q * U_t
                + 2 * U * U * q * v_t
                + 2 * w * w_t
                - v_t * h
                - q * h_t
            )
            scale = max(1.0, np.abs(rw.invariants(s)).max(), np.abs(dI).max())
            assert np.abs(dI).max() <= 1e-12 * scale or np.abs(dI).max() < 1e-13

    def test_finite_difference_derivative_shrinks_like_eps_squared(self):
        rng = np.random.default_rng(9)
        grid = rw.GridSpec(16, 0.2)
        s = random_admissible_state(rng, grid, 1.0)
        terms = rw.evaluate_source_terms(s)
        tan = rw.vector_field_full(s, terms)

        def fd(eps):
            plus = rw.invariants(s.with_x(s.x + eps * tan))
            minus = rw.invariants(s.with_x(s.x - eps * tan))
            return np.abs((plus - minus) / (2 * eps)).max()

        big, small = fd(1e-5), fd(1e-6)
        assert big < 1e-7
        # second-order decay until the rounding floor takes over
        assert small < max(big * 0.05, 5e-10)


class TestStateAlgebra:
    def test_with_x_keeps_boundary_constants(self):
        s = zero_state().replace(zeta_plus=0.5, H_plus=2.0)
        terms = rw.evaluate_source_terms(s)
        tan = rw.vector_field_full(s.replace(U=np.ones(16)), terms)
        out = s.with_x(s.x + 2.0 * tan)
        np.testing.assert_allclose(out.zeta, 2.0 * tan[0])
        assert (out.zeta_minus, out.zeta_plus, out.H_plus) == (0.0, 0.5, 2.0)
        assert out.grid == s.grid and out.params == s.params

    def test_row_views_follow_array_averages(self):
        rng = np.random.default_rng(10)
        g = rw.GridSpec(8, 0.25)
        a = random_admissible_state(rng, g, 1.0)
        b = random_admissible_state(rng, g, 1.0)
        mid = a.with_x(0.5 * (a.x + b.x))
        np.testing.assert_allclose(mid.U, 0.5 * (a.U + b.U))
        np.testing.assert_allclose(mid.h, 0.5 * (a.h + b.h))
