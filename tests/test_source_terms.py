import logging
import warnings

import numpy as np
import pytest

import rodwave as rw
from rodwave import source_terms
from rodwave.stepping import midpoint_substep

from helpers import random_admissible_state, rel_entrywise


def zero_state(n_half=8, dxi=0.25, gamma=1.0):
    return rw.LagrangianState.zero(
        rw.GridSpec(n_half, dxi), rw.Parameters(gamma)
    )


def with_y(state, y):
    xi = state.grid.cells
    return state.replace(
        zeta=y - xi,
        zeta_minus=float(y[0] - xi[0]),
        zeta_plus=float(y[-1] - xi[-1]),
    )


def folded(state, start, width, depth):
    """Push cells start..start+width-1 back by up to `depth` behind their
    left neighbour: a fold of that depth with a tapering inverted run."""
    y = state.y.copy()
    y[start:start + width] -= depth * np.linspace(1.0, 0.5, width) + (
        y[start] - y[start - 1]
    )
    return with_y(state, y)


def assert_close_at_scale(terms, ref, rtol=1e-12):
    """P and Q of `terms` within rtol * max|ref.P| of `ref`."""
    scale = np.abs(ref.P).max()
    assert np.abs(terms.P - ref.P).max() <= rtol * scale
    assert np.abs(terms.Q - ref.Q).max() <= rtol * scale


class TestIntegrand:
    def test_zero_state(self):
        np.testing.assert_array_equal(rw.integrand_a(zero_state()), np.zeros(16))

    def test_coefficient_vanishes_at_gamma_three_halves(self):
        s = zero_state(gamma=1.5).replace(U=np.full(16, 2.0))
        np.testing.assert_array_equal(rw.integrand_a(s), np.zeros(16))

    def test_direct_arithmetic(self):
        # gamma=1, U=1, q=1, h=2: a = 1/2*1 + 1/2*2 = 1.5
        s = zero_state(gamma=1.0).replace(U=np.ones(16), h=np.full(16, 2.0))
        np.testing.assert_allclose(rw.integrand_a(s), np.full(16, 1.5), rtol=1e-15)


class TestDirect:
    def test_zero_state(self):
        terms = rw.source_terms_direct(zero_state())
        np.testing.assert_array_equal(terms.P, np.zeros(16))
        np.testing.assert_array_equal(terms.Q, np.zeros(16))

    def test_single_cell_hand_sum(self):
        # gamma=2 makes a = h, so a is a unit bump in cell i=0 only
        n_half, dxi = 8, 0.25
        s = zero_state(n_half, dxi, gamma=2.0)
        h = np.zeros(16)
        h[n_half] = 1.0  # cell index 0
        s = s.replace(h=h)
        terms = rw.source_terms_direct(s)
        xi = s.grid.cells
        P_expected = 0.5 * dxi * np.exp(-np.abs(xi))
        # kernel sign: -1 right of the bump, +1 left of it, 0 on the bump cell
        sign = np.where(xi > 0, -1.0, np.where(xi < 0, 1.0, 0.0))
        Q_expected = sign * 0.5 * dxi * np.exp(-np.abs(xi))
        np.testing.assert_allclose(terms.P, P_expected, rtol=1e-14)
        np.testing.assert_allclose(terms.Q, Q_expected, rtol=1e-14, atol=1e-300)

    def test_mirror_symmetry(self):
        # point-symmetric data about xi=0 (a even, y odd): P even, Q odd
        rng = np.random.default_rng(11)
        n_half, dxi = 16, 0.2
        h = np.zeros(2 * n_half)
        vals = rng.uniform(0.1, 1.0, size=n_half)
        h[n_half] = vals[0]
        for i in range(1, n_half):
            h[n_half + i] = h[n_half - i] = vals[i]
        s = zero_state(n_half, dxi, gamma=2.0).replace(h=h)
        terms = rw.source_terms_direct(s)
        for i in range(1, n_half):
            assert terms.P[n_half + i] == pytest.approx(terms.P[n_half - i], rel=1e-13)
            assert terms.Q[n_half + i] == pytest.approx(
                -terms.Q[n_half - i], rel=1e-12, abs=1e-16
            )
        assert terms.Q[n_half] == pytest.approx(0.0, abs=1e-15)

    def test_folded_state_matches_the_signed_kernel_formula(self):
        rng = np.random.default_rng(21)
        s = random_admissible_state(rng, rw.GridSpec(8, 0.25), 0.7)
        s = folded(folded(s, 5, 3, 0.4), 11, 2, 1.3)
        y, a, n = s.y, rw.integrand_a(s), s.n_cells
        assert np.any(np.diff(y) < 0)
        P, Q = np.zeros(n), np.zeros(n)
        for i in range(n):
            for j in range(n):
                sgn = np.sign(i - j)
                k = np.exp(-sgn * (y[i] - y[j]))
                P[i] += 0.5 * s.grid.dxi * k * a[j]
                Q[i] -= 0.5 * s.grid.dxi * sgn * k * a[j]
        terms = rw.source_terms_direct(s)
        np.testing.assert_allclose(terms.P, P, rtol=1e-13)
        np.testing.assert_allclose(terms.Q, Q, rtol=1e-13, atol=1e-13 * np.abs(P).max())

    def test_monotone_state_uses_the_absolute_kernel_bit_for_bit(self):
        rng = np.random.default_rng(22)
        s = random_admissible_state(rng, rw.GridSpec(32, 0.1), 1.2)
        y, a = s.y, rw.integrand_a(s)
        kernel = np.exp(-np.abs(y[:, None] - y[None, :]))
        signs = np.sign(np.subtract.outer(np.arange(y.size), np.arange(y.size)))
        terms = rw.source_terms_direct(s)
        half = 0.5 * s.grid.dxi
        np.testing.assert_array_equal(terms.P, half * (kernel @ a))
        np.testing.assert_array_equal(terms.Q, -half * ((signs * kernel) @ a))

    def test_kernel_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            grid = rw.GridSpec(16, 0.2)
            s = random_admissible_state(rng, grid, gamma=rng.uniform(0.1, 1.4))
            assert np.all(rw.integrand_a(s) >= 0)
            terms = rw.source_terms_direct(s)
            assert np.all(terms.P >= 0)


class TestFast:
    def test_zero_state(self):
        terms = rw.source_terms_fast(zero_state())
        np.testing.assert_array_equal(terms.P, np.zeros(16))
        np.testing.assert_array_equal(terms.Q, np.zeros(16))

    @pytest.mark.parametrize("n_half", [8, 32, 256])
    def test_matches_direct_oracle(self, n_half):
        rng = np.random.default_rng(n_half)
        for _ in range(10):
            grid = rw.GridSpec(n_half, rng.uniform(0.05, 0.3))
            s = random_admissible_state(rng, grid, gamma=rng.uniform(0.1, 1.45))
            d = rw.source_terms_direct(s)
            f = rw.source_terms_fast(s)
            assert rel_entrywise(d.P, f.P).max() < 1e-12
            # Q entries are differences of positive sums bounded by P, so P
            # is the conditioning scale near sign changes
            assert rel_entrywise(d.Q, f.Q, floor=d.P).max() < 1e-12

    def test_mixed_sign_integrand_agrees_at_scale(self):
        # gamma outside [0, 1.5] makes a change sign; compare at global scale
        rng = np.random.default_rng(99)
        for gamma in (-1.0, 2.5, 3.4):
            grid = rw.GridSpec(64, 0.1)
            s = random_admissible_state(rng, grid, gamma=gamma)
            d = rw.source_terms_direct(s)
            f = rw.source_terms_fast(s)
            scale = max(np.abs(d.P).max(), np.abs(d.Q).max())
            assert np.abs(d.P - f.P).max() < 1e-12 * scale
            assert np.abs(d.Q - f.Q).max() < 1e-12 * scale

    def test_fold_is_flagged_silently_and_matches_direct(self, caplog):
        s = zero_state(8, 0.25).replace(h=np.linspace(0.5, 1.5, 16))
        zeta = s.zeta.copy()
        zeta[13] = -0.3  # y decreases entering array position 13
        bad = s.replace(zeta=zeta)
        with caplog.at_level(logging.DEBUG, logger="rodwave"):
            terms = rw.source_terms_fast(bad)
        assert source_terms.is_folded(bad.y)
        assert caplog.records == []
        assert_close_at_scale(terms, rw.source_terms_direct(bad))

    def test_monotone_state_does_not_fall_back(self):
        rng = np.random.default_rng(2)
        s = random_admissible_state(rng, rw.GridSpec(16, 0.2), 1.0)
        assert not source_terms.is_folded(s.y)

    def test_wide_position_span_does_not_overflow(self):
        # y spans ~2000 kernel lengths: a single rescaled sum would need
        # exp(2000); the blocked sum must stay finite, exact and silent
        rng = np.random.default_rng(17)
        s = random_admissible_state(rng, rw.GridSpec(128, 0.1), 1.0)
        y = s.y * (2000.0 / np.ptp(s.y))
        s = with_y(s, y)
        assert np.ptp(s.y) >= 1500
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = rw.source_terms_fast(s)
            d = rw.source_terms_direct(s)
        assert_close_at_scale(f, d)

    def test_deep_fold_in_a_wide_position_span_does_not_overflow(self):
        # a fold of depth 6 lifts the blocked sums' exponents by up to 6
        # above the block's own rescaling; they must stay finite and exact
        rng = np.random.default_rng(18)
        s = random_admissible_state(rng, rw.GridSpec(128, 0.1), 1.0)
        s = with_y(s, s.y * (2000.0 / np.ptp(s.y)))
        for start in (64, 128, 200):
            s = folded(s, start, 6, 6.0)
        y = s.y
        assert np.ptp(y) >= 2000 and (np.maximum.accumulate(y) - y).max() >= 5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = rw.source_terms_fast(s)
            d = rw.source_terms_direct(s)
        assert_close_at_scale(f, d)


class TestFolded:
    """Crossing particles (j < i, y_j > y_i) interact through the signed
    kernel exp(-sgn(i - j) (y_i - y_j)), on the same O(N) path."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.5])
    def test_shallow_folds_match_direct(self, gamma, monkeypatch):
        rng = np.random.default_rng(int(10 * gamma))
        direct = source_terms.source_terms_direct
        served_by_direct = []
        monkeypatch.setattr(
            source_terms,
            "source_terms_direct",
            lambda st: served_by_direct.append(st) or direct(st),
        )
        for _ in range(25):
            n_half = int(rng.integers(8, 200))
            grid = rw.GridSpec(n_half, rng.uniform(0.05, 0.3))
            s = random_admissible_state(rng, grid, gamma)
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(1, grid.n_cells - 1))
                width = int(rng.integers(1, min(8, grid.n_cells - start) + 1))
                s = folded(s, start, width, rng.uniform(0.001, 0.3))
            terms = rw.source_terms_fast(s)
            assert source_terms.is_folded(s.y)
            assert_close_at_scale(terms, direct(s))
        assert served_by_direct == []

    @pytest.mark.parametrize("depth", [1.5, 6.0])
    def test_deep_fold_is_the_direct_sum(self, depth):
        rng = np.random.default_rng(8)
        s = random_admissible_state(rng, rw.GridSpec(32, 0.1), 1.0)
        s = folded(s, 30, 6, depth)
        terms = rw.source_terms_fast(s)
        assert source_terms.is_folded(s.y)
        assert_close_at_scale(terms, rw.source_terms_direct(s))

    def test_wide_shallow_fold_matches_direct(self, monkeypatch):
        # shallow but long: about N^2/4 crossed pairs
        direct = source_terms.source_terms_direct
        monkeypatch.setattr(source_terms, "source_terms_direct", None)
        rng = np.random.default_rng(9)
        s = random_admissible_state(rng, rw.GridSpec(16, 0.02), 1.0)
        y = s.y.copy()
        y[16:] -= y[16] - y[15] + 0.9
        s = with_y(s, y)
        assert (np.maximum.accumulate(y) - y).max() < 1.0
        terms = rw.source_terms_fast(s)
        assert source_terms.is_folded(s.y)
        assert_close_at_scale(terms, direct(s))

    @pytest.mark.parametrize("depth", [0.05, 3.0])
    def test_any_fold_sets_the_step_report_flag(self, depth):
        rng = np.random.default_rng(12)
        s = random_admissible_state(rng, rw.GridSpec(16, 0.2), 1.0)
        s = folded(s, 10, 3, depth)
        assert source_terms.is_folded(s.y)
        # g1 freezes y, so the state the substep ends at is folded
        out, _ = midpoint_substep(s, 0.01, "g1", rw.StepperConfig(dt=0.01))
        assert source_terms.is_folded(out.y)
        cfg = rw.StepperConfig(dt=0.01, scheme="explicit_euler")
        steps = []
        _, run = rw.evolve(s, 0.01, cfg, observers=lambda j, t, st, r: steps.append(r))
        assert steps[1].folded == 1
        # the run counts its folded start state and the step's end state
        assert run.folded == 2
