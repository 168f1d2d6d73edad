"""The peakon-antipeakon collisions (c = 1, separation 1) at three
resolutions: the blow-up of u_x at gamma = 1, which the scheme carries the
energy through, and the folds of y at both collisions."""

import math

import numpy as np
import pytest

import rodwave as rw
from rodwave.stepping import StepperConfig, evolve

# the gamma = 1 collision time, arccosh(e^(s/2)) / sqrt(H) with separation
# s = 1 and H = c^2 (1 - e^(-s)): the exact u is 0 there, and all of
# H_plus sits at one point
T_STAR = math.acosh(math.exp(0.5)) / math.sqrt(1.0 - math.exp(-1.0))


def exact_collision(x, t):
    """u at time t != T_STAR of the conservative gamma = 1 solution from the
    pair at x0 = 0 (Holden & Raynaud, J. Hyperbolic Differ. Equ. 4, 2007):
    u = p (e^(-|x - m + q|) - e^(-|x - m - q|)) with m = x0 + s/2,
    q = ln cosh(sqrt(H) (T_STAR - t)) and p = sqrt(H) coth(sqrt(H) (T_STAR - t)),
    on both sides of T_STAR."""
    root_H = math.sqrt(1.0 - math.exp(-1.0))
    tau = root_H * (T_STAR - t)
    q, p = math.log(math.cosh(tau)), root_H / math.tanh(tau)
    return p * (np.exp(-np.abs(x - 0.5 + q)) - np.exp(-np.abs(x - 0.5 - q)))


def collision(gamma, dxi):
    spec = rw.TravelingWaveSpec(kind="peakon_antipeakon", gamma=gamma, c=1.0, separation=1.0)
    return rw.build_from_spec(spec, rw.GridSpec.from_radius(dxi, 10.0))


def ratios(values):
    return [a / b for a, b in zip(values, values[1:])]


def test_the_energy_collapses_to_a_point_at_the_blow_up():
    # the fraction of H_plus outside the cells with q < dxi, and max |U|,
    # each about halve per dxi halving: 0.198, 0.0977, 0.0484 and 4.62e-2,
    # 2.40e-2, 1.23e-2
    outside, peaks = [], []
    for dxi in (0.2, 0.1, 0.05):
        state, report = evolve(collision(1.0, dxi), T_STAR, StepperConfig(dt=dxi / 4))
        collapsed = dxi * state.h[state.q < dxi].sum() / state.H_plus
        outside.append(1.0 - collapsed)
        peaks.append(float(np.max(np.abs(state.U))))
        assert report.min_q >= 0 and report.min_h >= 0
        assert report.max_inv_drift <= 1e-13
    assert min(ratios(outside)) >= 1.8
    assert min(ratios(peaks)) >= 1.8


def test_the_solution_converges_through_the_blow_up():
    # max_i |U_i - u(y_i, 2)| after the collision at T_STAR about halves per
    # dxi halving: 1.332e-1, 6.988e-2, 3.584e-2
    errors = []
    for dxi in (0.2, 0.1, 0.05):
        state, report = evolve(collision(1.0, dxi), 2.0, StepperConfig(dt=dxi / 4))
        errors.append(float(np.max(np.abs(state.U - exact_collision(state.y, 2.0)))))
        assert report.min_q >= 0 and report.min_h >= 0
        assert report.max_inv_drift <= 1e-13
    assert min(ratios(errors)) >= 1.8


@pytest.mark.parametrize("gamma, t_final", [(1.0, 2.4), (5.0, 0.5)])
def test_folds_are_a_fixed_fraction_of_a_cell_deep(gamma, t_final):
    # this pins what the scheme does today, where y folds while q > 0:
    # the deepest fold over every step is 0.186-0.189 dxi at gamma = 1 and
    # 0.247-0.250 dxi at gamma = 5
    depths = []
    for dxi in (0.1, 0.05, 0.025):
        deepest = []

        def fold_depth(step, t, state, report):
            deepest.append(float(-np.min(np.diff(state.y))))

        _, report = evolve(collision(gamma, dxi), t_final, StepperConfig(dt=dxi),
                           observers=(fold_depth,))
        assert report.folded > 0
        depths.append(max(deepest))
        assert depths[-1] <= 0.3 * dxi
    assert min(ratios(depths)) >= 1.8
