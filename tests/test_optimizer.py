import errno
import itertools
import math
import os
import pickle
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lambda_control import model, optimizer
from lambda_control.model import (
    FRAME_GENERATOR,
    HALF_PI,
    ControlSignal,
    IntegrationError,
    SystemParams,
    default_max_step,
    integrate_full,
    interval_steps,
    optical_pumping_control,
    system_matrix,
)
from lambda_control.optimizer import (
    OptimizationConfig,
    _interval_propagators,
    _rk4_pair_propagators,
    objective,
    objective_and_gradient,
    optimize,
    pumping_baseline,
)
from oracles import (
    assert_no_child,
    fork_paths,
    frame_rotation,
    propagated_rho33,
    system_matrix_dtheta,
)


def _fd_gradient(control, params, eps=1e-5):
    """Central differences of the objective.  The angles may step past the
    bounds, where the discretized dynamics are still defined, so this takes
    rho33 from the interval propagators (``propagated_rho33``), which do
    not check the range."""
    thetas, durations = control.theta, control.durations
    out = np.empty(thetas.size)
    for k, step in enumerate(np.eye(thetas.size) * eps):
        out[k] = (propagated_rho33(thetas + step, durations, params)
                  - propagated_rho33(thetas - step, durations, params)
                  ) / (2 * eps)
    return out


@st.composite
def _schedules(draw):
    """A piecewise schedule on a uniform or random grid, with its params."""
    gamma = draw(st.floats(min_value=0.1, max_value=50.0))
    p = SystemParams(gamma_total=gamma,
                     gamma_diff=gamma * draw(st.floats(-1.0, 1.0)))
    duration = draw(st.floats(min_value=0.5, max_value=100.0))
    n = draw(st.integers(1, 100))
    angle = st.one_of(st.just(0.0), st.just(HALF_PI),
                      st.floats(min_value=0.0, max_value=HALF_PI))
    theta = draw(st.lists(angle, min_size=n, max_size=n))
    if draw(st.booleans()):
        grid = np.linspace(0.0, duration, n + 1)
    else:
        cuts = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                       max_size=n)))
        grid = np.concatenate([[0.0], duration * (cuts / cuts[-1])])
    return ControlSignal(grid, theta), p


class TestObjective:
    def test_pumping_value_large_decay(self):
        p = SystemParams(gamma_total=10.0)
        value = objective(optical_pumping_control(100.0), p)
        assert value == pytest.approx(0.9932620530009145, abs=0.02)

    def test_dark_control_transfers_nothing(self):
        p = SystemParams(gamma_total=10.0)
        assert objective(ControlSignal.constant(0.0, 50.0, 10), p) == 0.0

    def test_matches_adaptive_oracle(self):
        p = SystemParams(gamma_total=2.0)
        control = ControlSignal.constant(math.pi / 4, 10.0, 5)
        oracle = integrate_full(control, p, method="adaptive").final_rho33
        assert objective(control, p) == pytest.approx(oracle, abs=1e-7)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.lists(st.tuples(st.floats(min_value=1e-3, max_value=0.4),
                              st.floats(min_value=0.0, max_value=HALF_PI)),
                    min_size=2, max_size=8))
    def test_matches_integrate_full(self, gamma, asymmetry, intervals):
        # Non-uniform grids whose intervals take different RK4 step counts:
        # the optimizer's per-step-count batching and integrate_full's
        # per-interval propagation must apply the same step rule.
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)
        durations, thetas = (np.array(v) for v in zip(*intervals))
        steps, _ = interval_steps(durations, default_max_step(p))
        assume(np.unique(steps).size > 1)
        control = ControlSignal(np.concatenate([[0.0], np.cumsum(durations)]),
                                thetas)
        assert objective(control, p) == pytest.approx(
            integrate_full(control, p).final_rho33, abs=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(_schedules())
    def test_step_rule_is_within_1e8_of_exact(self, case):
        # The price of the step rule (h <= 0.01, Gamma h <= 0.1): the
        # RK4 objective is within 1e-8 of the exact rho33(T), whose final
        # state is the product of expm(A_k d_k) over the intervals.
        control, p = case
        exact = integrate_full(control, p, method="adaptive").final_state
        state = np.eye(9)[0]
        for P in expm(control.durations[:, None, None]
                      * system_matrix(control.theta, p)):
            state = P @ state
        assert np.abs(exact - state).max() <= 1e-12
        assert abs(objective(control, p) - exact[2]) <= 1e-8

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gamma = rng.uniform(0.2, 12.0)
            p = SystemParams(gamma_total=gamma)
            control = ControlSignal(np.linspace(0, 20, 21),
                                    rng.uniform(0, HALF_PI, 20))
            value = objective(control, p)
            assert -1e-9 <= value <= 1.0 + 1e-9


class TestGradient:
    def test_matches_central_differences_symmetric(self):
        rng = np.random.default_rng(2)
        p = SystemParams(gamma_total=2.0)
        control = ControlSignal(np.linspace(0, 10, 21),
                                rng.uniform(0.1, HALF_PI - 0.1, 20))
        grad = objective_and_gradient(control, p)[1]
        fd = _fd_gradient(control, p)
        mask = np.abs(grad) > 1e-8
        assert mask.any()
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() <= 1e-4

    def test_matches_central_differences_asymmetric(self):
        rng = np.random.default_rng(3)
        p = SystemParams(gamma_total=5.0, gamma_diff=3.0)
        control = ControlSignal(np.linspace(0, 15, 16),
                                rng.uniform(0.1, HALF_PI - 0.1, 15))
        grad = objective_and_gradient(control, p)[1]
        fd = _fd_gradient(control, p)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() <= 1e-4

    def test_dark_corner_is_first_order_flat(self):
        # theta = 0 everywhere: a single-interval perturbation feeds only
        # the decoupled coherence pair, so the gradient vanishes exactly;
        # escape from the dark equilibrium is second order.
        p = SystemParams(gamma_total=2.0)
        control = ControlSignal.constant(0.0, 10.0, 20)
        grad = objective_and_gradient(control, p)[1]
        assert np.allclose(grad, 0.0, atol=1e-14)
        eps = 1e-3
        bump = objective(control.with_theta(np.full(20, eps)), p)
        assert 0.0 < bump < 1e-3  # quadratic, not linear, in eps

    def test_near_dark_gradient_matches_fd(self):
        p = SystemParams(gamma_total=2.0)
        control = ControlSignal.constant(0.05, 10.0, 10)
        grad = objective_and_gradient(control, p)[1]
        fd = _fd_gradient(control, p, eps=1e-6)
        assert np.all(grad > 0.0)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() <= 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 64, 65, 100, 129])
    def test_matches_sequential_reference(self, n):
        # The forward and adjoint recursions one interval at a time, from the
        # same propagators: states[0] = e1 and the last adjoint is e3.
        rng = np.random.default_rng(n)
        gamma = rng.uniform(0.1, 20.0)
        p = SystemParams(gamma_total=gamma,
                         gamma_diff=rng.uniform(-1.0, 1.0) * gamma)
        # Intervals of 1-5 RK4 steps of at most default_max_step each.
        durations = rng.uniform(0.2, 5.0, n) * default_max_step(p)
        control = ControlSignal(np.concatenate([[0.0], np.cumsum(durations)]),
                                rng.uniform(0.0, HALF_PI, n))
        P, G = _interval_propagators(control.theta, durations, p)
        states = [np.eye(6)[0]]
        for Pk in P:
            states.append(Pk @ states[-1])
        expected = np.empty(n)
        adjoint = np.eye(6)[2]
        for k in range(n - 1, -1, -1):
            expected[k] = adjoint @ (G[k] @ states[k])
            adjoint = P[k].T @ adjoint
        value, grad = objective_and_gradient(control, p)
        assert value == pytest.approx(states[-1][2], abs=1e-13)
        assert objective(control, p) == pytest.approx(states[-1][2], abs=1e-13)
        assert grad.shape == (n,)
        assert np.allclose(grad, expected, rtol=0.0, atol=1e-13)
        if n > 1:
            steps, _ = interval_steps(durations, default_max_step(p))
            assert np.unique(steps).size > 1

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.lists(st.tuples(st.floats(min_value=0.05, max_value=2.0),
                              st.floats(min_value=1e-3,
                                        max_value=HALF_PI - 1e-3)),
                    min_size=1, max_size=12))
    def test_matches_central_differences_property(self, gamma, asymmetry,
                                                  intervals):
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)
        durations, thetas = (np.array(v) for v in zip(*intervals))
        control = ControlSignal(np.concatenate([[0.0], np.cumsum(durations)]),
                                thetas)
        grad = objective_and_gradient(control, p)[1]
        fd = _fd_gradient(control, p)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max(initial=0.0) <= 1e-4

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=10.0, max_value=60.0),
           st.floats(min_value=0.5, max_value=120.0),
           st.integers(min_value=2, max_value=100))
    def test_pumping_satisfies_bound_stationarity(self, gamma, duration, n):
        # The full-model side of the paper's claim: at large decay, pumping
        # (theta = pi/2, the upper bound) is a KKT point, i.e. no interval
        # gains from lowering its angle: g_k >= -_GRAD_TOL for every k.
        p = SystemParams(gamma_total=gamma)
        control = ControlSignal.constant(HALF_PI, duration, n)
        grad = objective_and_gradient(control, p)[1]
        assert grad.min() >= -optimizer._GRAD_TOL

    def test_objective_and_gradient_consistent(self):
        p = SystemParams(gamma_total=4.0)
        control = ControlSignal.linear_ramp(0.0, HALF_PI, 8.0, 12)
        value, grad = objective_and_gradient(control, p)
        assert value == pytest.approx(objective(control, p), abs=1e-15)
        assert grad.shape == (12,)


def _pair_path(thetas, durations, params):
    """``_rk4_pair_propagators`` at any decay, called as
    ``_interval_propagators`` is, on the steps of ``interval_steps``."""
    steps, h = interval_steps(durations, default_max_step(params))
    return _rk4_pair_propagators(thetas, steps, h, params)


class TestConjugatedPropagators:
    """The symmetric-decay path against the RK4 pair path it replaces."""

    @settings(deadline=None, max_examples=60)
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.booleans(),
           st.lists(st.tuples(st.floats(min_value=0.05, max_value=1000.0),
                              st.floats(min_value=0.0, max_value=HALF_PI)),
                    min_size=1, max_size=12))
    def test_matches_rk4_pair_path(self, gamma, uniform, intervals):
        # Interval lengths in units of the RK4 step bound: up to 1000 steps
        # per interval, on a uniform or a non-uniform grid.
        p = SystemParams(gamma_total=gamma)
        lengths, thetas = (np.array(v) for v in zip(*intervals))
        lengths = lengths * default_max_step(p)
        if uniform:
            grid = np.linspace(0.0, lengths.sum(), lengths.size + 1)
        else:
            grid = np.concatenate([[0.0], np.cumsum(lengths)])
        durations = np.diff(grid)
        P, _ = _interval_propagators(thetas, durations, p)
        P_ref, _ = _pair_path(thetas, durations, p)
        assert np.abs(P - P_ref).max() <= 1e-12

        # The switching-function gradient against the pair path's dP.
        control = ControlSignal(grid, thetas)
        value, grad = objective_and_gradient(control, p)
        with mock.patch.object(optimizer, "_interval_propagators",
                               _pair_path):
            value_ref, grad_ref = objective_and_gradient(control, p)
        assert abs(value - value_ref) <= 1e-12
        assert np.abs(grad - grad_ref).max() <= 1e-12

    def test_dispatch_follows_decay_symmetry(self):
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0.0, HALF_PI, 7)
        durations = np.full(7, 0.3)
        p = SystemParams(gamma_total=2.0)
        P, G = _interval_propagators(thetas, durations, p)
        # The conjugation of the grid plan's P0, not the pair path.
        P0 = optimizer._grid_plan(durations.tobytes(), p)[2]
        R, R_inv = model._frame_rotation_x(thetas)
        assert np.array_equal(P, R @ P0 @ R_inv)
        assert G is None  # the symmetric gradient needs no dP
        control = ControlSignal(np.arange(8) * 0.3, thetas)
        grad = objective_and_gradient(control, p)[1]
        ref_grad = _ref_objective_and_gradient(control, p)[1]
        assert np.abs(grad - ref_grad).max() <= 1e-12

        p = SystemParams(gamma_total=2.0, gamma_diff=0.5)
        P, G = _interval_propagators(thetas, durations, p)
        P_path, G_path = _pair_path(thetas, durations, p)
        assert np.array_equal(P, P_path) and np.array_equal(G, G_path)
        assert optimizer._grid_plan(durations.tobytes(), p)[2] is None


# The optimizer's arithmetic as plain expressions, written independently
# of its kernels.  The asymmetric-decay derivative comes from the RK4 step
# and power of the 12x12 block [[A, dA], [0, A]], an independent
# formulation of the optimizer's (M, dM) pairs: their P agrees byte for
# byte, their dP to roundoff.

def _ref_rk4_step_matrix(A, h):
    h = np.asarray(h, dtype=float)[..., None, None]
    B = h * A
    B2 = B @ B
    B3 = B2 @ B
    B4 = B3 @ B
    M = B + B2 / 2.0 + B3 / 6.0 + B4 / 24.0
    idx = np.arange(A.shape[-1])
    M[..., idx, idx] += 1.0
    return M


def _ref_matrix_powers(one_step, steps):
    powered = np.empty_like(one_step)
    for m in np.unique(steps):
        sel = steps == m
        powered[sel] = np.linalg.matrix_power(one_step[sel], int(m))
    return powered


def _ref_propagators(thetas, durations, params):
    """P_k and dP_k/dtheta_k: conjugated P0 for symmetric decay, else the
    RK4 step and power of [[A, dA], [0, A]] with dA sliced from the 9x9
    system_matrix_dtheta."""
    x = 6
    h_max = default_max_step(params)
    if params.is_symmetric:
        unique, inverse = np.unique(durations, return_inverse=True)
        steps, h = interval_steps(unique, h_max)
        A0 = system_matrix(0.0, params)[:x, :x]
        P0 = _ref_matrix_powers(_ref_rk4_step_matrix(A0, h), steps)[inverse]
        R, R_inv = frame_rotation(thetas)
        P = R[:, :x, :x] @ P0 @ R_inv[:, :x, :x]
        K = FRAME_GENERATOR[:x, :x]
        return P, K @ P - P @ K
    steps, h = interval_steps(durations, h_max)
    A = system_matrix(thetas, params)[:, :x, :x]
    block = np.zeros((thetas.size, 2 * x, 2 * x))
    block[:, :x, :x] = block[:, x:, x:] = A
    block[:, :x, x:] = system_matrix_dtheta(thetas, params)[:, :x, :x]
    powered = _ref_matrix_powers(_ref_rk4_step_matrix(block, h), steps)
    return powered[:, :x, :x], powered[:, :x, x:]


def _ref_objective_and_gradient(control, params):
    P, G = _ref_propagators(control.theta, control.durations, params)
    n = control.n_intervals
    C = np.stack([P, P[::-1].transpose(0, 2, 1)])
    shift = 1
    while shift < n:
        C[..., shift:, :, :] = C[..., shift:, :, :] @ C[..., :n - shift, :, :]
        shift *= 2
    forward, backward = C
    unit = np.eye(6)
    states = np.concatenate([unit[:1], forward[:-1, :, 0]])
    adjoints = np.concatenate([backward[:n - 1][::-1, :, 2], unit[2:3]])
    grad = np.einsum("ki,kij,kj->k", adjoints, G, states)
    return float(forward[-1, 2, 0]), grad


def _assert_matches_reference(control, params):
    """P and the objective byte for byte; the gradient, and asymmetric dP,
    within 1e-12.  Symmetric decay returns no dP: its gradient comes from
    the switching function."""
    thetas, durations = control.theta, control.durations
    P, G = _interval_propagators(thetas, durations, params)
    P_ref, G_ref = _ref_propagators(thetas, durations, params)
    assert P.tobytes() == P_ref.tobytes()
    if params.is_symmetric:
        assert G is None
    else:
        assert np.abs(G - G_ref).max() <= 1e-12
    value, grad = objective_and_gradient(control, params)
    ref_value, ref_grad = _ref_objective_and_gradient(control, params)
    assert value.hex() == ref_value.hex()
    assert np.abs(grad - ref_grad).max() <= 1e-12
    assert objective(control, params).hex() == ref_value.hex()


# Step counts per interval: the short cuts of matrix_power (1-3), binary
# decompositions, and the 100 steps of the benchmark's asymmetric cell.
_STEP_COUNTS = [1, 2, 3, 4, 5, 17, 100]


@st.composite
def _propagator_cases(draw, n=st.integers(1, 130), signs=(0.0, 1.0, -1.0)):
    gamma = draw(st.floats(0.1, 50.0))
    sign = draw(st.sampled_from(signs))
    params = SystemParams(gamma_total=gamma,
                          gamma_diff=sign * draw(st.floats(0.0, 1.0)) * gamma)
    n = draw(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Just under whole multiples of the step bound, so each interval takes
    # exactly its drawn number of steps.
    h = 0.999 * default_max_step(params)
    if draw(st.booleans()):
        grid = np.linspace(0.0, n * draw(st.sampled_from(_STEP_COUNTS)) * h,
                           n + 1)
    else:
        steps = rng.choice(draw(st.lists(st.sampled_from(_STEP_COUNTS),
                                         min_size=1, max_size=3)), n)
        grid = np.concatenate([[0.0], np.cumsum(steps * h)])
    # Angles at both bounds as well as inside, where exact zeros of both
    # signs enter the generator.
    theta = rng.uniform(0.0, HALF_PI, n)
    at = rng.random(n)
    theta[at < 0.2] = 0.0
    theta[at > 0.8] = HALF_PI
    return ControlSignal(grid, theta), params


class TestReferenceExpressions:
    """The optimizer's propagators, objective and gradient match the
    reference expressions above, whatever grids and threads evaluated
    before them."""

    @settings(deadline=None, max_examples=80)
    @given(_propagator_cases())
    def test_equals_allocating_reference(self, case):
        _assert_matches_reference(*case)

    @settings(deadline=None, max_examples=25)
    @given(_propagator_cases(n=st.integers(1, 40)),
           _propagator_cases(n=st.integers(41, 130)),
           st.integers(0, 2**32 - 1))
    def test_interleaved_grids_leave_no_stale_state(self, case_a, case_b,
                                                    seed):
        # Grid A, grid B of another N, then A again at new angles: the
        # second visit to A's arrays must not see B's or A's first values.
        (control_a, params_a), (control_b, params_b) = case_a, case_b
        rng = np.random.default_rng(seed)
        again = control_a.with_theta(
            rng.uniform(0.0, HALF_PI, control_a.n_intervals))
        for control, params in ((control_a, params_a),
                                (control_b, params_b),
                                (again, params_a),
                                (again, params_b)):
            _assert_matches_reference(control, params)

    @pytest.mark.parametrize("gamma_diff", [0.0, 8.0])
    def test_returned_arrays_survive_later_calls(self, gamma_diff):
        p = SystemParams(gamma_total=10.0, gamma_diff=gamma_diff)
        rng = np.random.default_rng(12)
        grid = np.linspace(0.0, 100.0, 101)
        first = ControlSignal(grid, rng.uniform(0.0, HALF_PI, 100))
        second = first.with_theta(rng.uniform(0.0, HALF_PI, 100))
        P, G = _interval_propagators(first.theta, first.durations, p)
        value, grad = objective_and_gradient(first, p)
        # Symmetric decay returns no dP (G is None).
        returned = [a for a in (P, G, grad) if a is not None]
        saved = [a.copy() for a in returned]
        _interval_propagators(second.theta, second.durations, p)
        objective_and_gradient(second, p)
        objective(second, p)
        for a, b in zip(returned, saved):
            assert a.tobytes() == b.tobytes()
        assert value == objective(first, p)

    def test_concurrent_threads_get_single_thread_bits(self):
        # Two threads evaluate at once, on grids of the same N (so the same
        # array shapes) but different parameters and angles.
        rng = np.random.default_rng(13)
        n = 100
        cases = [
            (ControlSignal(np.linspace(0.0, 100.0, n + 1),
                           rng.uniform(0.0, HALF_PI, n)),
             SystemParams(gamma_total=10.0, gamma_diff=8.0)),
            (ControlSignal(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.2, 1.0, n))]),
                rng.uniform(0.0, HALF_PI, n)),
             SystemParams(gamma_total=2.0, gamma_diff=-1.5)),
        ]
        expected = [objective_and_gradient(c, p) for c, p in cases]
        barrier = threading.Barrier(2, timeout=60.0)

        def run(case):
            barrier.wait()
            return [objective_and_gradient(*case) for _ in range(40)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(run, cases, timeout=120.0))
        finally:
            sys.setswitchinterval(interval)
        for (value, grad), runs in zip(expected, results):
            for got_value, got_grad in runs:
                assert got_value.hex() == value.hex()
                assert got_grad.tobytes() == grad.tobytes()


class TestSwitchingFunction:
    """Symmetric decay: the gradient is g_k = Phi_{k+1} - Phi_k, with
    Phi_j = lambda_j^T K x_j, on random grids, decay rates and angles that
    touch both bounds."""

    @settings(deadline=None, max_examples=40)
    @given(_propagator_cases(n=st.integers(1, 40), signs=(0.0,)))
    def test_matches_central_differences(self, case):
        # Truncation (eps^2 times the third derivative over 6) and roundoff
        # (~1e-15 / eps) are both far below 1e-7 at eps = 1e-5.
        control, params = case
        fd = _fd_gradient(control, params)
        grad = objective_and_gradient(control, params)[1]
        assert np.abs(grad - fd).max() <= 1e-7

    @settings(deadline=None, max_examples=80)
    @given(_propagator_cases(signs=(0.0,)))
    def test_sum_is_phi_N_minus_phi_0(self, case):
        # Phi_0 = lambda_0^T K e1 and Phi_N = e3^T K x_N, from the
        # propagators one interval at a time.
        control, params = case
        P, _ = _interval_propagators(control.theta, control.durations,
                                     params)
        e1, e3 = np.eye(6)[0], np.eye(6)[2]
        state, adjoint = e1, e3
        for P_k in P:
            state = P_k @ state
        for P_k in P[::-1]:
            adjoint = adjoint @ P_k
        K = FRAME_GENERATOR[:6, :6]
        phi_0, phi_N = adjoint @ K @ e1, e3 @ K @ state
        grad = objective_and_gradient(control, params)[1]
        assert abs(grad.sum() - (phi_N - phi_0)) <= 1e-14

    @settings(deadline=None, max_examples=60)
    @given(_propagator_cases(signs=(0.0,)))
    def test_vanishes_at_pumping(self, case):
        # With the Stokes field off, (x5, x6) never feed the populations,
        # so Phi vanishes along pumping: a singular extremal.
        control, params = case
        pumping = control.with_theta(np.full(control.n_intervals, HALF_PI))
        grad = objective_and_gradient(pumping, params)[1]
        assert np.abs(grad).max() <= 1e-15


class TestPairPropagators:
    """The asymmetric-decay (M, dM) pair path."""

    @pytest.mark.parametrize("count", _STEP_COUNTS)
    def test_pair_P_is_the_matrix_power_P(self, count):
        # Every interval takes `count` RK4 steps: the matrix_power short
        # cuts and binary decompositions, each mirrored by _pair_power.
        p = SystemParams(gamma_total=10.0, gamma_diff=8.0)
        rng = np.random.default_rng(count)
        n = 30
        h = 0.999 * default_max_step(p)
        durations = np.full(n, count * h)
        thetas = rng.uniform(0.0, HALF_PI, n)
        thetas[:3] = (0.0, HALF_PI, 0.0)
        P, dP = _pair_path(thetas, durations, p)
        steps, h = interval_steps(durations, default_max_step(p))
        A = system_matrix(thetas, p)[:, :6, :6]
        want = _ref_matrix_powers(_ref_rk4_step_matrix(A, h), steps)
        assert np.array_equal(steps, np.full(n, count))
        assert P.tobytes() == want.tobytes()
        dP_ref = _ref_propagators(thetas, durations, p)[1]
        assert np.abs(dP - dP_ref).max() <= 1e-12


class TestGridPlan:
    """The cached per-grid plan (``_grid_plan``): step counts, step sizes
    and, for symmetric decay, each interval's P0."""

    def test_entries_stay_isolated(self):
        # 16 cases, twice the cache size, visited twice in shuffled order:
        # entries are evicted and rebuilt, and uniform grids share their
        # duration bytes across Gamma.
        rng = np.random.default_rng(11)
        cases = []
        for gamma, n, T, uniform in itertools.product(
                (2.0, 3.0), (7, 9), (1.0, 2.0), (True, False)):
            if uniform:
                grid = np.linspace(0.0, T, n + 1)
            else:
                grid = np.concatenate(
                    [[0.0], np.cumsum(rng.uniform(0.2, 1.0, n))])
                grid *= T / grid[-1]
            cases.append((rng.uniform(0.0, HALF_PI, n), np.diff(grid),
                          SystemParams(gamma_total=gamma)))
        built = {}
        for i in itertools.chain(rng.permutation(len(cases)),
                                 rng.permutation(len(cases))):
            thetas, durations, p = cases[i]
            P, _ = _interval_propagators(thetas, durations, p)
            P_ref, _ = _pair_path(thetas, durations, p)
            assert np.abs(P - P_ref).max() <= 1e-12
            built.setdefault(i, []).append(P)
        for i, (thetas, durations, p) in enumerate(cases):
            optimizer._grid_plan.cache_clear()
            fresh_P, _ = _interval_propagators(thetas, durations, p)
            for P in built[i]:
                assert np.array_equal(P, fresh_P)

    @pytest.mark.parametrize("diff_1, diff_2", [
        (0.0, 0.0), (0.0, 1.5), (1.5, 0.0), (1.5, -1.0)])
    def test_params_switch_gives_fresh_bits(self, diff_1, diff_2):
        # One grid under p1, then p2, then p1 again: every evaluation must
        # be the one a cleared cache gives.
        rng = np.random.default_rng(14)
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 20))])
        control = ControlSignal(grid, rng.uniform(0.0, HALF_PI, 20))
        p1 = SystemParams(gamma_total=3.0, gamma_diff=diff_1)
        p2 = SystemParams(gamma_total=5.0, gamma_diff=diff_2)
        runs = [(p, objective(control, p), *objective_and_gradient(control, p))
                for p in (p1, p2, p1)]
        for p, value, grad_value, grad in runs:
            optimizer._grid_plan.cache_clear()
            fresh_grad_value, fresh_grad = objective_and_gradient(control, p)
            assert value.hex() == objective(control, p).hex()
            assert grad_value.hex() == fresh_grad_value.hex()
            assert grad.tobytes() == fresh_grad.tobytes()

    def test_cached_array_is_read_only(self):
        durations = np.full(5, 0.4)
        steps, h, P0 = optimizer._grid_plan(durations.tobytes(),
                                            SystemParams(gamma_total=2.0))
        plan = optimizer._grid_plan(
            durations.tobytes(), SystemParams(gamma_total=2.0, gamma_diff=1.0))
        assert plan[2] is None  # asymmetric decay builds no P0
        for cached in (steps, h, P0, *plan[:2]):
            with pytest.raises(ValueError):
                cached[0] = 1


class TestConfigs:
    @pytest.mark.parametrize("field, value, message", [
        # range() failed on it later.
        ("max_iters", 2.5, "max_iters must be an integer >= 0, got 2.5"),
        # Slicing failed inside optimize.
        ("n_starts", 1.5, "n_starts must be an integer >= 1, got 1.5"),
        # numpy failed on it.
        ("n_intervals", 2.5, "n_intervals must be an integer >= 2, got 2.5"),
        # Ran as one start.
        ("n_starts", True, "n_starts must be an integer >= 1, got True"),
        ("n_intervals", np.float64(10.0),
         "n_intervals must be an integer >= 2, got 10.0"),
    ])
    def test_non_integer_field_is_named(self, field, value, message):
        with pytest.raises(ValueError) as info:
            OptimizationConfig(**{field: value})
        assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        config = OptimizationConfig(n_intervals=np.int64(4),
                                    max_iters=np.int32(0),
                                    n_starts=np.uint8(1))
        result = optimize(config, SystemParams(gamma_total=1.0), 2.0)
        assert result.control.n_intervals == 4
        assert result.winner.iterations == 0


class TestOptimize:
    def test_moderate_decay_smoke(self):
        config = OptimizationConfig(n_intervals=40, max_iters=120,
                                    n_starts=4, seed=0)
        p = SystemParams(gamma_total=2.0)
        result = optimize(config, p, 10.0)
        # Monotone ascent and bound feasibility.
        assert np.all(np.diff(result.history) >= 0.0)
        assert result.control.theta.min() >= 0.0
        assert result.control.theta.max() <= HALF_PI
        assert 0.0 <= result.objective <= 1.0
        # Winner dominates every initialization.
        for record in result.starts:
            assert result.objective >= record.initial_objective - 1e-12
        assert result.objective >= pumping_baseline(p, 10.0) - 1e-12

    def test_pumping_is_stationary_at_large_decay(self):
        config = OptimizationConfig(n_intervals=50, max_iters=100, seed=0)
        p = SystemParams(gamma_total=10.0)
        start = [("pumping", np.full(50, HALF_PI))]
        result = optimize(config, p, 35.0, starts=start)
        assert result.winner.converged
        assert abs(result.history[-1] - result.history[0]) <= 1e-4
        assert result.winner.iterations == 0

    def test_tie_break_prefers_smooth_winner(self):
        # At large decay several starts reach the pumping objective; the
        # zero-variation pumping start must win the tie.
        config = OptimizationConfig(n_intervals=30, max_iters=150,
                                    n_starts=4, seed=1)
        p = SystemParams(gamma_total=10.0)
        result = optimize(config, p, 35.0)
        assert result.winner.label == "pumping"
        assert result.control.total_variation() == 0.0

    @pytest.mark.parametrize("path", ["serial", "forked"])
    def test_winner_is_its_start_record(self, path):
        # The tie-break of optimize's docstring, taken from the records:
        # the winner is that start's own record, with its angles and
        # history, also when its record came through the child's pipe.
        config = OptimizationConfig(n_intervals=12, max_iters=40,
                                    n_starts=5, seed=3)
        with fork_paths()[path]:
            result = optimize(config, SystemParams(gamma_total=2.0), 6.0)
        records = result.starts
        best = max(r.objective for r in records)
        floor = max(r.initial_objective for r in records) - 1e-12
        index = min((i for i, r in enumerate(records)
                     if r.objective >= best - 1e-6 and r.objective >= floor),
                    key=lambda i: (records[i].total_variation, i))
        assert result.winner is records[index]
        assert result.history is result.winner.history
        assert result.control.theta.tobytes() == \
            result.winner.theta.tobytes()
        assert result.objective == result.winner.objective
        assert result.winner.history[-1] == result.winner.objective

    def test_small_decay_beats_pumping(self):
        config = OptimizationConfig(n_intervals=40, max_iters=200,
                                    n_starts=4, seed=0)
        p = SystemParams(gamma_total=0.1)
        result = optimize(config, p, 5.0)
        assert result.objective > pumping_baseline(p, 5.0) + 0.1

    def test_small_decay_cell_converges_on_every_start(self):
        # Gamma/omega0 = 0.1, omega0 T = 10 at the default configuration:
        # the slowest regime for the ascent, far from pumping.
        p = SystemParams(gamma_total=0.1)
        result = optimize(OptimizationConfig(), p, 10.0)
        assert result.winner.converged
        assert all(record.converged for record in result.starts)
        assert max(record.iterations for record in result.starts) <= 150
        assert result.objective >= 0.95363
        assert np.all(np.diff(result.history) >= 0.0)
        for record in result.starts:
            assert result.objective >= record.initial_objective
            # One evaluation per accepted step at least, plus the one at
            # the start.
            assert record.nfev >= record.iterations + 1
        again = optimize(OptimizationConfig(), p, 10.0)
        assert again.control.theta.tobytes() == result.control.theta.tobytes()

    @pytest.mark.parametrize("gamma, gamma_diff, duration", [
        (0.5, 0.0, 8.0),
        (4.0, 2.0, 10.0),
    ])
    def test_nfev_counts_every_propagator_build(self, gamma, gamma_diff,
                                                duration):
        # Every evaluated point is one public objective_and_gradient call,
        # which builds the propagators once: nfev counts the calls, and no
        # start evaluates a theta twice.
        calls = []
        real = optimizer.objective_and_gradient

        def counting(control, params):
            calls.append(control.theta.tobytes())
            return real(control, params)

        config = OptimizationConfig(n_intervals=16, max_iters=60, n_starts=4,
                                    seed=2)
        p = SystemParams(gamma_total=gamma, gamma_diff=gamma_diff)
        starts = optimizer.default_starts(config,
                                          np.random.default_rng(config.seed))
        # The mock counts only this process's calls: keep every start here.
        with mock.patch.object(optimizer, "objective_and_gradient",
                               counting), fork_paths()["serial"]:
            result = optimize(config, p, duration, starts=starts)
        assert sum(record.nfev for record in result.starts) == len(calls)

        end = 0
        for (_, theta0), record in zip(starts, result.starts):
            block, end = calls[end:end + record.nfev], end + record.nfev
            assert block[0] == np.clip(theta0, 0.0, HALF_PI).tobytes()
            assert len(set(block)) == len(block)

    def test_line_search_failure_reports_not_converged(self):
        # Start at an already-optimized point with an unreachable gradient
        # tolerance and a single absurd trial step: nothing can improve, so
        # the result is the diagnostic converged=False.
        p = SystemParams(gamma_total=0.1)
        warm = optimize(
            OptimizationConfig(n_intervals=20, max_iters=200, seed=0),
            p, 5.0,
            starts=[("ramp", HALF_PI * (np.arange(20) + 0.5) / 20)])
        assert warm.winner.converged
        config = OptimizationConfig(n_intervals=20, max_iters=5, seed=0)
        with (mock.patch.object(optimizer, "_GRAD_TOL", 1e-30),
              mock.patch.object(optimizer, "_INITIAL_STEP", 1e9),
              mock.patch.object(optimizer, "_MAX_BACKTRACKS", 1)):
            result = optimize(config, p, 5.0,
                              starts=[("stall", warm.control.theta)])
        assert not result.winner.converged
        assert result.starts[0].stop == "line_search"
        assert result.winner.iterations == 0
        assert result.objective == pytest.approx(
            result.starts[0].initial_objective, abs=1e-15)

    @pytest.mark.parametrize("gamma, duration", [(10.0, 35.0), (2.0, 10.0)])
    def test_stop_test_is_taken_at_the_last_iterate(self, gamma, duration):
        # A start that meets the stop test after K iterations meets it too
        # when max_iters = K runs out on the same iterate, and one iteration
        # fewer stops it unconverged.  At Gamma 10 the pumping start is
        # stationary: K = 0.
        p = SystemParams(gamma_total=gamma)
        config = OptimizationConfig(n_intervals=20, n_starts=3)
        starts = optimizer.default_starts(config, np.random.default_rng(0))
        for start in starts:
            free = optimize(config, p, duration, starts=[start])
            assert free.winner.converged
            assert free.starts[0].stop == "converged"
            iterations = free.winner.iterations
            capped = optimize(
                OptimizationConfig(n_intervals=20, max_iters=iterations,
                                   n_starts=1),
                p, duration, starts=[start])
            assert capped.starts == free.starts
            if iterations == 0:
                continue
            short = optimize(
                OptimizationConfig(n_intervals=20, max_iters=iterations - 1,
                                   n_starts=1),
                p, duration, starts=[start])
            assert not short.winner.converged
            assert short.starts[0].stop == "max_iters"

    def test_restart_step_expands_along_a_convex_path(self):
        # A convex, increasing objective: every curvature pair fails
        # s^T y > 0, so each iteration is a projected-gradient restart.
        # theta_0, of slope 0.45, reaches 1.35 after the steps 1 and 2, and
        # the next doubling would step 1.8 rad, past the cap.  The other
        # angles, of slope 1e-3, would crawl to the upper corner over 1000
        # iterations at a fixed first step of 1; doubling takes 11.
        n = 10
        slopes = np.full(n, 1e-3)
        slopes[0] = 0.45
        evaluated, targets = [], []

        def convex(control, params):
            theta = control.theta
            evaluated.append(theta.copy())
            return (slopes @ theta + 0.5e-4 * (theta @ theta),
                    slopes + 1e-4 * theta)

        class ClipRecordingNumpy:
            # numpy for the optimizer module, recording what it clips: on a
            # restart, the trial theta + step * pg before the clip.
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def clip(values, low, high):
                targets.append(np.array(values, dtype=float))
                return np.clip(values, low, high)

        config = OptimizationConfig(n_intervals=n, max_iters=2000, n_starts=1)
        with mock.patch.object(optimizer, "objective_and_gradient", convex), \
                mock.patch.object(optimizer, "np", ClipRecordingNumpy()):
            result = optimize(config, SystemParams(gamma_total=1.0), 5.0,
                              starts=[("zero", np.zeros(n))])
        record = result.starts[0]
        assert record.stop == "converged"
        assert record.nfev == len(evaluated) <= 20
        assert np.all(result.control.theta == HALF_PI)
        assert len({theta.tobytes() for theta in evaluated}) == len(evaluated)
        # Every trial improves, so each is its restart's first and only one,
        # taken from the point evaluated before it; the first clip is the
        # start's.  No first trial steps past the cap HALF_PI / max|pg|.
        assert len(targets) == len(evaluated)
        for base, target in zip(evaluated, targets[1:]):
            assert np.max(np.abs(target - base)) <= HALF_PI * (1.0 + 1e-12)

    @pytest.mark.parametrize("gamma, duration", [(2.0, 10.0), (10.0, 35.0)])
    def test_intuitive_ramp_no_longer_crawls(self, gamma, duration):
        # Along the intuitive ramp rho33 is convex: a fixed restart step of
        # 1 took 72 and 79 evaluations here.  Pumping still wins.
        result = optimize(OptimizationConfig(), SystemParams(gamma_total=gamma),
                          duration)
        ramp = {r.label: r for r in result.starts}["intuitive_ramp"]
        assert ramp.converged
        assert ramp.nfev <= 25
        assert result.winner.label == "pumping"
        assert result.control.theta.tobytes() == np.full(100, HALF_PI).tobytes()

    def test_asymmetric_cell_needs_fewer_evaluations(self):
        # Gamma 10, gamma_diff 8, omega0 T 100: a fixed restart step of 1
        # took 232 evaluations over the six starts and won with
        # 0.776935803431.
        result = optimize(OptimizationConfig(),
                          SystemParams(gamma_total=10.0, gamma_diff=8.0), 100.0)
        assert sum(r.nfev for r in result.starts) <= 180
        assert result.objective >= 0.776935803431 - optimizer._TIE_TOL

    def test_initial_objective_is_objective_at_clipped_start(self):
        config = OptimizationConfig(n_intervals=12, max_iters=20, seed=0)
        grid = np.linspace(0.0, 6.0, 13)
        starts = [("wide", np.linspace(-0.5, 2.0, 12)),
                  ("ramp", HALF_PI * (np.arange(12) + 0.5) / 12)]
        for p in (SystemParams(gamma_total=2.0),
                  SystemParams(gamma_total=2.0, gamma_diff=1.0)):
            result = optimize(config, p, 6.0, starts=starts)
            for (label, theta0), record in zip(starts, result.starts):
                expected = objective(
                    ControlSignal(grid, np.clip(theta0, 0.0, HALF_PI)), p)
                assert record.initial_objective.hex() == expected.hex()

    def test_grid_short_of_horizon_rejected_like_integrate_full(self):
        T = 10.0
        control = ControlSignal(np.linspace(0.0, T * (1.0 - 5e-10), 11),
                                np.full(10, 0.7))
        p = SystemParams(gamma_total=2.0)
        with pytest.raises(ValueError, match="^T must equal the control's "):
            integrate_full(control, p, T)

    @pytest.mark.parametrize("T", [1e-11, 0.5])
    def test_grid_short_of_short_horizon_rejected(self, T):
        # The objective and integrate_full both run a control to its grid's
        # end: integrate_full rejects any other T, with no slack, and
        # without one the two agree on the short grid.
        p = SystemParams(gamma_total=2.0)
        for end in (0.95 * T, T * (1.0 - 2e-12), T * (1.0 - 5e-13)):
            control = ControlSignal([0.0, end], [0.3])
            with pytest.raises(ValueError,
                               match="^T must equal the control's "):
                integrate_full(control, p, T)
            assert objective(control, p) == pytest.approx(
                integrate_full(control, p).final_rho33, abs=1e-12)

    @pytest.mark.parametrize("asymmetry", [0.0, 0.5])
    def test_step_count_past_int64_rejected(self, asymmetry):
        # 1e20 RK4 steps per horizon: a ValueError before any work, not a
        # cast warning and a garbage optimum.
        p = SystemParams(gamma_total=10.0, gamma_diff=10.0 * asymmetry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step counts"):
                optimize(OptimizationConfig(n_intervals=4, n_starts=1,
                                            max_iters=2), p, 1e18)

    @staticmethod
    def _rejected_before_any_ascent(bad, message):
        # Every start is checked before the first ascent or fork.
        config = OptimizationConfig(n_intervals=10)
        starts = [("good", np.full(10, 0.2)), ("bad", bad)]
        with mock.patch.object(optimizer, "_ascend",
                               side_effect=AssertionError("ascended")), \
                mock.patch.object(os, "fork",
                                  side_effect=AssertionError("forked")):
            with pytest.raises(ValueError, match=message):
                optimize(config, SystemParams(gamma_total=1.0), 5.0,
                         starts=starts)

    def test_bad_start_shape_rejected(self):
        self._rejected_before_any_ascent(
            np.zeros(7), r"^start 'bad' has shape \(7,\), expected \(10,\)$")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, value):
        bad = np.full(10, 0.5)
        bad[3] = value
        self._rejected_before_any_ascent(bad,
                                         "^start 'bad' has non-finite values$")

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError, match="^starts must "):
            optimize(OptimizationConfig(n_intervals=10),
                     SystemParams(gamma_total=1.0), 5.0, starts=[])


def _assert_bit_equal(got, want):
    assert [repr(r) for r in got.starts] == [repr(r) for r in want.starts]
    for g, w in zip(got.starts, want.starts):
        assert g.theta.tobytes() == w.theta.tobytes()
        assert g.history.tobytes() == w.history.tobytes()
    assert got.winner.label == want.winner.label
    assert got.objective.hex() == want.objective.hex()
    assert got.control.theta.tobytes() == want.control.theta.tobytes()
    assert got.history.tobytes() == want.history.tobytes()


def _indexed_starts(count, n=8):
    """Starts whose first angle encodes their index: 0.1 * index."""
    return [(f"s{i}", np.full(n, 0.1 * i)) for i in range(count)]


def _start_index(theta0):
    return round(theta0[0] * 10)


class TestTwoProcesses:
    """``_ascend_all`` in a forked child and this process, against the
    serial loop."""

    config = OptimizationConfig(n_intervals=8, max_iters=20, n_starts=4)
    params = SystemParams(gamma_total=2.0)

    def _optimize(self, path, starts):
        with fork_paths()[path]:
            return optimize(self.config, self.params, 5.0, starts=starts)

    @pytest.mark.parametrize("gamma_diff", [0.0, 1.5])
    def test_ascend_all_records_are_bit_equal(self, gamma_diff):
        p = SystemParams(gamma_total=2.0, gamma_diff=gamma_diff)
        grid = np.linspace(0.0, 5.0, 9)
        starts = _indexed_starts(5)
        records = {}
        for path, patch in fork_paths().items():
            with patch, mock.patch.object(os, "fork", wraps=os.fork) as fork:
                records[path] = optimizer._ascend_all(starts, grid, p,
                                                      self.config)
            assert fork.called == (path == "forked")
        assert_no_child()
        serial, forked = records["serial"], records["forked"]
        assert [r.label for r in serial] == [label for label, _ in starts]
        assert forked == serial
        for got, want in zip(forked, serial):
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got.history.tobytes() == want.history.tobytes()

    @pytest.mark.parametrize("gamma_diff", [0.0, 1.5])
    def test_paths_are_bit_equal(self, gamma_diff):
        p = SystemParams(gamma_total=2.0, gamma_diff=gamma_diff)
        for n_starts in range(1, 8):
            config = OptimizationConfig(n_intervals=10, max_iters=30,
                                        n_starts=n_starts, seed=5)
            results = {}
            for path, patch in fork_paths().items():
                with patch, mock.patch.object(os, "fork",
                                              wraps=os.fork) as fork:
                    results[path] = optimize(config, p, 8.0)
                assert fork.called == (path == "forked")
            _assert_bit_equal(results["forked"], results["serial"])
        assert_no_child()

    @pytest.mark.parametrize("failing", [(1,), (1, 2), (2, 3), (0, 1)])
    @pytest.mark.parametrize("error", [
        lambda index: FloatingPointError(f"start {index} escaped"),
        lambda index: IntegrationError(f"start {index} blew up", index / 4),
    ])
    def test_lowest_failing_start_raises_as_in_serial(self, failing, error):
        real = optimizer._ascend

        def ascend(label, theta0, *args):
            if _start_index(theta0) in failing:
                raise error(_start_index(theta0))
            return real(label, theta0, *args)

        expected = error(min(failing))
        raised = {}
        with mock.patch.object(optimizer, "_ascend", ascend):
            for path in ("serial", "forked"):
                with pytest.raises(type(expected)) as excinfo:
                    self._optimize(path, _indexed_starts(5))
                raised[path] = excinfo.value
                assert_no_child()
        serial, forked = raised["serial"], raised["forked"]
        assert type(forked) is type(serial)
        assert str(forked) == str(serial) == str(expected)
        assert getattr(forked, "last_time", None) == \
            getattr(serial, "last_time", None)

    @pytest.mark.parametrize("failure", ["exit_status_3", "truncated"])
    def test_child_failure_reruns_the_serial_loop(self, failure):
        parent = os.getpid()
        real_ascend, real_dumps = optimizer._ascend, pickle.dumps

        def ascend(label, theta0, *args):
            if os.getpid() != parent:
                os._exit(3)
            return real_ascend(label, theta0, *args)

        patch = {"exit_status_3": mock.patch.object(optimizer, "_ascend",
                                                    ascend),
                 "truncated": mock.patch.object(
                     pickle, "dumps", lambda obj: real_dumps(obj)[:-3]),
                 }[failure]
        starts = _indexed_starts(4)
        with patch:
            forked = self._optimize("forked", starts)
        assert_no_child()
        _assert_bit_equal(forked, self._optimize("serial", starts))

    def test_failed_pipe_ascends_every_start_here(self):
        # No descriptors to be had: the serial loop runs, not an OSError.
        starts = _indexed_starts(4)
        with mock.patch.object(os, "pipe", side_effect=OSError(
                errno.EMFILE, "Too many open files")), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            forked = self._optimize("forked", starts)
        assert not fork.called
        _assert_bit_equal(forked, self._optimize("serial", starts))
        assert_no_child()

    def test_healthy_call_ascends_the_even_starts_here(self):
        # A silent fallback to the serial loop would cost only wall time.
        # The child appends to its own copy of the list.
        real = optimizer._ascend
        here = []

        def ascend(label, theta0, *args):
            here.append(_start_index(theta0))
            return real(label, theta0, *args)

        with mock.patch.object(optimizer, "_ascend", ascend):
            self._optimize("forked", _indexed_starts(5))
        assert here == [0, 2, 4]
        assert_no_child()

    def test_interrupt_in_this_process_kills_the_child(self):
        parent = os.getpid()
        real = optimizer._ascend

        def ascend(label, theta0, *args):
            if os.getpid() != parent:
                time.sleep(30.0)
            elif _start_index(theta0) == 0:
                raise KeyboardInterrupt
            return real(label, theta0, *args)

        began = time.perf_counter()
        with mock.patch.object(optimizer, "_ascend", ascend):
            with pytest.raises(KeyboardInterrupt):
                self._optimize("forked", _indexed_starts(4))
        assert time.perf_counter() - began < 10.0
        assert_no_child()

    def test_fork_needs_two_cpus_one_thread_and_two_starts(self,
                                                           monkeypatch):
        # 8 intervals x 4 starts x 1000 iterations is above the work a
        # fork needs (optimizer._ITERATION_SECONDS_PER_INTERVAL); the starts
        # converge long before 1000 iterations.
        def forks(n_starts=4, max_iters=1000):
            config = OptimizationConfig(n_intervals=8, max_iters=max_iters,
                                        n_starts=n_starts)
            with mock.patch.object(os, "fork", wraps=os.fork) as fork:
                optimize(config, self.params, 5.0)
            return fork.call_count

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert forks() == 1
        assert forks(n_starts=1) == 0
        assert forks(max_iters=5) == 0
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert forks() == 0
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert forks() == 0
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert forks() == 0
        assert_no_child()


class TestPumpingBaseline:
    def test_oracle_and_discrete_agree(self):
        p = SystemParams(gamma_total=10.0)
        discrete = pumping_baseline(p, 50.0)
        oracle = integrate_full(optical_pumping_control(50.0), p,
                                method="adaptive").final_rho33
        assert discrete == pytest.approx(oracle, abs=1e-6)

