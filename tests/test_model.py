import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from lambda_control import model, reduced
from lambda_control.model import (
    FRAME_GENERATOR,
    HALF_PI,
    STATE_DIM,
    ControlSignal,
    FullState,
    IntegrationError,
    SystemParams,
    Trajectory,
    integrate_full,
    optical_pumping_control,
    rk4_step_matrix,
    system_matrix,
)
from oracles import (
    denormalize_time,
    frame_rotation,
    reconstruct_density,
    rhs_adiabatic,
    rhs_full,
    rhs_reduced,
    system_matrix_dtheta,
)


def _random_state(rng):
    pops = rng.dirichlet(np.ones(3))
    coh = rng.uniform(-0.3, 0.3, 6)
    return np.concatenate([pops, coh])


def _symmetric_reference_rhs(state, theta, gamma):
    """Symmetric-decay equations with literal Gamma/2 coefficients."""
    x1, x2, x3, x4, x5, x6, y1, y2, y3 = state
    op = math.sin(theta)
    os_ = math.cos(theta)
    return np.array([
        -op * x4 + 0.5 * gamma * x2,
        op * x4 - os_ * x5 - gamma * x2,
        os_ * x5 + 0.5 * gamma * x2,
        0.5 * op * (x1 - x2) + 0.5 * os_ * x6 - 0.5 * gamma * x4,
        0.5 * os_ * (x2 - x3) - 0.5 * op * x6 - 0.5 * gamma * x5,
        0.5 * (op * x5 - os_ * x4),
        -0.5 * os_ * y3 - 0.5 * gamma * y1,
        0.5 * op * y3 - 0.5 * gamma * y2,
        0.5 * (os_ * y1 - op * y2),
    ])


class TestSystemParams:
    def test_branch_rates(self):
        p = SystemParams(gamma_total=10.0, gamma_diff=8.0)
        assert p.gamma1 == 9.0
        assert p.gamma3 == 1.0
        assert not p.is_symmetric
        assert SystemParams(gamma_total=4.0).is_symmetric

    @pytest.mark.parametrize("kwargs", [
        {"gamma_total": 0.0},
        {"gamma_total": -1.0},
        {"gamma_total": 2.0, "gamma_diff": 3.0},
        {"gamma_total": 2.0, "gamma_diff": -2.5},
        {"gamma_total": 1.0, "omega0": 0.0},
        {"gamma_total": float("nan")},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestRhsFull:
    def test_dark_state_is_equilibrium(self):
        # Ground state with the Stokes field only: nothing moves.
        p = SystemParams(gamma_total=10.0)
        deriv = rhs_full(FullState.ground(), 0.0, p)
        assert np.array_equal(deriv, np.zeros(9))

    def test_pump_drives_coherence(self):
        p = SystemParams(gamma_total=10.0)
        deriv = rhs_full(FullState.ground(), HALF_PI, p)
        expected = np.zeros(9)
        expected[3] = 0.5  # omega_p / 2 with omega0 = 1
        assert np.allclose(deriv, expected, atol=1e-15)

    def test_pure_decay_from_intermediate(self):
        p = SystemParams(gamma_total=6.0)
        deriv = rhs_full([0, 1, 0, 0, 0, 0, 0, 0, 0], 0.7, p)
        assert deriv[0] == pytest.approx(3.0)
        assert deriv[1] == pytest.approx(-6.0)
        assert deriv[2] == pytest.approx(3.0)

    def test_population_derivatives_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gamma = rng.uniform(0.1, 20.0)
            p = SystemParams(gamma_total=gamma,
                             gamma_diff=rng.uniform(-gamma, gamma))
            deriv = rhs_full(_random_state(rng), rng.uniform(0, HALF_PI), p)
            assert abs(deriv[:3].sum()) <= 1e-13 * max(1.0, gamma)

    def test_symmetric_case_matches_reference_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gamma = rng.uniform(0.1, 20.0)
            p = SystemParams(gamma_total=gamma)
            state = _random_state(rng)
            theta = rng.uniform(0, HALF_PI)
            ours = rhs_full(state, theta, p)
            ref = _symmetric_reference_rhs(state, theta, gamma)
            assert np.array_equal(ours, ref)

    def test_generator_matches_rhs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gamma = rng.uniform(0.1, 15.0)
            p = SystemParams(gamma_total=gamma,
                             gamma_diff=rng.uniform(-gamma, gamma))
            state = _random_state(rng)
            theta = rng.uniform(0, HALF_PI)
            assert np.allclose(system_matrix(theta, p) @ state,
                               rhs_full(state, theta, p), atol=1e-14)
        # A batch of angles gives the stacked scalar generators, each with
        # exactly zero x/y coupling blocks.
        thetas = rng.uniform(0, HALF_PI, (3, 4))
        A = system_matrix(thetas, p)
        assert system_matrix(0.3, p).shape == (9, 9)
        assert A.shape == (3, 4, 9, 9)
        assert np.array_equal(
            A, np.stack([[system_matrix(t, p) for t in row] for row in thetas]))
        assert not A[..., :6, 6:].any() and not A[..., 6:, :6].any()
        for theta, A_k in zip(thetas.ravel(), A.reshape(-1, 9, 9)):
            assert np.allclose(A_k @ state, rhs_full(state, theta, p),
                               atol=1e-14)

    def test_generator_derivative_is_consistent(self):
        p = SystemParams(gamma_total=3.0, gamma_diff=1.0)
        theta = 0.8
        eps = 1e-6
        fd = (system_matrix(theta + eps, p) - system_matrix(theta - eps, p)) / (2 * eps)
        assert np.allclose(system_matrix_dtheta(theta, p), fd, atol=1e-9)

        thetas = np.array([0.0, 0.3, 0.8, 1.2, HALF_PI])
        h = np.array([0.3, 0.05, 0.1, 0.01, 0.2])
        A = system_matrix(thetas, p)
        dA = system_matrix_dtheta(thetas, p)
        assert np.array_equal(
            dA, np.stack([system_matrix_dtheta(t, p) for t in thetas]))
        assert not dA[..., :6, 6:].any() and not dA[..., 6:, :6].any()
        # The optimizer takes the derivative of the x block alone, with K
        # sliced to it: the x block of the full derivative, bit for bit.
        dA_x = model._angle_derivative(A[:, :6, :6], p)
        assert dA_x.tobytes() == np.ascontiguousarray(dA[:, :6, :6]).tobytes()
        # The RK4 step of the block generator [[A, dA], [0, A]] is
        # [[M, dM], [0, M]]: its top-right block is dM/dtheta.  The 6x6 x
        # block is what the optimizer steps.
        fd = (rk4_step_matrix(system_matrix(thetas + eps, p), h)
              - rk4_step_matrix(system_matrix(thetas - eps, p), h)) / (2 * eps)
        for d in (6, 9):
            block = np.zeros((thetas.size, 2 * d, 2 * d))
            block[:, :d, :d] = block[:, d:, d:] = A[:, :d, :d]
            block[:, :d, d:] = dA[:, :d, :d]
            step = rk4_step_matrix(block, h)
            M = rk4_step_matrix(A[:, :d, :d], h)
            assert np.array_equal(step[:, :d, :d], M)
            assert np.array_equal(step[:, d:, d:], M)
            assert not step[:, d:, :d].any()
            assert np.allclose(step[:, :d, d:], fd[:, :d, :d], rtol=0.0,
                               atol=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.2, max_value=3.0),
           st.lists(st.floats(min_value=0.0, max_value=HALF_PI),
                    min_size=1, max_size=8))
    def test_generator_derivative_matches_central_differences(
            self, gamma, asymmetry, omega0, thetas):
        # dA/dtheta is built from the frame generator K; central differences
        # of the hand-written A(theta) check it independently.
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma,
                         omega0=omega0)
        thetas = np.array(thetas)
        eps = 1e-6
        fd = (system_matrix(thetas + eps, p)
              - system_matrix(thetas - eps, p)) / (2 * eps)
        assert np.allclose(system_matrix_dtheta(thetas, p), fd, rtol=0.0,
                           atol=1e-8)


def _plane_rotation(theta):
    """The {|1>, |3>} rotation whose superoperator is frame_rotation(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


class TestFrameRotation:
    def test_is_superoperator_of_plane_rotation(self):
        rng = np.random.default_rng(11)
        thetas = np.concatenate([[0.0, HALF_PI, -0.4],
                                 rng.uniform(-math.pi, math.pi, 20)])
        R, R_inv = frame_rotation(thetas)
        assert R.shape == R_inv.shape == (thetas.size, 9, 9)
        for theta, R_k, R_inv_k in zip(thetas, R, R_inv):
            U = _plane_rotation(theta)
            state = rng.uniform(-1.0, 1.0, 9)
            assert np.allclose(reconstruct_density(R_k @ state),
                               U @ reconstruct_density(state) @ U.T,
                               rtol=0.0, atol=1e-15)
            assert np.allclose(R_inv_k @ R_k, np.eye(9), rtol=0.0, atol=1e-15)
            assert np.array_equal(R_inv_k, frame_rotation(-theta)[0])
            assert np.allclose(R_k, expm(theta * FRAME_GENERATOR),
                               rtol=0.0, atol=1e-12)

    def test_symmetric_generator_is_rotated_dark_frame_generator(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = SystemParams(gamma_total=rng.uniform(0.1, 50.0))
            thetas = rng.uniform(0.0, HALF_PI, 5)
            R, R_inv = frame_rotation(thetas)
            assert np.allclose(R @ system_matrix(0.0, p) @ R_inv,
                               system_matrix(thetas, p), rtol=0.0,
                               atol=1e-13 * p.gamma_total)

    def test_generator_derivative_is_commutator_with_K(self):
        # dA/dtheta = K A - A K, on the 9x9 generator and on its x block.
        rng = np.random.default_rng(13)
        K = FRAME_GENERATOR
        Kx = K[:6, :6]
        for _ in range(20):
            p = SystemParams(gamma_total=rng.uniform(0.1, 50.0))
            theta = rng.uniform(0.0, HALF_PI)
            A = system_matrix(theta, p)
            dA = system_matrix_dtheta(theta, p)
            assert np.allclose(K @ A - A @ K, dA, rtol=0.0, atol=1e-15)
            Ax = A[:6, :6]
            assert np.allclose(Kx @ Ax - Ax @ Kx, dA[:6, :6], rtol=0.0,
                               atol=1e-15)

    @settings(deadline=None, max_examples=50)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                      elements=st.floats(-10.0, 10.0)))
    def test_x_block_is_the_full_rotation_block(self, thetas):
        # The optimizer conjugates with the x block alone; it must be the
        # same numbers as frame_rotation's, byte for byte.
        for x_block, full in zip(model._frame_rotation_x(thetas),
                                 frame_rotation(thetas)):
            assert x_block.shape == thetas.shape + (6, 6)
            assert x_block.tobytes() == full[..., :6, :6].copy().tobytes()

    def test_asymmetric_decay_breaks_the_identity(self):
        # The feeding terms gamma1 != gamma3 are not rotation invariant, so
        # the optimizer keeps the RK4 pair path for asymmetric decay.
        p = SystemParams(gamma_total=10.0, gamma_diff=8.0)
        A = system_matrix(0.7, p)
        K = FRAME_GENERATOR
        assert np.abs(K @ A - A @ K - system_matrix_dtheta(0.7, p)).max() > 1.0


class TestControlSignal:
    @pytest.mark.parametrize("grid,theta", [
        ([0.0, 1.0, 1.0], [0.1, 0.2]),     # not strictly increasing
        ([0.0, 1.0], [0.1, 0.2]),          # wrong length
        ([0.0, 1.0], [2.0]),               # angle out of range
        ([0.0, 1.0], [-0.1]),
        ([0.0, float("inf")], [0.1]),
        ([0.0], []),
        ([0.2, 0.5], [0.3]),               # does not start at 0
    ])
    def test_validation(self, grid, theta):
        with pytest.raises(ValueError):
            ControlSignal(grid, theta)

    @pytest.mark.parametrize("theta", [
        [0.1, 0.2, 0.3],
        [0.0, HALF_PI, 1.0],
        [-1e-13, HALF_PI + 1e-13, -0.0],   # inside _EDGE_TOL: clipped
        [-1e-11, 0.2, 0.3],                # outside it
        [0.1, HALF_PI + 1e-11, 0.3],
        [0.1, 2.0, 0.3],
        [float("nan"), 0.2, 0.3],
        [0.1, float("inf"), 0.3],
        [0.1, 0.2, float("-inf")],
        [0.1, 0.2],                        # wrong shapes
        [[0.1, 0.2, 0.3]],
        0.2,
        [],
        ["a", 0.2, 0.3],
    ])
    def test_with_theta_checks_like_the_constructor(self, theta):
        control = ControlSignal(np.linspace(0.0, 3.0, 4), [0.5, 0.6, 0.7])
        try:
            expected = ControlSignal(control.grid, theta)
        except Exception as exc:  # the contract is the same exception type
            with pytest.raises(type(exc)):
                control.with_theta(theta)
            return
        new = control.with_theta(theta)
        assert new.theta.tobytes() == expected.theta.tobytes()
        assert new.grid is control.grid
        assert new.durations is control.durations
        assert new.durations.tobytes() == np.diff(control.grid).tobytes()
        assert not new.grid.flags.writeable
        assert not new.durations.flags.writeable
        assert not new.theta.flags.writeable
        assert control.theta.tobytes() == np.array([0.5, 0.6, 0.7]).tobytes()

    def test_optical_pumping_control(self):
        c = optical_pumping_control(1.0)
        assert np.array_equal(c.grid, [0.0, 1.0])
        assert np.array_equal(c.theta, [HALF_PI])
        c100 = optical_pumping_control(100.0)
        assert c100.duration == 100.0
        assert np.array_equal(c100.theta, [HALF_PI])
        with pytest.raises(ValueError):
            optical_pumping_control(0.0)
        with pytest.raises(ValueError):
            optical_pumping_control(-3.0)



class TestReconstructDensity:
    def test_pure_states(self):
        assert np.allclose(reconstruct_density([1, 0, 0, 0, 0, 0, 0, 0, 0]),
                           np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(reconstruct_density([0, 0, 1, 0, 0, 0, 0, 0, 0]),
                           np.diag([0.0, 0.0, 1.0]))

    def test_superposition(self):
        rho = reconstruct_density([0.5, 0, 0.5, 0, 0, 0.5, 0, 0, 0])
        assert rho[0, 2] == 0.5 and rho[2, 0] == 0.5
        eigvals = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(eigvals, [0.0, 0.0, 1.0], atol=1e-12)

    def test_hermitian_for_random_states(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = reconstruct_density(_random_state(rng))
            assert np.allclose(rho, rho.conj().T)
            assert np.trace(rho).real == pytest.approx(1.0)


class TestIntegrateFull:
    def test_dark_control_gives_constant_trajectory(self):
        p = SystemParams(gamma_total=5.0)
        traj = integrate_full(ControlSignal.constant(0.0, 20.0), p)
        assert np.allclose(traj.states, FullState.ground().as_array(),
                           atol=1e-15)
        assert traj.times[-1] == 20.0

    def test_pumping_approaches_closed_form_efficiency(self):
        # 1 - exp(-omega0^2 T / (2 Gamma)) at Gamma=10, T=100: 1 - e^-5.
        p = SystemParams(gamma_total=10.0)
        traj = integrate_full(optical_pumping_control(100.0), p)
        assert traj.final_rho33 == pytest.approx(0.9932620530009145, abs=0.02)
        # Monotone rise and a small intermediate-level transient.
        assert np.all(np.diff(traj.rho33) >= -1e-12)
        assert traj.rho22.max() < 0.02

    def test_matches_expm_oracle_for_constant_control(self):
        # Independent oracle: exact matrix exponential of the generator.
        for gamma, theta, T in [(0.1, HALF_PI, 5.0), (2.0, 0.9, 10.0)]:
            p = SystemParams(gamma_total=gamma)
            traj = integrate_full(ControlSignal.constant(theta, T), p)
            exact = expm(system_matrix(theta, p) * T) @ FullState.ground().as_array()
            assert np.allclose(traj.final_state, exact, atol=1e-8)

    def test_adaptive_oracle_agrees_with_fixed_step(self):
        p = SystemParams(gamma_total=0.1)
        control = optical_pumping_control(5.0)
        fast = integrate_full(control, p).final_rho33
        oracle = integrate_full(control, p, method="adaptive").final_rho33
        assert fast == pytest.approx(oracle, abs=1e-8)

    def test_structural_invariants_on_random_controls(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            gamma = rng.uniform(0.2, 12.0)
            p = SystemParams(gamma_total=gamma,
                             gamma_diff=rng.uniform(-gamma, gamma))
            control = ControlSignal(np.linspace(0, 15.0, 13),
                                    rng.uniform(0, HALF_PI, 12))
            traj = integrate_full(control, p)
            assert traj.trace_drift() <= 1e-9
            assert traj.max_y() <= 1e-10
            for state in traj.states[:: max(1, len(traj.states) // 50)]:
                eigvals = np.linalg.eigvalsh(reconstruct_density(state))
                assert eigvals.min() >= -1e-7
                assert eigvals.max() <= 1.0 + 1e-7

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.lists(st.tuples(st.floats(min_value=1e-3, max_value=5.0),
                              st.one_of(st.just(0.0), st.just(HALF_PI),
                                        st.floats(min_value=0.0,
                                                  max_value=HALF_PI))),
                    min_size=1, max_size=8))
    def test_density_stays_physical_property(self, gamma, asymmetry,
                                             intervals):
        # Every sample of a piecewise schedule is a density matrix: positive
        # semidefinite with unit trace, and the y block never leaves zero.
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)
        durations, thetas = (np.array(v) for v in zip(*intervals))
        control = ControlSignal(np.concatenate([[0.0], np.cumsum(durations)]),
                                thetas)
        traj = integrate_full(control, p)
        rho = np.array([reconstruct_density(s) for s in traj.states])
        assert np.linalg.eigvalsh(rho).min() >= -1e-9
        assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() <= 1e-10
        assert traj.max_y() == 0.0

    def test_y_block_stays_zero_on_callable_path(self):
        p = SystemParams(gamma_total=2.0)
        traj = integrate_full(lambda t: HALF_PI * t / 4.0, p, 4.0)
        assert traj.max_y() == 0.0
        assert traj.trace_drift() <= 1e-12

    def test_final_sample_exactly_at_horizon(self):
        p = SystemParams(gamma_total=3.0)
        control = ControlSignal(np.linspace(0, 7.3, 8),
                                np.linspace(0, HALF_PI, 7))
        traj = integrate_full(control, p, 7.3)
        assert traj.times[-1] == 7.3
        # A prefix ending inside an interval is its own schedule.
        shorter = ControlSignal.piecewise(control.grid[:3], control.theta[:3],
                                          2.5)
        assert integrate_full(shorter, p).times[-1] == 2.5

    def test_control_must_cover_horizon(self):
        # A ControlSignal runs to its duration: a given T must equal it,
        # neither longer nor shorter.
        p = SystemParams(gamma_total=3.0)
        control = ControlSignal.constant(0.3, 5.0)
        for T in (6.0, 4.0):
            with pytest.raises(ValueError) as info:
                integrate_full(control, p, T)
            assert str(info.value) == (
                f"T must equal the control's duration 5.0, got {T!r}")
        assert (integrate_full(control, p, 5.0).states.tobytes()
                == integrate_full(control, p).states.tobytes())
        with pytest.raises(ValueError, match="T is required"):
            integrate_full(lambda t: 0.3, p)  # callable needs T

    def test_initial_state_override(self):
        p = SystemParams(gamma_total=4.0)
        # Start from the intermediate level: it decays into both lower levels.
        start = [0, 1, 0, 0, 0, 0, 0, 0, 0]
        traj = integrate_full(ControlSignal.constant(HALF_PI, 5.0), p,
                              initial_state=start)
        assert traj.states[0, 1] == 1.0
        assert 0.0 < traj.final_rho33 < 1.0
        assert traj.trace_drift() <= 1e-9

    @pytest.mark.parametrize("control", [ControlSignal.constant(0.3, 2.0),
                                         lambda t: 0.3],
                             ids=["piecewise", "callable"])
    @pytest.mark.parametrize("state, problem", [
        (np.full(9, np.nan), "must be finite"),
        ([1, 0, 0, 0, 0, 0, 0, math.inf, 0], "must be finite"),
        (np.ones(8), "must have 9 components"),
    ])
    def test_bad_initial_state_rejected(self, control, state, problem):
        # Rejected at entry, not as an IntegrationError at the first step.
        with pytest.raises(ValueError, match=f"^initial_state {problem}"):
            integrate_full(control, SystemParams(gamma_total=3.0), 2.0,
                           initial_state=state)

    def test_target_state_is_dark_to_pure_pump(self):
        # With the Stokes field off, |3> is fully decoupled and keeps its
        # population exactly.
        p = SystemParams(gamma_total=4.0)
        start = [0, 0, 1, 0, 0, 0, 0, 0, 0]
        traj = integrate_full(ControlSignal.constant(HALF_PI, 5.0), p,
                              initial_state=start)
        assert traj.final_rho33 == pytest.approx(1.0, abs=1e-12)

    def test_unstable_step_reports_failure(self):
        # Gamma * h = 50 is far outside the RK4 stability region.
        p = SystemParams(gamma_total=10.0)
        state = [0, 1, 0, 0, 0, 0, 0, 0, 0]
        with pytest.raises(IntegrationError) as excinfo:
            integrate_full(ControlSignal.constant(0.3, 2000.0), p,
                           initial_state=state, max_step=5.0)
        # With 400 steps and 2048 samples every step is a sample: the state
        # is first non-finite after step 58 and was finite after step 57.
        assert str(excinfo.value) == "non-finite state encountered at t=290"
        assert excinfo.value.last_time == 285.0

    def test_order_check_smooth_control(self):
        # Halving the step cuts the error by ~2^4 on a smooth schedule.
        p = SystemParams(gamma_total=2.0)
        T = 2.0

        def theta_fn(t):
            return HALF_PI * math.sin(math.pi * t / (2 * T)) ** 2

        ref = integrate_full(theta_fn, p, T, method="adaptive").final_state
        err_coarse = np.linalg.norm(
            integrate_full(theta_fn, p, T, max_step=0.02).final_state - ref)
        err_fine = np.linalg.norm(
            integrate_full(theta_fn, p, T, max_step=0.01).final_state - ref)
        ratio = err_coarse / err_fine
        assert 10.0 < ratio < 26.0


    @pytest.mark.parametrize("control", [ControlSignal.constant(0.3, 2.0),
                                         lambda t: 0.3],
                             ids=["piecewise", "callable"])
    @pytest.mark.parametrize("kwargs", [
        {"method": "bogus"},
        {"max_step": -1.0},
        {"max_step": 0.0},
        {"max_step": math.nan},
        {"max_step": math.inf},
        {"method": "adaptive", "max_step": math.nan},
        {"method": "adaptive", "max_samples": 1},
        {"method": "adaptive", "max_samples": 0},
        {"method": "adaptive", "max_samples": -3},
        {"max_samples": 1},
        {"max_samples": 2048.0},
    ])
    def test_bad_method_or_max_step_rejected(self, control, kwargs):
        with pytest.raises(ValueError):
            integrate_full(control, SystemParams(gamma_total=3.0), 2.0,
                           **kwargs)

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    @pytest.mark.parametrize("control", [ControlSignal.constant(0.3, 2.0),
                                         lambda t: 0.3],
                             ids=["piecewise", "callable"])
    def test_two_samples_span_the_window(self, control, method):
        traj = integrate_full(control, SystemParams(gamma_total=3.0), 2.0,
                              max_samples=2, method=method)
        assert traj.times.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    @pytest.mark.parametrize("T", [1e-300, 1e-13, 1e-12])
    def test_tiny_horizon_keeps_its_one_interval(self, T, method):
        # The edge slack is relative, so it never reaches the first start.
        traj = integrate_full(optical_pumping_control(T),
                              SystemParams(gamma_total=2.0), method=method)
        assert traj.times.tolist() == [0.0, T]
        assert traj.thetas.tolist() == [HALF_PI, HALF_PI]
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_short_horizon_keeps_its_last_breakpoint(self, method):
        # 5e-13 before T = 1e-11 is 5% of the window, not edge rounding:
        # an absolute 1e-12 slack integrated it as theta = 0.
        control = ControlSignal([0.0, 9.5e-12, 1e-11], [0.0, HALF_PI])
        traj = integrate_full(control, SystemParams(gamma_total=2.0),
                              method=method)
        assert traj.times.tolist() == [0.0, 9.5e-12, 1e-11]
        assert traj.thetas.tolist() == [0.0, 0.0, HALF_PI]

    @pytest.mark.parametrize("T", [1e-11, 0.5])
    def test_grid_short_of_short_horizon_rejected(self, T):
        # No slack at any T: a grid 5% short, or short by a rounding error,
        # is not a schedule on [0, T].
        p = SystemParams(gamma_total=2.0)
        for end in (0.95 * T, T * (1.0 - 2e-12), T * (1.0 - 5e-13)):
            with pytest.raises(ValueError, match="^T must equal the control"):
                integrate_full(ControlSignal([0.0, end], [0.3]), p, T)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=1e-11, max_value=1e6),
           st.lists(st.floats(min_value=0.0, max_value=1e-9), min_size=1,
                    max_size=6, unique=True))
    def test_breakpoints_near_the_horizon_start_intervals(self, T, gaps):
        # Every grid edge is a sample, however close to the end: breakpoints
        # from 1e-9 * T below T each start an interval of their own.
        inner = sorted({T * (1.0 - g) for g in gaps} - {T})
        grid = np.array([0.0, *[t for t in inner if t > 0.0], T])
        theta = np.linspace(0.1, 1.4, grid.size - 1)
        traj = integrate_full(ControlSignal(grid, theta),
                              SystemParams(gamma_total=2.0), max_samples=2)
        assert traj.times.tolist() == grid.tolist()
        assert traj.thetas[1:].tolist() == theta.tolist()

    @settings(deadline=None, max_examples=60)
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.lists(st.tuples(st.floats(min_value=1e-3, max_value=5.0),
                              st.one_of(st.just(0.0), st.just(HALF_PI),
                                        st.floats(min_value=0.0,
                                                  max_value=HALF_PI))),
                    min_size=1, max_size=12),
           st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
           st.sampled_from([2, 7, 40, 2048]))
    def test_exact_method_samples_like_rk4(self, gamma, asymmetry, intervals,
                                           fraction, max_samples):
        # Both methods run one sampler and differ only in the propagators,
        # so a piecewise schedule gives the same times and angles, also
        # when its end cuts an interval of the drawn grid short.
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)
        durations, thetas = (np.array(v) for v in zip(*intervals))
        control = _prefix(np.concatenate([[0.0], np.cumsum(durations)]),
                          thetas, fraction)
        exact, rk4 = (integrate_full(control, p, max_samples=max_samples,
                                     method=method)
                      for method in ("adaptive", "rk4"))
        assert exact.times.tobytes() == rk4.times.tobytes()
        assert exact.thetas.tobytes() == rk4.thetas.tobytes()
        assert exact.max_y() == 0.0
        assert abs(exact.final_rho33 - rk4.final_rho33) <= 1e-8


def _prefix(grid, theta, fraction):
    """The schedule (grid, theta) cut off at fraction * grid[-1]: the
    starts below that end, and their angles."""
    end = grid[-1] * fraction
    starts = grid[:-1][grid[:-1] < end]
    return ControlSignal.piecewise(starts, theta[:starts.size], end)


def _textbook_rk4(f, s, h, n):
    """States of n classical RK4 steps of ds/dt = f(t, s) from s at t = 0."""
    states = [s]
    for i in range(n):
        t = i * h
        k1 = f(t, s)
        k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
        k4 = f(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(s)
    return np.array(states)


def _transition_rk4(control, params, h, n, *, generator=None, x0=None):
    """States of n RK4 steps of xdot = A(control(t)) x from x0, each the
    transition matrix I + (h/6)(K1 + 2 K2 + 2 K3 + K4) with K1 = A0,
    K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3) and
    A0, Am, A1 the generator at the step's start, middle and end.  Each K
    is formed as A + c (A K), the grouping whose rounding the sampler
    shares.  The generator defaults to the full model's system_matrix at
    params, and x0 to its ground state."""
    if generator is None:
        def generator(thetas):
            return system_matrix(thetas, params)
    s = FullState.ground().as_array() if x0 is None else x0
    states = [s]
    idx = np.arange(s.size)
    for i in range(n):
        A0, Am, A1 = generator(
            [float(control(j * (0.5 * h))) for j in (2 * i, 2 * i + 1,
                                                     2 * i + 2)])
        K2 = Am + (0.5 * h) * (Am @ A0)
        K3 = Am + (0.5 * h) * (Am @ K2)
        K4 = A1 + h * (A1 @ K3)
        M = (h / 6.0) * (2.0 * (K2 + K3) + A0 + K4)
        M[idx, idx] += 1.0
        s = M @ s
        states.append(s)
    return np.array(states)


class TestRk4Loops:
    """The stepwise integrators are classical RK4, bit for bit."""

    def test_callable_integrate_full(self):
        # A callable control applies one RK4 transition matrix per step,
        # with theta at the step's start, middle and end.
        p = SystemParams(gamma_total=3.0, gamma_diff=1.0)
        T, n = 2.0, 160

        def ramp(t):
            return HALF_PI * math.sin(t) ** 2

        traj = integrate_full(ramp, p, T, max_step=T / n)
        ref = _transition_rk4(ramp, p, T / n, n)
        assert traj.states.tobytes() == ref.tobytes()
        assert traj.times[-1] == T
        assert traj.times[:-1].tobytes() == (np.arange(n) * (T / n)).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.05, max_value=6.0),
           st.sampled_from([0.003, 0.01, 0.05, 0.2]),
           st.sampled_from([2, 3, 7, 40, 2048]),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_callable_matches_stage_form(self, gamma, asymmetry, T, h_max,
                                         max_samples, rate, phase):
        # The transition matrices are the stage form's arithmetic regrouped:
        # the two agree to rounding at every sample.
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)

        def theta_fn(t):
            return 0.25 * math.pi * (1.0 + math.sin(rate * t + phase))

        traj = integrate_full(theta_fn, p, T, max_step=h_max,
                              max_samples=max_samples)
        n = int(model.interval_steps(T, h_max)[0])
        stride = math.ceil(n / (max_samples - 1))
        ref = _textbook_rk4(lambda t, s: rhs_full(s, theta_fn(t), p),
                            FullState.ground().as_array(), T / n, n)
        rows = np.append(np.arange(0, n, stride), n)
        assert np.abs(traj.states - ref[rows]).max() <= 1e-13

    def test_integrate_adiabatic(self):
        # One RK4 transition matrix of the 3x3 generator per step, through
        # the sampler callable controls use.
        p = SystemParams(gamma_total=20.0)
        T, n = 30.0, 157

        def ramp(t):
            return HALF_PI * min(1.0, t / 25.0)

        times, states = reduced.integrate_adiabatic(ramp, p, T, n)
        ref = _transition_rk4(
            ramp, p, T / n, n,
            generator=lambda thetas: reduced._adiabatic_generator(thetas, p),
            x0=np.array([1.0, 0.0, 0.0]))
        assert states.tobytes() == ref.tobytes()
        assert times.tobytes() == np.linspace(0.0, T, n + 1).tobytes()

    def test_integrate_reduced(self):
        # The same for the 4x4 generator of (x, y, theta, 1).
        tprime, n = 4.0, 211

        def u(t):
            return 0.3 * math.cos(t)

        times, states = reduced.integrate_reduced(u, tprime, n)
        ref = _transition_rk4(u, None, tprime / n, n,
                              generator=reduced._reduced_generator,
                              x0=np.array([-1.0, 0.0, 0.0, 1.0]))
        assert ref[:, 3].tobytes() == np.ones(n + 1).tobytes()
        assert states.tobytes() == ref[:, :3].tobytes()
        assert times.tobytes() == np.linspace(0.0, tprime, n + 1).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.5, max_value=100.0),
           st.floats(min_value=0.1, max_value=5.0),
           st.integers(min_value=10, max_value=400),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_adiabatic_matches_stage_form(self, gamma, tprime, n, rate,
                                          phase):
        # At most tprime / n <= 0.5 per step in normalized time.
        p = SystemParams(gamma_total=gamma)
        T = denormalize_time(tprime, p)

        def theta_fn(t):
            tp = reduced.normalize_time(t, p)
            return 0.25 * math.pi * (1.0 + math.sin(rate * tp + phase))

        times, states = reduced.integrate_adiabatic(theta_fn, p, T, n)
        ref = _textbook_rk4(
            lambda t, s: np.array(rhs_adiabatic(*s, theta_fn(t), p)),
            np.array([1.0, 0.0, 0.0]), T / n, n)
        assert np.abs(states - ref).max() <= 1e-13
        assert times.tobytes() == np.linspace(0.0, T, n + 1).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=5.0),
           st.integers(min_value=10, max_value=400),
           st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_reduced_matches_stage_form(self, tprime, n, amplitude, rate,
                                        phase):
        def u(t):
            return amplitude * math.cos(rate * t + phase)

        times, states = reduced.integrate_reduced(u, tprime, n)
        ref = _textbook_rk4(lambda t, s: rhs_reduced(s, u(t)),
                            np.array([-1.0, 0.0, 0.0]), tprime / n, n)
        assert np.abs(states - ref).max() <= 1e-13
        assert times.tobytes() == np.linspace(0.0, tprime, n + 1).tobytes()


def _reference_rk4_step_matrix(A, h):
    """The RK4 step matrix as one allocating expression per term."""
    h = np.asarray(h, dtype=float)[..., None, None]
    B = h * A
    B2 = B @ B
    B3 = B2 @ B
    B4 = B3 @ B
    M = B + B2 / 2.0 + B3 / 6.0 + B4 / 24.0
    idx = np.arange(A.shape[-1])
    M[..., idx, idx] += 1.0
    return M


def _reference_step_matrices(thetas, h, params, stride):
    """Per interval, M and M**stride, built in batches of model._BATCH."""
    for lo in range(0, thetas.size, model._BATCH):
        M = _reference_rk4_step_matrix(
            system_matrix(thetas[lo:lo + model._BATCH], params),
            h[lo:lo + model._BATCH])
        yield from zip(M, np.linalg.matrix_power(M, stride))


def _reference_piecewise_rk4(control, params, x0, h_max, max_samples):
    """The sampler as a per-sample loop: one matvec, finite check and set of
    list appends per sample, and one matrix_power per remainder."""
    starts, ends, thetas = control.grid[:-1], control.grid[1:], control.theta
    steps, h = model.interval_steps(ends - starts, h_max)
    total = int(steps.sum())
    stride = max(1, math.ceil(total / max(1, max_samples - 1)))

    times = [0.0]
    samples = [x0.copy()]
    sample_theta = [thetas[0]]
    state = x0.copy()
    last_good = 0.0

    def append(t, th):
        nonlocal last_good
        if not np.all(np.isfinite(state)):
            raise IntegrationError(
                f"non-finite state encountered at t={t:.6g}",
                last_time=last_good)
        last_good = t
        times.append(t)
        samples.append(state.copy())
        sample_theta.append(th)

    with np.errstate(over="ignore", invalid="ignore"):
        matrices = _reference_step_matrices(thetas, h, params, stride)
        for t0, t1, th, m, hk, (Mk, Mk_stride) in zip(starts, ends, thetas,
                                                      steps, h, matrices):
            n_chunks, rem = divmod(m, stride)
            done = 0
            for _ in range(n_chunks):
                state = Mk_stride @ state
                done += stride
                append(t1 if done == m else t0 + done * hk, th)
            if rem:
                state = np.linalg.matrix_power(Mk, rem) @ state
                append(t1, th)

    times = np.asarray(times)
    times[-1] = control.duration
    return Trajectory(times, np.asarray(samples), np.asarray(sample_theta))


def _outcome(integrate):
    """Trajectory arrays as bytes, or the IntegrationError's message and
    last_time."""
    try:
        traj = integrate()
    except IntegrationError as exc:
        return str(exc), exc.last_time
    return [(a.dtype, a.shape, a.tobytes())
            for a in (traj.times, traj.states, traj.thetas)]


@st.composite
def _sampler_cases(draw):
    n = draw(st.integers(1, 6))
    unstable = draw(st.booleans())
    # Unstable cases take Gamma * h = 20..50, far outside the RK4 stability
    # region, so the state overflows within some hundred steps.
    length = st.floats(50.0, 400.0) if unstable else st.floats(1e-3, 4.0)
    grid = np.cumsum([0.0] + draw(st.lists(length, min_size=n, max_size=n)))
    theta = draw(st.lists(st.floats(0.0, HALF_PI), min_size=n, max_size=n))
    control = _prefix(grid, np.array(theta),
                      draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))))
    gamma = 10.0 if unstable else draw(st.sampled_from([0.1, 2.0, 10.0]))
    params = SystemParams(gamma_total=gamma,
                          gamma_diff=gamma * draw(st.floats(-1.0, 1.0)))
    h_max = draw(st.sampled_from([2.0, 5.0] if unstable
                                 else [0.003, 0.05, 0.4]))
    max_samples = draw(st.sampled_from([2, 3, 7, 40, 2048, 10**6]))
    x0 = (np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]) if unstable
          else FullState.ground().as_array())
    return control, params, x0, h_max, max_samples


class TestPiecewiseSampler:
    """The preallocated sampler equals the per-sample loop, byte for byte."""

    @settings(deadline=None, max_examples=150)
    @given(_sampler_cases())
    # One interval, stride 1 (every step a sample).
    @example((ControlSignal.constant(0.7, 1.0), SystemParams(gamma_total=2.0),
              FullState.ground().as_array(), 0.01, 10**6))
    # Intervals shorter than one stride, rem > 0, a short last interval.
    @example((ControlSignal([0.0, 0.013, 0.5, 0.52, 2.9], [0.1, 1.2, 0.4, 1.5]),
              SystemParams(gamma_total=10.0, gamma_diff=-4.0),
              FullState.ground().as_array(), 0.01, 7))
    # max_samples = 2: one stride spans the whole window.
    @example((ControlSignal([0.0, 1.0, 2.5], [0.3, 1.1]),
              SystemParams(gamma_total=2.0),
              FullState.ground().as_array(), 0.01, 2))
    def test_equals_per_sample_loop(self, case):
        control, params, x0, h_max, max_samples = case
        got = _outcome(lambda: model._integrate_piecewise(
            control, params, x0.copy(), h_max, max_samples, exact=False))
        want = _outcome(lambda: _reference_piecewise_rk4(
            control, params, x0.copy(), h_max, max_samples))
        assert got == want

    @settings(deadline=None, max_examples=20)
    @given(st.integers(model._BATCH + 1, 3 * model._BATCH + 5),
           st.sampled_from([3, 7, 16]),
           st.integers(0, 2**32 - 1))
    def test_remainder_powers_equal_per_interval_calls(self, n, stride,
                                                       seed):
        # Step counts of 1..3 strides plus a remainder that varies from
        # interval to interval, over several batches: the per-batch
        # remainder powers must give the per-interval calls' bytes.
        rng = np.random.default_rng(seed)
        h_max = 0.01
        steps = rng.integers(1, 3 * stride + 1, n)
        grid = np.concatenate([[0.0], np.cumsum(steps * h_max * 0.999)])
        control = ControlSignal(grid, rng.uniform(0.0, HALF_PI, n))
        params = SystemParams(gamma_total=2.0, gamma_diff=-0.5)
        max_samples = -(-int(steps.sum()) // stride) + 1
        assert math.ceil(steps.sum() / (max_samples - 1)) == stride
        _, rem = np.divmod(steps, stride)
        assert np.unique(rem[rem > 0]).size > 1
        got = model._integrate_piecewise(
            control, params, FullState.ground().as_array(), h_max,
            max_samples, exact=False)
        want = _reference_piecewise_rk4(
            control, params, FullState.ground().as_array(), h_max,
            max_samples)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()

    def test_diverging_schedule_raises_like_the_loop(self):
        # Diverges in the second interval, between two samples of a stride.
        p = SystemParams(gamma_total=10.0)
        x0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        control = ControlSignal([0.0, 100.0, 400.0], [0.3, 1.0])
        got = _outcome(lambda: model._integrate_piecewise(
            control, p, x0, 5.0, 7, exact=False))
        assert got == _outcome(lambda: _reference_piecewise_rk4(
            control, p, x0, 5.0, 7))
        assert got[0].startswith("non-finite state encountered at t=")

    @pytest.mark.parametrize("first_bad", [model._BATCH - 1, model._BATCH,
                                           model._BATCH + 17])
    def test_batched_check_raises_at_the_first_bad_row(self, first_bad):
        # Short stable intervals around one that diverges (Gamma h = 50):
        # finiteness is checked once per batch of intervals, so divergence
        # in a batch's last, first or a middle interval must give the
        # message and last_time of the check after every row.
        n = 3 * model._BATCH
        lengths = np.full(n, 0.03)
        lengths[first_bad] = 400.0
        control = ControlSignal(np.concatenate([[0.0], np.cumsum(lengths)]),
                                np.linspace(0.1, 1.4, n))
        p = SystemParams(gamma_total=10.0)
        x0 = FullState.ground().as_array()
        got = _outcome(lambda: model._integrate_piecewise(
            control, p, x0, 5.0, 10**6, exact=False))
        assert got == _outcome(lambda: _reference_piecewise_rk4(
            control, p, x0, 5.0, 10**6))
        message, last_time = got
        assert message.startswith("non-finite state encountered at t=")
        assert (control.grid[first_bad] <= last_time
                < control.grid[first_bad + 1])


class TestExactTrace:
    """The exact path rejects a propagator that moves the trace."""

    @staticmethod
    def _constant(T):
        return integrate_full(ControlSignal.constant(0.3, T),
                              SystemParams(gamma_total=1.0), T, max_step=T,
                              method="adaptive")

    @pytest.mark.parametrize("T", [1e3, 1e6])
    def test_long_advance_keeps_the_trace(self, T):
        assert self._constant(T).trace_drift() <= 1e-11

    @pytest.mark.parametrize("T", [1e10, 1e14, 1e20])
    def test_huge_advance_raises(self, T):
        with pytest.raises(IntegrationError,
                           match="breaks trace conservation") as excinfo:
            self._constant(T)
        assert excinfo.value.last_time == 0.0

    def test_reports_the_first_bad_interval(self):
        # The third interval spans 1e12 units; the first two are ordinary.
        control = ControlSignal([0.0, 1.0, 2.0, 2.0 + 1e12], [0.3, 0.9, 1.2])
        with pytest.raises(IntegrationError) as excinfo:
            integrate_full(control, SystemParams(gamma_total=1.0),
                           max_step=1e12, method="adaptive")
        assert str(excinfo.value).startswith(
            "propagator from t=2 breaks trace conservation by ")
        assert excinfo.value.last_time == 2.0

    def test_error_survives_pickle(self):
        # A public exception survives pickling, as a caller's process
        # pool needs to send it between processes.
        with pytest.raises(IntegrationError) as excinfo:
            self._constant(1e14)
        excinfo.value.note = "kept"
        for error in (excinfo.value, IntegrationError("boom", 1.5)):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is IntegrationError
            assert str(copy) == str(error)
            assert copy.args == error.args
            assert copy.last_time == error.last_time
            assert vars(copy) == vars(error)


class TestStepMatrixAndPowers:
    """The RK4 step matrix and the batched matrix powers equal the plain
    RK4 polynomial and per-matrix powers, byte for byte."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([6, 9, 12]), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_rk4_polynomial_is_the_allocating_formula(self, d, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, d, d))
        # Exact zeros of both signs, as the generator has at the bounds.
        A[rng.random(A.shape) < 0.3] = 0.0
        A[rng.random(A.shape) < 0.1] = -0.0
        h = rng.uniform(1e-3, 0.2, n)
        want = _reference_rk4_step_matrix(A, h)
        assert rk4_step_matrix(A, h).tobytes() == want.tobytes()
        assert (rk4_step_matrix(A[0], h[0]).tobytes()
                == _reference_rk4_step_matrix(A[0], h[0]).tobytes())

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    @example([1, 2, 3, 4, 7, 0], 0)
    @example([5], 0)
    def test_matrix_powers_is_matrix_power(self, counts, seed):
        rng = np.random.default_rng(seed)
        a = np.eye(6) + 0.01 * rng.standard_normal((len(counts), 6, 6))
        got = model._matrix_powers(a, np.array(counts))
        for k, m in enumerate(counts):
            want = np.linalg.matrix_power(a[k], m)
            assert got[k].tobytes() == want.tobytes()


def _reference_csv(traj, omega0, comment):
    """Trajectory.write_csv as one format(v, ".17g") call per value."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("t,rho11,rho22,rho33,x4,x5,x6,theta,omega_p,omega_s")
    for t, s, th in zip(traj.times, traj.states, traj.thetas):
        row = [t, s[0], s[1], s[2], s[3], s[4], s[5], th,
               omega0 * math.sin(th), omega0 * math.cos(th)]
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _csv_of_columns(traj, omega0, comment):
    """Trajectory.write_csv as the rows of ``columns``, one '%.17g' each."""
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(Trajectory.COLUMNS))
    for row in traj.columns(omega0).tolist():
        lines.append(",".join("%.17g" % v for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, 0.1, 1.0]
_CSV_VALUES = st.one_of(st.sampled_from(_SPECIAL + [math.inf, -math.inf]),
                        st.floats())
# math.sin and math.cos reject infinite angles.
_CSV_ANGLES = st.one_of(st.sampled_from(_SPECIAL),
                        st.floats(allow_infinity=False))


@st.composite
def _csv_trajectories(draw):
    # Up to a few blocks of rows, so block edges are crossed.
    n = draw(st.integers(1, 3 * model._CSV_BLOCK + 1))
    return Trajectory(draw(hnp.arrays(float, n, elements=_CSV_VALUES)),
                      draw(hnp.arrays(float, (n, 9), elements=_CSV_VALUES)),
                      draw(hnp.arrays(float, n, elements=_CSV_ANGLES)))


class TestTrajectoryExport:
    @settings(deadline=None, max_examples=60)
    @given(_csv_trajectories(),
           st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
           st.one_of(st.none(), st.just(""), st.text(max_size=30)))
    @example(Trajectory(np.array([-0.0, 5e-324, 1e300, math.nan, math.inf]),
                        np.full((5, 9), -0.0),
                        np.array([0.0, -0.0, 5e-324, 1e300, math.nan])),
             2.5, "config: {}")
    def test_csv_equals_per_value_format(self, tmp_path_factory, traj,
                                         omega0, comment):
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        traj.write_csv(path, omega0=omega0, comment=comment)
        assert path.read_bytes() == \
            _reference_csv(traj, omega0, comment).encode("utf-8")

    @pytest.mark.parametrize("comment", [None, "config: {}"])
    @pytest.mark.parametrize("thetas", [
        # Equal adjacent angles, in runs that cross block edges.
        np.repeat([0.3, 1.1, 0.3, HALF_PI, 0.0],
                  [3, model._CSV_BLOCK, 1, model._CSV_BLOCK - 3, 7]),
        # -0.0 and +0.0 are equal but start different runs.
        np.array([0.0, -0.0, -0.0, 0.0, 0.7, 0.7]),
        np.array([0.4]),
        np.full(model._CSV_BLOCK, 0.9),
        np.full(model._CSV_BLOCK + 1, -0.0),
        np.array([math.nan, math.nan, 0.2]),
    ], ids=["runs", "signed_zeros", "n1", "block", "block_plus_1", "nan"])
    def test_csv_is_columns_row_by_row(self, tmp_path, thetas, comment):
        rng = np.random.default_rng(thetas.size)
        traj = Trajectory(np.linspace(0.0, 3.0, thetas.size),
                          rng.standard_normal((thetas.size, STATE_DIM)),
                          thetas)
        path = tmp_path / "traj.csv"
        traj.write_csv(path, omega0=2.5, comment=comment)
        assert path.read_bytes() == _csv_of_columns(traj, 2.5, comment)
        # The same bytes as sin and cos per sample: runs keep -0.0 apart.
        assert path.read_bytes() == \
            _reference_csv(traj, 2.5, comment).encode("utf-8")

    def test_callable_csv_is_columns_row_by_row(self, tmp_path):
        # A callable control gives every sample its own angle: runs of one.
        traj = integrate_full(lambda t: HALF_PI * math.sin(t) ** 2,
                              SystemParams(gamma_total=2.0), 3.0,
                              max_samples=model._CSV_BLOCK + 40)
        assert np.unique(traj.thetas).size == traj.thetas.size
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_bytes() == _csv_of_columns(traj, 1.0, None)

    def test_csv_format(self, tmp_path):
        p = SystemParams(gamma_total=10.0)
        traj = integrate_full(optical_pumping_control(10.0), p, max_samples=64)
        path = tmp_path / "traj.csv"
        traj.write_csv(path, omega0=p.omega0, comment="config: {}")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "t,rho11,rho22,rho33,x4,x5,x6,theta,omega_p,omega_s"
        assert len(lines) == 2 + len(traj.times)
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 10.0
        assert last[3] == traj.final_rho33  # %.17g round-trips exactly
        assert last[7] == pytest.approx(HALF_PI)
        assert last[8] == pytest.approx(1.0)
        assert last[9] == pytest.approx(0.0, abs=1e-12)


class TestFullState:
    def test_roundtrip(self):
        # as_array lists the fields in their declared order.
        rng = np.random.default_rng(6)
        arr = _random_state(rng)
        assert np.array_equal(FullState(*arr).as_array(), arr)


class TestIntervalSteps:
    @pytest.mark.parametrize("durations, h_max", [
        (1e18, 0.01),           # 1e20 steps: past int64
        (1e300, 0.01),
        (1e308, 1e-3),          # the ratio itself overflows
        (math.inf, 0.01),
        (math.nan, 0.01),
        ([6e18, 6e18], 1.0),    # each count fits, their sum does not
        ([2.0**62, 2.0**62], 1.0),  # the sum is exactly 2**63
        ([1.0, math.nan], 0.1),
    ])
    def test_counts_past_int64_rejected(self, durations, h_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step counts"):
                model.interval_steps(durations, h_max)

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    @pytest.mark.parametrize("control", [optical_pumping_control(1e18),
                                         lambda t: HALF_PI],
                             ids=["piecewise", "callable"])
    def test_integrate_full_rejects_before_work(self, control, method):
        # Under -W error: the ValueError comes first, not a cast warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step counts"):
                integrate_full(control, SystemParams(gamma_total=10.0), 1e18,
                               method=method)


def _expm_cases():
    """Batches t_k A(theta_k) for one (Gamma, gamma), with theta at both
    bounds and inside, and t from 1e-4 to 100."""
    angle = st.one_of(st.just(0.0), st.just(HALF_PI),
                      st.floats(min_value=0.0, max_value=HALF_PI))
    span = st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0**e)
    return st.tuples(st.floats(min_value=1e-3, max_value=60.0),
                     st.floats(min_value=-1.0, max_value=1.0),
                     st.lists(st.tuples(angle, span), min_size=1,
                              max_size=64))


class TestExpm:
    @settings(deadline=None, max_examples=60)
    @given(_expm_cases())
    def test_matches_scipy(self, case):
        gamma, asymmetry, draws = case
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)
        thetas, spans = (np.array(v) for v in zip(*draws))
        X = spans[:, None, None] * system_matrix(thetas, p)
        got = model._expm(X)
        want = np.array([expm(x) for x in X])
        assert np.abs(got - want).max() <= 1e-10
        # The x and y blocks never couple, so these entries are exactly 0.
        assert not got[:, :6, 6:].any() and not got[:, 6:, :6].any()

    def test_zero_matrix_is_identity(self):
        # A zero 1-norm (log2(0) = -inf) takes no squaring, alongside a
        # matrix that takes some.
        X = np.zeros((3, STATE_DIM, STATE_DIM))
        X[1] = 50.0 * system_matrix(0.7, SystemParams(gamma_total=2.0))
        got = model._expm(X)
        assert np.array_equal(got[0], np.eye(STATE_DIM))
        assert np.array_equal(got[2], np.eye(STATE_DIM))
        assert np.abs(got[1] - expm(X[1])).max() <= 1e-10

    def test_non_finite_input_gives_non_finite_output(self):
        X = np.full((1, STATE_DIM, STATE_DIM), math.inf)
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(model._expm(X)).any()


def _dop853_final_state(theta_fn, params, T):
    """The callable control on scipy's DOP853: the state at T."""
    sol = solve_ivp(lambda t, s: rhs_full(s, float(theta_fn(t)), params),
                    (0.0, T), FullState.ground().as_array(), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    assert sol.success and sol.t[-1] == T
    return sol.y[:, -1]


class TestCallableOracle:
    """method="adaptive" on a callable: extrapolated RK4 matrix products;
    and the errors of both callable methods."""

    @pytest.mark.parametrize("gamma, T", [
        (0.1, 5.0), (0.1, 8.0), (2.0, 5.0), (2.0, 8.0),
        (10.0, 4.0), (10.0, 6.0), (10.0, 8.0)])
    def test_agrees_with_dop853_on_ramps(self, gamma, T):
        p = SystemParams(gamma_total=gamma)

        def ramp(t):
            return HALF_PI * t / T

        traj = integrate_full(ramp, p, T, method="adaptive")
        assert np.abs(traj.final_state - _dop853_final_state(ramp, p, T)
                      ).max() <= 1e-10
        assert traj.max_y() == 0.0
        assert traj.trace_drift() <= 1e-13

    @settings(deadline=None, max_examples=15)
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.5, max_value=6.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_agrees_with_dop853_on_smooth_controls(self, gamma, asymmetry,
                                                  T, rate, phase):
        p = SystemParams(gamma_total=gamma, gamma_diff=asymmetry * gamma)

        def theta_fn(t):
            return 0.25 * math.pi * (1.0 + math.sin(rate * t + phase))

        traj = integrate_full(theta_fn, p, T, method="adaptive",
                              max_samples=40)
        assert np.abs(traj.final_state - _dop853_final_state(theta_fn, p, T)
                      ).max() <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.05, max_value=6.0),
           st.sampled_from([0.003, 0.01, 0.05, 0.4]),
           st.sampled_from([2, 3, 7, 40, 2048]))
    def test_samples_like_rk4(self, gamma, T, h_max, max_samples):
        p = SystemParams(gamma_total=gamma)

        def theta_fn(t):
            return HALF_PI * math.sin(t) ** 2

        oracle, rk4 = (integrate_full(theta_fn, p, T, max_step=h_max,
                                      max_samples=max_samples, method=method)
                       for method in ("adaptive", "rk4"))
        assert oracle.times.tobytes() == rk4.times.tobytes()
        assert oracle.thetas.tobytes() == rk4.thetas.tobytes()
        assert oracle.max_y() == 0.0

    @pytest.mark.parametrize("max_samples", [2048, 3])
    @pytest.mark.parametrize("method", ["adaptive", "rk4"])
    def test_nan_control_raises_at_first_bad_sample(self, method,
                                                    max_samples):
        # h = 0.03: theta is first NaN inside step 33, [0.99, 1.02].  With
        # a sample per step the state is first non-finite at 1.02; with a
        # sample every 50 steps, at 1.5.
        def theta_fn(t):
            return math.nan if t > 1.0 else 0.7

        with pytest.raises(IntegrationError) as excinfo:
            integrate_full(theta_fn, SystemParams(gamma_total=2.0), 3.0,
                           max_step=0.03, max_samples=max_samples,
                           method=method)
        if max_samples == 2048:
            assert str(excinfo.value) == \
                "non-finite state encountered at t=1.02"
            assert excinfo.value.last_time == 33 * 0.03
        else:
            assert str(excinfo.value) == \
                "non-finite state encountered at t=1.5"
            assert excinfo.value.last_time == 0.0

    @pytest.mark.parametrize("method, max_samples, message, last_time", [
        ("rk4", 2048, "non-finite state encountered at t=290", 285.0),
        ("rk4", 7, "non-finite state encountered at t=335", 0.0),
        ("adaptive", 2048, "non-finite state encountered at t=190", 185.0),
        ("adaptive", 7, "non-finite state encountered at t=335", 0.0),
    ], ids=["rk4-2048", "rk4-7", "adaptive-2048", "adaptive-7"])
    def test_divergence_raises_at_first_bad_sample(self, method, max_samples,
                                                   message, last_time):
        # Gamma * h = 50 is far outside the stability region of either
        # method's step.  With 2048 samples every one of the 400 steps is a
        # sample; with 7, every 67th step is, so the first sample at t=335
        # is already non-finite and the last finite one is the start.
        with pytest.raises(IntegrationError) as excinfo:
            integrate_full(lambda t: 0.3, SystemParams(gamma_total=10.0),
                           2000.0, initial_state=[0, 1, 0, 0, 0, 0, 0, 0, 0],
                           max_step=5.0, max_samples=max_samples,
                           method=method)
        assert str(excinfo.value) == message
        assert excinfo.value.last_time == last_time

    def test_long_horizon_memory_stays_bounded(self):
        # 40000 steps in samples of 20: the matrices of all steps would
        # take 26 MB, a batch of 64 steps well under 1 MB.
        p = SystemParams(gamma_total=10.0)
        tracemalloc.start()
        try:
            traj = integrate_full(lambda t: HALF_PI * t / 2000.0, p, 2000.0,
                                  max_step=0.05, method="adaptive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.times.size == 2001
        assert peak < 2_000_000
        assert traj.max_y() == 0.0
        assert traj.trace_drift() <= 1e-12
