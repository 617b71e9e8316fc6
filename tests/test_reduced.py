import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_control.analytic import random_sequence
from lambda_control import model, reduced
from lambda_control.model import (
    HALF_PI,
    ControlSignal,
    IntegrationError,
    SystemParams,
    integrate_full,
)
from lambda_control.reduced import (
    ReducedState,
    integrate_adiabatic,
    integrate_reduced,
    normalize_time,
)
from oracles import (
    closed_form_sequence,
    dark_bright_inverse,
    dark_bright_transform,
    denormalize_time,
    eliminated_coherences,
    from_function,
    rhs_adiabatic,
    rhs_full,
    rhs_reduced,
)


class TestEliminatedCoherences:
    def test_stokes_only_gives_empty_intermediate(self):
        p = SystemParams(gamma_total=10.0)
        rho22, im12, im23 = eliminated_coherences(1.0, 0.0, 0.0, 0.0, p)
        assert rho22 == 0.0
        assert im12 == 0.0
        assert im23 == 0.0

    def test_pump_only_population(self):
        p = SystemParams(gamma_total=10.0)
        rho22, _, _ = eliminated_coherences(1.0, 0.0, 0.0, HALF_PI, p)
        assert rho22 == pytest.approx(0.01, abs=1e-15)

    def test_mixed_superposition(self):
        # Hand evaluation: (1/Gamma^2)[op^2/2 + os^2/2 + 2*op*os*0.5] = 0.01
        # at theta = pi/4, Gamma = 10.
        p = SystemParams(gamma_total=10.0)
        rho22, _, _ = eliminated_coherences(0.5, 0.5, 0.5, math.pi / 4, p)
        assert rho22 == pytest.approx(0.01, abs=1e-15)

    def test_values_are_quasi_steady_points_of_full_system(self):
        # Substituting the eliminated values back into the full equations
        # must leave only O(omega0^3 / Gamma^2) residuals in the fast block.
        p = SystemParams(gamma_total=100.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho11 = rng.uniform(0, 1)
            rho33 = rng.uniform(0, 1 - rho11)
            rho13 = rng.uniform(-0.4, 0.4)
            theta = rng.uniform(0, HALF_PI)
            rho22, im12, im23 = eliminated_coherences(rho11, rho33, rho13,
                                                      theta, p)
            state = [rho11, rho22, rho33, im12, im23, rho13, 0, 0, 0]
            deriv = rhs_full(state, theta, p)
            for fast in (deriv[1], deriv[3], deriv[4]):
                assert abs(fast) <= 5e-4

    def test_asymmetric_rejected(self):
        p = SystemParams(gamma_total=10.0, gamma_diff=2.0)
        with pytest.raises(ValueError, match="symmetric"):
            eliminated_coherences(1.0, 0.0, 0.0, 0.3, p)


class TestRhsAdiabatic:
    def test_pump_transfer_rate(self):
        p = SystemParams(gamma_total=10.0)
        d11, d33, _ = rhs_adiabatic(1.0, 0.0, 0.0, HALF_PI, p)
        nu = 1.0 / 20.0
        assert d11 == pytest.approx(-nu)
        assert d33 == pytest.approx(nu)

    def test_dark_equilibrium(self):
        p = SystemParams(gamma_total=10.0)
        assert rhs_adiabatic(1.0, 0.0, 0.0, 0.0, p) == (0.0, -0.0, -0.0)

    def test_coherence_rate_at_equal_mixing(self):
        p = SystemParams(gamma_total=8.0)
        nu = 1.0 / 16.0
        rho11, rho33, rho13 = 0.3, 0.5, 0.1
        _, _, d13 = rhs_adiabatic(rho11, rho33, rho13, math.pi / 4, p)
        assert d13 == pytest.approx(-nu * (rho13 + 0.5 * (rho11 + rho33)))

    def test_population_sum_conserved(self):
        p = SystemParams(gamma_total=10.0)
        _, states = integrate_adiabatic(
            lambda t: HALF_PI * math.sin(0.02 * t) ** 2, p,
            denormalize_time(2.0, p), 2000)
        sums = states[:, 0] + states[:, 1]
        assert np.max(np.abs(sums - sums[0])) <= 1e-10

    @settings(deadline=None, max_examples=100)
    @given(st.floats(1.0, 100.0), st.floats(-4.0, 4.0),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_generator_matches_rhs(self, gamma, theta, state):
        p = SystemParams(gamma_total=gamma)
        G = reduced._adiabatic_generator(theta, p)
        assert G.shape == (3, 3)
        assert np.abs(G @ np.array(state)
                      - np.array(rhs_adiabatic(*state, theta, p))).max() \
            <= 1e-15
        thetas = np.array([[theta, 0.3], [1.2, -0.5]])
        assert np.array_equal(
            reduced._adiabatic_generator(thetas, p),
            np.stack([[reduced._adiabatic_generator(t, p) for t in row]
                      for row in thetas]))

    @settings(deadline=None, max_examples=100)
    @given(st.floats(1.0, 100.0),
           st.lists(st.floats(0.0, HALF_PI), min_size=3, max_size=3),
           st.floats(0.0, 1.0))
    def test_transition_matrices_keep_population_sum(self, gamma, thetas,
                                                     step):
        # uE = u with u = (1, 1, 0): rho11 + rho33 is kept by every step of
        # up to one unit of normalized time.
        p = SystemParams(gamma_total=gamma)
        G = reduced._adiabatic_generator(thetas, p)
        E = model._rk4_transitions(G[None, 0], G[None, 1], G[None, 2],
                                   denormalize_time(step, p))[0]
        u = np.array([1.0, 1.0, 0.0])
        assert np.abs(u @ E - u).max() <= 1e-15


class TestDarkBrightTransform:
    def test_ground_state_is_dark_at_zero_angle(self):
        assert dark_bright_transform(1.0, 0.0, 0.0, 0.0) == (-1.0, 0.0)

    def test_ground_state_is_bright_at_right_angle(self):
        x, y = dark_bright_transform(1.0, 0.0, 0.0, HALF_PI)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(0.0, abs=1e-15)

    def test_equal_mixing(self):
        # Hand evaluation of the 2x2 conjugation for rho = |1><1|, theta = pi/4.
        x, y = dark_bright_transform(1.0, 0.0, 0.0, math.pi / 4)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(1.0)

    def test_roundtrip_with_complex_coherence(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rho11 = rng.uniform(0, 1)
            rho33 = rng.uniform(0, 1 - rho11)
            rho13 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            theta = rng.uniform(0, HALF_PI)
            x, y = dark_bright_transform(rho11, rho13, rho33, theta)
            b11, b13, b33 = dark_bright_inverse(
                x, y, theta, trace=rho11 + rho33, im_db=rho13.imag)
            assert abs(b11 - rho11) <= 1e-12
            assert abs(b13 - rho13) <= 1e-12
            assert abs(b33 - rho33) <= 1e-12
            x2, y2 = dark_bright_transform(b11, b13, b33, theta)
            assert abs(x2 - x) <= 1e-12
            assert abs(y2 - y) <= 1e-12


class TestRhsReduced:
    def test_start_is_equilibrium(self):
        assert np.array_equal(rhs_reduced((-1.0, 0.0, 0.0), 0.0),
                              [0.0, 0.0, 0.0])

    def test_bright_state_relaxes(self):
        dx, dy, dth = rhs_reduced((1.0, 0.0, HALF_PI), 0.0)
        assert (dx, dy, dth) == (-2.0, 0.0, 0.0)

    def test_origin_drifts_dark(self):
        for u in (0.0, 1.0, -3.0):
            dx, dy, _ = rhs_reduced((0.0, 0.0, 0.3), u)
            assert dx == -1.0
            assert dy == 0.0

    def test_accepts_reduced_state(self):
        state = ReducedState.initial()
        assert np.array_equal(rhs_reduced(state, 0.0), [0.0, 0.0, 0.0])
        assert np.array_equal(state.as_array(), [-1.0, 0.0, 0.0])

    @settings(deadline=None, max_examples=100)
    @given(st.floats(-1.0, 1.0),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_generator_matches_rhs(self, u, state):
        # The generator of (x, y, theta, 1): rhs_reduced, then a zero row.
        G = reduced._reduced_generator(u)
        assert G.shape == (4, 4)
        d = G @ np.append(state, 1.0)
        assert np.abs(d[:3] - rhs_reduced(state, u)).max() <= 1e-15
        assert not G[3].any()
        us = np.array([u, 0.25, -3.0])
        assert np.array_equal(reduced._reduced_generator(us),
                              np.stack([reduced._reduced_generator(v)
                                        for v in us]))


class TestTimeNormalization:
    def test_examples(self):
        assert normalize_time(100.0, SystemParams(gamma_total=10.0)) == 5.0
        assert denormalize_time(0.0, SystemParams(gamma_total=10.0)) == 0.0
        assert normalize_time(40.0, SystemParams(gamma_total=2.0)) == 10.0

    def test_roundtrip(self):
        p = SystemParams(gamma_total=7.3)
        for t in (0.0, 0.25, 13.0):
            assert denormalize_time(normalize_time(t, p), p) == pytest.approx(
                t, rel=1e-15)


class TestDiskInvariance:
    def test_trajectories_stay_in_unit_disk(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            values = rng.uniform(-6.0, 6.0, 8)

            def u_fn(tp, values=values):
                return values[min(int(tp / 5.0 * 8), 7)]

            _, states = integrate_reduced(u_fn, 5.0, 8000)
            radius2 = states[:, 0] ** 2 + states[:, 1] ** 2
            assert radius2.max() <= 1.0 + 1e-9


class TestConsistency:
    def test_adiabatic_basis_matches_reduced_system(self):
        # Same smooth schedule integrated in both pictures.
        p = SystemParams(gamma_total=10.0)
        tprime = 2.0
        T = denormalize_time(tprime, p)

        def theta_of_tp(tp):
            return HALF_PI * (tp / tprime) ** 2

        def u_of_tp(tp):
            return HALF_PI * 2.0 * tp / tprime ** 2

        n = 4000
        t_phys, adiabatic = integrate_adiabatic(
            lambda t: theta_of_tp(normalize_time(t, p)), p, T, n)
        _, reduced_states = integrate_reduced(u_of_tp, tprime, n)
        for i in range(0, n + 1, 200):
            theta = theta_of_tp(normalize_time(t_phys[i], p))
            x, y = dark_bright_transform(adiabatic[i, 0], adiabatic[i, 2],
                                         adiabatic[i, 1], theta)
            assert abs(x - reduced_states[i, 0]) <= 1e-8
            assert abs(y - reduced_states[i, 1]) <= 1e-8

    def test_model_reduction_accuracy_improves_with_decay_rate(self):
        # Full model vs reduced model on a smooth ramp at fixed T'.
        tprime = 2.0

        def theta_of_tp(tp):
            return HALF_PI * (tp / tprime) ** 2

        def u_of_tp(tp):
            return HALF_PI * 2.0 * tp / tprime ** 2

        _, reduced_states = integrate_reduced(u_of_tp, tprime, 4000)
        x, y, theta_final = reduced_states[-1]
        _, _, rho33_reduced = dark_bright_inverse(x, y, theta_final)

        gaps = []
        for gamma in (10.0, 30.0, 100.0):
            p = SystemParams(gamma_total=gamma)
            T = denormalize_time(tprime, p)
            control = from_function(
                lambda t: theta_of_tp(normalize_time(t, p)), T, 2000)
            rho33_full = integrate_full(control, p).final_rho33
            gaps.append(abs(rho33_full - rho33_reduced))
        assert all(gap <= 0.02 for gap in gaps)
        assert gaps[0] > gaps[1] > gaps[2]

    @settings(deadline=None, max_examples=6)
    @given(n=st.integers(1, 5), tprime=st.floats(0.5, 5.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=5, tprime=5.0, seed=0)
    def test_full_model_approaches_closed_form(self, n, tprime, seed):
        # A random bang-singular sequence on a full-model grid: theta_k is
        # the cumulative jump and interval k lasts arc_k in normalized time.
        # The dark/bright (x, y) of the {|1>, |3>} block approaches the
        # closed form as Gamma grows (measured: about as (omega0/Gamma)^2).
        seq = random_sequence(np.random.default_rng(seed), n, tprime)
        jumps, arcs = seq.jumps, seq.arcs
        thetas = np.clip(np.cumsum(jumps), 0.0, HALF_PI)
        xc, yc = closed_form_sequence(seq)
        errors = []
        for gamma in (10.0, 30.0, 100.0):
            p = SystemParams(gamma_total=gamma)
            grid = np.cumsum([0.0] + [denormalize_time(a, p) for a in arcs])
            final = integrate_full(ControlSignal(grid, thetas), p).final_state
            x, y = dark_bright_transform(final[0], final[5] + 1j * final[8],
                                         final[2], thetas[-1])
            errors.append(max(abs(x - xc), abs(y - yc)))
        assert errors[2] < 1e-3
        assert errors[0] >= 4.0 * errors[1]
        assert errors[1] >= 4.0 * errors[2]

    def test_reduced_matches_full_state_fraction(self):
        # Sanity anchor: at theta = pi/2 the dark population is rho33.
        p = SystemParams(gamma_total=30.0)
        T = denormalize_time(1.5, p)
        control = ControlSignal.constant(HALF_PI, T)
        full = integrate_full(control, p).final_rho33
        _, states = integrate_reduced(lambda tp: 0.0, 1.5, 2000,
                                      state0=(1.0, 0.0, HALF_PI))
        assert full == pytest.approx(0.5 * (1.0 - states[-1, 0]), abs=5e-3)


class TestStepCountValidation:
    def test_numpy_integer_accepted(self):
        _, states = integrate_reduced(lambda tp: 0.0, 1.0, np.int64(4))
        assert states.shape == (5, 3)


class TestInitialStateValidation:
    @pytest.mark.parametrize("state0, problem", [
        ((1.0, 2.0), "must have 3 components"),
        ((-1.0, 0.0, 0.0, 0.0), "must have 3 components"),
        ((math.nan, 0.0, 0.0), "must be finite"),
        ((-1.0, math.inf, 0.0), "must be finite"),
        (ReducedState(x=math.nan, y=0.0, theta=0.0), "must be finite"),
    ])
    def test_integrate_reduced_rejects(self, state0, problem):
        # Rejected at entry, not inside the sampler or as an
        # IntegrationError at the first step.
        with pytest.raises(ValueError, match=f"^state0 {problem}"):
            integrate_reduced(lambda tp: 0.5, 1.0, 10, state0=state0)

    def test_reduced_state_accepted(self):
        # rhs_reduced takes a ReducedState, so integrate_reduced does too.
        def u_fn(tp):
            return 1.5 * math.cos(tp)

        got = integrate_reduced(u_fn, 5.0, 200, state0=ReducedState.initial())
        expected = integrate_reduced(u_fn, 5.0, 200, state0=(-1, 0, 0))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()


class TestNonFiniteState:
    # h = 0.03: the control is first NaN inside step 33, [0.99, 1.02], so
    # the state is first non-finite at 1.02 and last finite at 0.99.
    def test_integrate_adiabatic_raises_at_first_bad_sample(self):
        def theta_fn(t):
            return math.nan if t > 1.0 else 0.7

        with pytest.raises(IntegrationError) as excinfo:
            integrate_adiabatic(theta_fn, SystemParams(gamma_total=10.0),
                                3.0, 100)
        assert str(excinfo.value) == "non-finite state encountered at t=1.02"
        assert excinfo.value.last_time == 33 * 0.03

    def test_integrate_reduced_raises_at_first_bad_sample(self):
        def u_fn(t):
            return math.nan if t > 1.0 else 0.4

        with pytest.raises(IntegrationError) as excinfo:
            integrate_reduced(u_fn, 3.0, 100)
        assert str(excinfo.value) == "non-finite state encountered at t=1.02"
        assert excinfo.value.last_time == 33 * 0.03
