import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_control import analytic
from lambda_control.analytic import (
    BOUND_TOL,
    EQUALITY_TOL,
    RANDOM_MAX_N,
    _ZERO_STEP,
    BangSingularSequence,
    _step_factors,
    apply_bang,
    apply_singular,
    optical_pumping_value,
    propagate_batch,
    propagate_sequence,
    pumping_efficiency,
    random_batch,
    random_sequence,
    verify_bound,
    verify_bounds,
)
from lambda_control.model import HALF_PI, SystemParams
from lambda_control.reduced import normalize_time
from oracles import closed_form_sequence, is_pumping_equivalent

finite_xy = st.floats(min_value=-1.0, max_value=1.0)


class TestApplyBang:
    def test_half_turn(self):
        x, y = apply_bang(-1.0, 0.0, HALF_PI)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn(self):
        x, y = apply_bang(-1.0, 0.0, math.pi / 4)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(1.0)

    def test_zero_jump_is_identity(self):
        assert apply_bang(0.3, -0.7, 0.0) == (0.3, -0.7)

    @settings(deadline=None, max_examples=200)
    @given(finite_xy, finite_xy, st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_rotation_preserves_norm(self, x, y, theta):
        x2, y2 = apply_bang(x, y, theta)
        assert x2 * x2 + y2 * y2 == pytest.approx(x * x + y * y, abs=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(finite_xy, finite_xy,
           st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=0.0, max_value=math.pi))
    def test_jumps_compose(self, x, y, a, b):
        two_step = apply_bang(*apply_bang(x, y, a), b)
        one_step = apply_bang(x, y, a + b)
        assert two_step[0] == pytest.approx(one_step[0], abs=1e-12)
        assert two_step[1] == pytest.approx(one_step[1], abs=1e-12)


class TestApplySingular:
    def test_half_life_of_bright_point(self):
        x, y = apply_singular(1.0, 0.0, math.log(2.0))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == 0.0

    def test_zero_duration_is_identity(self):
        assert apply_singular(0.4, -0.2, 0.0) == (0.4, -0.2)

    def test_long_arc_reaches_dark_fixed_point(self):
        x, y = apply_singular(1.0, 0.0, 60.0)
        assert x == pytest.approx(-1.0, abs=1e-12)
        assert y == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            apply_singular(0.0, 0.0, -0.1)

    @settings(deadline=None, max_examples=200)
    @given(finite_xy, finite_xy,
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_semigroup(self, x, y, t1, t2):
        joint = apply_singular(x, y, t1 + t2)
        split = apply_singular(*apply_singular(x, y, t1), t2)
        assert joint[0] == pytest.approx(split[0], abs=1e-12)
        assert joint[1] == pytest.approx(split[1], abs=1e-12)


class TestSequenceValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BangSingularSequence(jumps=[0.1, 0.2], arcs=[1.0])

    def test_negative_arc(self):
        with pytest.raises(ValueError):
            BangSingularSequence(jumps=[HALF_PI], arcs=[-1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            BangSingularSequence(jumps=[], arcs=[])

    def test_properties(self):
        seq = BangSingularSequence(jumps=[0.5, HALF_PI - 0.5], arcs=[1.0, 2.0])
        assert seq.n == 2
        assert seq.total_angle == pytest.approx(HALF_PI)
        assert seq.total_time == 3.0
        assert seq.matches_boundary()


class TestPropagateSequence:
    def test_single_jump_closed_form(self):
        for tprime in (0.0, 1.0, 5.0):
            seq = BangSingularSequence.optical_pumping(tprime)
            x, y = propagate_sequence(seq)
            assert x == pytest.approx(2.0 * math.exp(-tprime) - 1.0, abs=1e-14)
            assert y == pytest.approx(0.0, abs=1e-15)

    def test_two_equal_jumps(self):
        seq = BangSingularSequence(jumps=[math.pi / 4, math.pi / 4],
                                   arcs=[1.0, 1.0])
        x, _ = propagate_sequence(seq)
        assert x == pytest.approx(-0.496785275591945, abs=1e-14)
        assert x == pytest.approx(math.exp(-2) + math.exp(-1) - 1.0, abs=1e-14)
        # Strictly worse than pumping over the same window.
        x1 = optical_pumping_value(2.0)
        assert x1 == pytest.approx(-0.7293294335267746, abs=1e-15)
        assert x > x1

    def test_zero_angle_jump_is_inert(self):
        for split in (0.0, 1.3, 5.0):
            seq = BangSingularSequence(jumps=[HALF_PI, 0.0],
                                       arcs=[split, 5.0 - split])
            x, y = propagate_sequence(seq)
            x1, y1 = propagate_sequence(BangSingularSequence.optical_pumping(5.0))
            assert x == pytest.approx(x1, abs=1e-14)
            assert y == pytest.approx(y1, abs=1e-14)


class TestClosedForm:
    def test_matches_propagation_on_reference_cases(self):
        cases = [
            BangSingularSequence.optical_pumping(5.0),
            BangSingularSequence(jumps=[math.pi / 4, math.pi / 4],
                                 arcs=[1.0, 1.0]),
            BangSingularSequence(jumps=[HALF_PI, 0.0], arcs=[2.0, 3.0]),
        ]
        for seq in cases:
            assert closed_form_sequence(seq) == pytest.approx(
                propagate_sequence(seq), abs=1e-14)

    def test_matches_propagation_randomized(self):
        # Unit-time draws scaled per row to T' in [0, 10): d * 1.0 * T' is
        # the bits of d * T', so each row is a random_sequence at its T'.
        rng = np.random.default_rng(3)
        lengths, jumps, arcs = random_batch(rng, 1000, 1.0)
        arcs *= rng.uniform(0.0, 10.0, (lengths.size, 1))
        xp, yp = propagate_batch(jumps, arcs)
        for i, n in enumerate(lengths):
            xc, yc = closed_form_sequence(
                BangSingularSequence(jumps[i, :n], arcs[i, :n]))
            assert abs(xc - xp[i]) <= 1e-12
            assert abs(yc - yp[i]) <= 1e-12

    def test_single_jump_reduces_to_pumping_formula(self):
        for tprime in (0.0, 0.7, 4.0):
            seq = BangSingularSequence.optical_pumping(tprime)
            x, _ = closed_form_sequence(seq)
            assert x == pytest.approx(optical_pumping_value(tprime), abs=1e-14)

    def test_matches_impulsive_ode_integration(self):
        # Arcs integrated with a dedicated RK4 on dx = -(x+1), dy = -y;
        # jumps applied as literal rotation matrices.
        def ode_oracle(seq):
            x, y = -1.0, 0.0
            for jump, arc in zip(seq.jumps, seq.arcs):
                c, s = math.cos(2 * jump), math.sin(2 * jump)
                x, y = c * x + s * y, -s * x + c * y
                steps = max(1, int(math.ceil(arc / 0.002)))
                h = arc / steps if steps else 0.0
                for _ in range(steps):
                    if arc == 0.0:
                        break
                    kx1 = -(x + 1.0)
                    ky1 = -y
                    kx2 = -((x + 0.5 * h * kx1) + 1.0)
                    ky2 = -(y + 0.5 * h * ky1)
                    kx3 = -((x + 0.5 * h * kx2) + 1.0)
                    ky3 = -(y + 0.5 * h * ky2)
                    kx4 = -((x + h * kx3) + 1.0)
                    ky4 = -(y + h * ky3)
                    x += (h / 6.0) * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
                    y += (h / 6.0) * (ky1 + 2 * ky2 + 2 * ky3 + ky4)
            return x, y

        rng = np.random.default_rng(4)
        for _ in range(25):
            seq = random_sequence(rng, int(rng.integers(1, 11)), 5.0)
            xc, yc = closed_form_sequence(seq)
            xo, yo = ode_oracle(seq)
            assert abs(xc - xo) <= 1e-8
            assert abs(yc - yo) <= 1e-8


class TestOpticalPumpingValue:
    def test_limits_and_value(self):
        assert optical_pumping_value(0.0) == 1.0
        assert optical_pumping_value(60.0) == pytest.approx(-1.0, abs=1e-15)
        assert optical_pumping_value(5.0) == pytest.approx(
            -0.9865241060018291, abs=1e-15)



class TestPumpingEfficiency:
    def test_zero_duration(self):
        assert pumping_efficiency(0.0, SystemParams(gamma_total=10.0)) == 0.0

    def test_reference_value(self):
        p = SystemParams(gamma_total=10.0)
        assert pumping_efficiency(100.0, p) == pytest.approx(
            0.9932620530009145, abs=1e-15)

    def test_consistent_with_population_difference(self):
        # rho33 = (1 - X1)/2 at theta = pi/2 in the dark/bright picture.
        p = SystemParams(gamma_total=4.0)
        for T in (1.0, 10.0, 30.0):
            tprime = normalize_time(T, p)
            assert pumping_efficiency(T, p) == pytest.approx(
                0.5 * (1.0 - optical_pumping_value(tprime)), abs=1e-14)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            pumping_efficiency(1.0, SystemParams(gamma_total=10.0,
                                                 gamma_diff=1.0))



class TestVerifyBound:
    def test_pumping_attains_equality(self):
        check = verify_bound(BangSingularSequence.optical_pumping(5.0))
        assert check.satisfied
        assert check.at_equality
        assert check.margin == pytest.approx(0.0, abs=1e-15)
        assert check.x1 == pytest.approx(-0.9865241060018291, abs=1e-15)

    def test_two_jump_sequence_is_strictly_worse(self):
        seq = BangSingularSequence(jumps=[math.pi / 4, math.pi / 4],
                                   arcs=[1.0, 1.0])
        check = verify_bound(seq)
        assert check.satisfied
        assert not check.at_equality
        assert check.margin > 0.2

    def test_randomized_bound(self):
        # random_sequence draws at T' in [0, 12), as in
        # test_matches_propagation_randomized.
        rng = np.random.default_rng(5)
        lengths, jumps, arcs = random_batch(rng, 2000, 1.0)
        arcs *= rng.uniform(0.0, 12.0, (lengths.size, 1))
        check = verify_bounds(lengths, jumps, arcs)
        assert check.satisfied.all()
        for i in np.flatnonzero(check.at_equality):
            n = lengths[i]
            assert is_pumping_equivalent(
                BangSingularSequence(jumps[i, :n], arcs[i, :n]))

    def test_one_row_call_of_verify_bounds(self):
        seq = BangSingularSequence(jumps=[0.2, -0.0, HALF_PI - 0.2],
                                   arcs=[1.5, 0.0, 2.25])
        check = verify_bound(seq)
        batch = verify_bounds([3], seq.jumps[np.newaxis], seq.arcs[np.newaxis])
        for name in ("xn", "x1", "margin", "satisfied", "at_equality"):
            value = getattr(check, name)
            assert type(value) is (bool if name in ("satisfied", "at_equality")
                                   else float)
            assert _bits(value) == _bits(getattr(batch, name)[0])
        x, y = propagate_sequence(seq)
        assert (type(x), type(y)) == (float, float)
        assert (_bits(x), _bits(y)) == tuple(map(_bits, _scalar_fold(
            seq.jumps, seq.arcs)))

    def test_wrong_total_angle_rejected(self):
        with pytest.raises(ValueError, match="pi/2"):
            verify_bound(BangSingularSequence(jumps=[0.3], arcs=[1.0]))

    def test_equality_exactly_for_pumping_equivalent_sequences(self):
        equivalents = [
            BangSingularSequence(jumps=[HALF_PI, 0.0], arcs=[2.0, 3.0]),
            BangSingularSequence(jumps=[0.0, HALF_PI], arcs=[0.0, 5.0]),
            BangSingularSequence(jumps=[math.pi / 4, math.pi / 4],
                                 arcs=[0.0, 5.0]),
            BangSingularSequence(jumps=[HALF_PI, 0.0, 0.0],
                                 arcs=[1.0, 2.0, 2.0]),
        ]
        for seq in equivalents:
            check = verify_bound(seq)
            assert abs(check.margin) <= 1e-12
            assert is_pumping_equivalent(seq)

        near_miss = BangSingularSequence(jumps=[HALF_PI - 0.01, 0.01],
                                         arcs=[2.5, 2.5])
        check = verify_bound(near_miss)
        assert check.margin > 1e-9
        assert not is_pumping_equivalent(near_miss)


def _scalar_fold(jumps, arcs):
    x, y = -1.0, 0.0
    for jump, arc in zip(jumps, arcs):
        x, y = apply_bang(x, y, jump)
        x, y = apply_singular(x, y, arc)
    return x, y


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _boundary_row(n):
    # n - 1 free jumps (signed zeros, negative or positive), the last one
    # closing the sum to pi/2, and n arcs (signed zeros or positive).
    zero = st.sampled_from([0.0, -0.0])
    angle = st.one_of(zero, st.floats(-math.pi, math.pi))
    arc = st.one_of(zero, st.floats(0.0, 20.0))
    return st.tuples(st.lists(angle, min_size=n - 1, max_size=n - 1),
                     st.lists(arc, min_size=n, max_size=n))


ragged_batches = st.lists(st.integers(1, 10).flatmap(_boundary_row),
                          min_size=1, max_size=8)


def _padded(rows, width=RANDOM_MAX_N):
    """(lengths, jumps, arcs) of (jumps, arcs) rows, zero-padded to width."""
    lengths = np.array([len(row_jumps) for row_jumps, _ in rows])
    jumps, arcs = np.zeros((2, len(rows), width))
    for i, (row_jumps, row_arcs) in enumerate(rows):
        jumps[i, :lengths[i]] = row_jumps
        arcs[i, :lengths[i]] = row_arcs
    return lengths, jumps, arcs


class TestBatch:
    @settings(deadline=None, max_examples=200)
    @given(ragged_batches)
    @example([([], [5.0])])
    @example([([0.0, 0.0], [0.0, 0.0, 0.0]), ([0.7], [0.0, 3.0])])
    @example([([-0.0, 0.0], [-0.0, 0.0, 2.0]), ([-0.0], [1.0, -0.0])])
    # Seven arcs of 0.1 padded to ten sum to 0.7000000000000001, not 0.7.
    @example([([0.0] * 6, [0.1] * 7), ([0.0] * 9, [0.0] * 10)])
    def test_equals_scalar_folds(self, rows):
        lengths, jumps, arcs = _padded(
            [(free + [HALF_PI - sum(free)], arc) for free, arc in rows])
        check = verify_bounds(lengths, jumps, arcs)
        x, y = propagate_batch(jumps, arcs)
        for i, n in enumerate(lengths):
            row_jumps, row_arcs = jumps[i, :n], arcs[i, :n]
            xs, ys = _scalar_fold(row_jumps, row_arcs)
            x1 = optical_pumping_value(float(row_arcs.sum()))
            margin = xs - x1
            assert _bits(x[i]) == _bits(xs)
            assert y[i] == ys
            assert _bits(check.xn[i]) == _bits(xs)
            assert _bits(check.x1[i]) == _bits(x1)
            assert _bits(check.margin[i]) == _bits(margin)
            assert check.satisfied[i] == (margin >= -BOUND_TOL)
            assert check.at_equality[i] == (abs(margin) <= EQUALITY_TOL)
            xc, yc = closed_form_sequence(BangSingularSequence(row_jumps,
                                                               row_arcs))
            assert abs(x[i] - xc) <= 1e-12
            assert abs(y[i] - yc) <= 1e-12

    def test_x1_is_optical_pumping_value_bit_for_bit(self):
        # Totals of one arc each: zero, subnormal, around exp's underflow
        # (709.78, 745.13) and past it, and a spread of ordinary values.
        totals = [0.0, 5e-324, 2.2e-308, 1e-17, 0.5, 1.0, 709.0, 709.8,
                  710.0, 745.0, 746.0, 1e300]
        totals += np.random.default_rng(8).uniform(0.0, 40.0, 500).tolist()
        lengths, jumps, arcs = _padded([([HALF_PI], [t]) for t in totals])
        check = verify_bounds(lengths, jumps, arcs)
        assert check.x1.tobytes() == np.array(
            [optical_pumping_value(t) for t in totals]).tobytes()

    def test_padding_factors_are_the_math_values(self):
        # A padding step (+0.0 jump and arc) skips math and takes these.
        factors = _step_factors(np.zeros(1), np.zeros(1))
        assert np.array(factors).tobytes() == \
            np.array(_ZERO_STEP)[:, np.newaxis].tobytes()

    def test_only_plus_zero_steps_skip_math(self, monkeypatch):
        # sin(-0.0) = -0.0 and expm1(+0.0) = +0.0 differ from _ZERO_STEP in
        # sign, so a step with a -0.0 jump or arc must still reach math.
        calls = []

        def recording(jumps, arcs):
            calls.append((jumps.tolist(), arcs.tolist()))
            return _step_factors(jumps, arcs)

        monkeypatch.setattr(analytic, "_step_factors", recording)
        propagate_batch([[HALF_PI, -0.0, 0.0, 0.0]], [[1.0, 0.0, -0.0, 0.0]])
        [(jumps, arcs)] = calls
        assert [_bits(v) for v in jumps] == [_bits(v)
                                             for v in (HALF_PI, -0.0, 0.0)]
        assert [_bits(v) for v in arcs] == [_bits(v) for v in (1.0, 0.0, -0.0)]

    def test_first_bad_row_raises_its_sequence_error(self):
        good = ([HALF_PI, 0.0], [1.0, 2.0])
        cases = [
            (([HALF_PI], [-1.0]), "arc durations must be nonnegative"),
            (([HALF_PI], [np.inf]), "finite"),
            (([0.3], [1.0]), "pi/2, got 0.3"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                verify_bounds(*_padded([good, bad, good]))
        # Of two bad rows, the first one's error is raised.
        with pytest.raises(ValueError, match="pi/2, got 0.3"):
            verify_bounds(*_padded([good, ([0.3], [1.0]),
                                    ([HALF_PI], [-1.0])]))
        with pytest.raises(ValueError, match="nonnegative"):
            propagate_batch([[HALF_PI]], [[-1.0]])
        for jumps, arcs in [([[HALF_PI]], [[np.nan]]),
                            ([[np.inf]], [[1.0]]),
                            ([[np.nan]], [[1.0]]),
                            ([[HALF_PI]], [[np.inf]])]:
            with pytest.raises(ValueError,
                               match="^jumps and arcs must be finite$"):
                propagate_batch(jumps, arcs)

    def test_malformed_layout_raises(self):
        lengths, jumps, arcs = _padded([([HALF_PI], [1.0]),
                                        ([1.0, HALF_PI - 1.0], [0.5, 0.5])],
                                       width=3)
        verify_bounds(lengths, jumps, arcs)
        layout = "a batch needs"
        past_end = "zero past each row's length"
        cases = [
            # Shapes that differ.
            ((lengths, jumps, arcs[:, :2]), layout),
            ((lengths, jumps[:1], arcs[:1]), layout),
            ((lengths[:, np.newaxis], jumps, arcs), layout),
            ((np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros((0, 3))),
             layout),
            # Lengths outside 1..L, or not integers.
            ((np.array([0, 2]), jumps, arcs), layout),
            ((np.array([1, 4]), jumps, arcs), layout),
            ((lengths.astype(float), jumps, arcs), layout),
            # A nonzero entry past a row's end.
            ((np.array([1, 1]), jumps, arcs), past_end),
        ]
        for bad in (jumps, arcs):
            for value in (1e-300, -1.0, np.nan):
                padded = bad.copy()
                padded[0, 2] = value
                cases.append(((lengths, padded, arcs) if bad is jumps
                              else (lengths, jumps, padded), past_end))
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                verify_bounds(*args)


class TestPumpingEquivalence:
    def test_plain_pumping(self):
        assert is_pumping_equivalent(BangSingularSequence.optical_pumping(3.0))

    def test_split_jump_with_positive_arc_between(self):
        seq = BangSingularSequence(jumps=[math.pi / 4, math.pi / 4],
                                   arcs=[1.0, 1.0])
        assert not is_pumping_equivalent(seq)

    def test_merged_jumps_across_zero_arcs(self):
        seq = BangSingularSequence(jumps=[math.pi / 8, 3 * math.pi / 8],
                                   arcs=[0.0, 4.0])
        assert is_pumping_equivalent(seq)


_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64,
                   np.random.Philox, np.random.MT19937)

# Words of np.random.default_rng(0)'s PCG64 stream, counted from 0, where
# integers(1, RANDOM_MAX_N + 1) rejects a 32-bit half h, i.e. where
# (RANDOM_MAX_N * h) mod 2**32 < 6.  They were found by scanning the first
# 3e9 words of random_raw in chunks of 2**22 with that test vectorised;
# rejected halves are ~1.4e-9 rare, and these are the first of each kind.
_REJECTED_HIGH = 168499528  # 0x4ccccccd5f64ff2b
_REJECTED_LOW = 1081373561  # 0x0a2719ab1999999a


def _state_bits(rng):
    """The bit generator's state, with every array as its bytes."""
    def flat(value):
        if isinstance(value, dict):
            return {key: flat(item) for key, item in value.items()}
        return value.tobytes() if isinstance(value, np.ndarray) else value
    return flat(rng.bit_generator.state)


def _draw_loop(rng, count, tprime):
    """(lengths, jumps, arcs) of count integers + random_sequence draws,
    the loop random_batch must equal, zero-padded to RANDOM_MAX_N."""
    lengths = []
    padded = np.zeros((2, count, RANDOM_MAX_N))
    for i in range(count):
        n = int(rng.integers(1, RANDOM_MAX_N + 1))
        lengths.append(n)
        seq = random_sequence(rng, n, tprime)
        padded[0, i, :n], padded[1, i, :n] = seq.jumps, seq.arcs
    return np.array(lengths, dtype=np.intp), padded[0], padded[1]


def _assert_batches_equal_draw_loop(batch_rng, loop_rng, counts, tprime):
    """random_batch calls of the given counts, back to back on batch_rng,
    equal the draw loop on loop_rng bit for bit, and after each call the two
    generators are in the same state."""
    lengths_seen = set()
    for count in counts:
        lengths, jumps, arcs = random_batch(batch_rng, count, tprime)
        assert jumps.shape == arcs.shape == (count, RANDOM_MAX_N)
        expected = _draw_loop(loop_rng, count, tprime)
        for got, want in zip((lengths, jumps, arcs), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert _state_bits(batch_rng) == _state_bits(loop_rng)
        lengths_seen.update(lengths.tolist())
    return lengths_seen


class TestRandomSequence:
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("tprime", [0.0, 1e-3, 5.0, 1e3])
    def test_batch_equals_draw_loop(self, seed, tprime):
        # Bit equality rests on how numpy's Dirichlet(1, ..., 1) sums and
        # scales its exponential draws, and on how integers draws 32-bit
        # halves; a numpy that changes either fails here.  Every numpy bit
        # generator; after the odd counts a batch starts on a buffered half.
        for bit_generator in _BIT_GENERATORS:
            seen = _assert_batches_equal_draw_loop(
                np.random.Generator(bit_generator(seed)),
                np.random.Generator(bit_generator(seed)),
                (0, 1, 7, 400, 3), tprime)
            # Including 8-10, where numpy sums a row pairwise.
            assert seen == set(range(1, RANDOM_MAX_N + 1))

    def test_rejected_words_are_pinned(self):
        for offset, rejected in ((_REJECTED_HIGH, (False, True)),
                                 (_REJECTED_LOW, (True, False))):
            bitgen = np.random.default_rng(0).bit_generator
            bitgen.advance(offset)
            word = bitgen.random_raw()
            halves = word & 0xFFFFFFFF, word >> 32
            assert tuple(RANDOM_MAX_N * h % 2**32 < 6
                         for h in halves) == rejected

    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("offset", [_REJECTED_HIGH - 1, _REJECTED_HIGH,
                                        _REJECTED_LOW - 1, _REJECTED_LOW])
    def test_batch_at_rejected_half(self, offset, lead):
        # At _REJECTED_HIGH the second length meets the rejected half in
        # the buffer after the first sequence's exponentials, or, after one
        # lead integers draw, the batch starts on it; at _REJECTED_LOW the
        # first length (or the lead draw) rejects the low half and takes
        # the high one.  One word earlier, the rejected word goes to the
        # first exponential draws instead.
        rngs = [np.random.default_rng(0) for _ in range(2)]
        for rng in rngs:
            rng.bit_generator.advance(offset)
            rng.integers(1, RANDOM_MAX_N + 1, size=lead)
        _assert_batches_equal_draw_loop(*rngs, (2, 401), 1.0)

    def test_batch_rejects_other_bit_generators(self):
        rng = types.SimpleNamespace(bit_generator=object())
        with pytest.raises(TypeError, match="numpy's bit generators"):
            random_batch(rng, 1, 1.0)

    def test_simplex_sums(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            tprime = rng.uniform(0.0, 8.0)
            seq = random_sequence(rng, n, tprime)
            assert seq.n == n
            assert seq.total_angle == pytest.approx(HALF_PI, abs=1e-12)
            assert seq.total_time == pytest.approx(tprime, abs=1e-12)
            assert np.all(seq.arcs >= 0.0)
            assert np.all(seq.jumps >= 0.0)
