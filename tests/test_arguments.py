"""Every public entry point checks its durations and counts the same way.

A bad duration or count raises ValueError whose message starts with the
argument's name, before numpy sees the value (so no RuntimeWarning), and
prints plain floats and ints, never a numpy scalar repr.
"""

import math
import warnings

import numpy as np
import pytest

from lambda_control import analytic, model, optimizer, reduced
from lambda_control.model import ControlSignal, SystemParams

P = SystemParams(gamma_total=1.0)
CONTROL = ControlSignal.constant(0.3, 1.0, 2)
# The random draws check their arguments before the first draw, so a
# rejected call leaves this generator's state alone.
RNG = np.random.default_rng(5)


def _no_work(t):
    raise AssertionError("no work before the argument check")


# name -> (argument name, zero is valid, call with the bad value).
DURATIONS = {
    "constant": ("duration", False,
                 lambda d: ControlSignal.constant(0.3, d, 4)),
    "linear_ramp": ("duration", False,
                    lambda d: ControlSignal.linear_ramp(0.0, 1.0, d, 4)),
    "piecewise": ("duration", False,
                  lambda d: ControlSignal.piecewise([0.0], [0.3], d)),
    "optical_pumping_control": ("duration", False,
                                model.optical_pumping_control),
    "pumping_baseline": ("duration", False,
                         lambda d: optimizer.pumping_baseline(P, d)),
    "optimize": ("T", False,
                 lambda d: optimizer.optimize(optimizer.OptimizationConfig(),
                                              P, d)),
    "integrate_full": ("T", False,
                       lambda d: model.integrate_full(CONTROL, P, d)),
    "integrate_full_callable": ("T", False,
                                lambda d: model.integrate_full(_no_work, P,
                                                               d)),
    "integrate_full_max_step": ("max_step", False,
                                lambda d: model.integrate_full(
                                    CONTROL, P, max_step=d)),
    "integrate_adiabatic": ("T", False,
                            lambda d: reduced.integrate_adiabatic(
                                _no_work, SystemParams(gamma_total=10.0), d,
                                5)),
    "integrate_reduced": ("tprime", False,
                          lambda d: reduced.integrate_reduced(_no_work, d, 5)),
    "optical_pumping_value": ("tprime", True,
                              analytic.optical_pumping_value),
    "pumping_efficiency": ("T", True,
                           lambda d: analytic.pumping_efficiency(d, P)),
    "BangSingularSequence.optical_pumping": (
        "tprime", True, analytic.BangSingularSequence.optical_pumping),
    "random_batch": ("tprime", True,
                     lambda d: analytic.random_batch(RNG, [1, 2, 3], d)),
    "random_sequence": ("tprime", True,
                        lambda d: analytic.random_sequence(RNG, 2, d)),
}

# name -> (argument name, least valid count, call with the bad value).
COUNTS = {
    "constant": ("n_intervals", 1,
                 lambda n: ControlSignal.constant(0.3, 1.0, n)),
    "linear_ramp": ("n_intervals", 1,
                    lambda n: ControlSignal.linear_ramp(0.0, 1.0, 1.0, n)),
    "OptimizationConfig.n_intervals": (
        "n_intervals", 2, lambda n: optimizer.OptimizationConfig(n_intervals=n)),
    "OptimizationConfig.max_iters": (
        "max_iters", 0, lambda n: optimizer.OptimizationConfig(max_iters=n)),
    "OptimizationConfig.n_starts": (
        "n_starts", 1, lambda n: optimizer.OptimizationConfig(n_starts=n)),
    "OptimizationConfig.seed": (
        "seed", 0, lambda n: optimizer.OptimizationConfig(seed=n)),
    "integrate_full_max_samples": ("max_samples", 2,
                                   lambda n: model.integrate_full(
                                       CONTROL, P, max_samples=n)),
    "integrate_adiabatic": ("n_steps", 1,
                            lambda n: reduced.integrate_adiabatic(
                                _no_work, SystemParams(gamma_total=10.0),
                                1.0, n)),
    "integrate_reduced": ("n_steps", 1,
                          lambda n: reduced.integrate_reduced(_no_work, 1.0,
                                                              n)),
    "random_sequence": ("n", 1,
                        lambda n: analytic.random_sequence(RNG, n, 1.0)),
}

BAD_DURATIONS = [math.nan, math.inf, -math.inf, 0.0, -1.0, np.float64(-1.0)]
BAD_COUNTS = [0, -1, 2.5, True, np.int64(-1)]


def _cases(table, values, valid):
    """One case per entry and value of ``values(entry)`` that is not
    ``valid`` for it, keyed by the value's repr (so 1 and True differ)."""
    return [pytest.param(name, value, id=f"{name}-{value!r}")
            for name, entry in table.items()
            for value in {repr(v): v for v in values(entry)}.values()
            if not valid(entry, value)]


def _assert_rejected(call, value, prefix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(value)
    message = str(info.value)
    assert message.startswith(prefix), message
    assert "np." not in message, message


@pytest.mark.parametrize("entry, value", _cases(
    DURATIONS, lambda entry: BAD_DURATIONS,
    lambda entry, value: entry[1] and value == 0.0))
def test_bad_duration_is_named(entry, value):
    name, allow_zero, call = DURATIONS[entry]
    rule = "nonnegative" if allow_zero else "positive"
    _assert_rejected(call, value, f"{name} must be finite and {rule}, got ")


@pytest.mark.parametrize("entry", [name for name, (_, allow_zero, _)
                                   in DURATIONS.items() if allow_zero])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_duration_accepted_where_nonnegative(entry, zero):
    DURATIONS[entry][2](zero)


# Each entry also takes its boundary, least - 1.
@pytest.mark.parametrize("entry, value", _cases(
    COUNTS, lambda entry: [*BAD_COUNTS, entry[1] - 1],
    lambda entry, value: value == entry[1] and not isinstance(value, bool)))
def test_bad_count_is_named(entry, value):
    name, least, call = COUNTS[entry]
    _assert_rejected(call, value, f"{name} must be an integer >= {least}, "
                                  f"got ")


# random_batch's lengths: not 1-D, not integer, or outside 1..RANDOM_MAX_N.
BAD_LENGTHS = {
    "scalar": 3,
    "2-D": [[1, 2]],
    "float": [2.5],
    "bool": [True],
    "zero": [1, 0],
    "negative": [-1],
    "int64-negative": np.array([-1], dtype=np.int64),
    "above": [analytic.RANDOM_MAX_N + 1],
    "uint8-zero": np.zeros(2, dtype=np.uint8),
}


@pytest.mark.parametrize("value", BAD_LENGTHS.values(), ids=BAD_LENGTHS)
def test_bad_lengths_is_named(value):
    _assert_rejected(lambda v: analytic.random_batch(RNG, v, 1.0), value,
                     "lengths must ")


def test_rejected_draw_leaves_the_generator_alone():
    state = RNG.bit_generator.state
    for call in (lambda: analytic.random_batch(RNG, [0], 1.0),
                 lambda: analytic.random_batch(RNG, [3], math.nan),
                 lambda: analytic.random_sequence(RNG, 0, 1.0),
                 lambda: analytic.random_sequence(RNG, 2, -1.0)):
        with pytest.raises(ValueError):
            call()
        assert RNG.bit_generator.state == state


def test_zero_max_iters_accepted():
    assert optimizer.OptimizationConfig(max_iters=0).max_iters == 0


def test_grid_must_start_at_zero():
    with pytest.raises(ValueError, match=r"^grid must start at 0, got 0\.2$"):
        ControlSignal(np.array([0.2, 0.5]), [0.3])
    # -0.0 compares equal to 0, as in a control file's first row.
    assert ControlSignal([-0.0, 0.5], [0.3]).duration == 0.5


def test_short_grid_message_prints_plain_floats():
    # A ControlSignal runs to its duration; a T given with it must equal it.
    with pytest.raises(ValueError) as info:
        model.integrate_full(ControlSignal([0.0, 0.5], [0.3]), P,
                             np.float64(1.0))
    assert str(info.value) == "T must equal the control's duration 0.5, got 1.0"


# Messages that print values other than a duration or count.
MESSAGES = {
    "SystemParams-nan": (lambda: SystemParams(np.float64(math.nan)),
                         "gamma_total must be finite, got nan"),
    "SystemParams-negative": (lambda: SystemParams(np.float64(-1.0)),
                              "gamma_total must be positive, got -1.0"),
    "SystemParams-gamma_diff": (
        lambda: SystemParams(np.float64(1.0), np.float64(2.0)),
        "need |gamma_diff| <= gamma_total so both decay branches are "
        "nonnegative, got gamma_diff=2.0, gamma_total=1.0"),
    "pmp_residual": (
        lambda: analytic.pmp_residual(
            analytic.BangSingularSequence.optical_pumping(5.0),
            np.float64(6.0)),
        "schedule covers T'=5.0, expected 6.0"),
}


@pytest.mark.parametrize("entry", MESSAGES)
def test_message_prints_plain_floats(entry):
    call, message = MESSAGES[entry]
    _assert_rejected(lambda _: call(), None, message)
