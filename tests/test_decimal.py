import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lambda_control import _decimal, analytic
from lambda_control.model import HALF_PI, SystemParams, integrate_full


def _repr(values):
    """repr(v) per value, as ``_decimal._repr_cells`` writes them."""
    cells, args = _decimal._repr_cells(np.asarray(values, dtype=float))
    return (",".join(cells.ravel().tolist()) % tuple(args)).split(",")


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate((powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)))


def _g17(values):
    """format(v, ".17g") per value, as ``_decimal._g17_cells`` writes them."""
    cells, args = _decimal._g17_cells(np.asarray(values, dtype=float))
    return ("".join(cells.ravel().tolist()) % tuple(args)).split(",")[:-1]


def _tie_distance(x):
    """Exact distance from one half of the fraction of |x| scaled to 17
    significant digits."""
    exact = Fraction(abs(x))
    X = math.floor(math.log10(abs(x)))
    # log10 may be off by one next to a power of ten.
    while exact >= Fraction(10) ** (X + 1):
        X += 1
    while exact < Fraction(10) ** X:
        X -= 1
    scaled = exact * Fraction(10) ** (16 - X)
    return abs(scaled - math.floor(scaled) - Fraction(1, 2))


_G17_EDGES = np.concatenate((_powers_of_ten(), [
    # Exact ties at the 17th digit: 2**-25 has 18 significant digits.
    2.0 ** -25, 3 * 2.0 ** -25, 7 * 2.0 ** -25,
    # Within 1e-7 of a tie (values of a benchmark-like ramp).
    2.1627770264465145e-09, 0.41445605735320939,
    # Exponent switches and a rounding carry into the next power of ten.
    1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-5, 1e-4, 1e-5,
    123456789012345678.0, 0.5, 1.5, 100.0, 120.0,
    # Subnormals, signed zeros, non-finite values.
    5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    0.0, -0.0, math.inf, -math.inf, math.nan,
]))


class TestG17Formatter:
    """``_decimal._g17_cells``: the digits Trajectory.write_csv writes."""

    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(np.uint64, st.integers(1, 300)))
    def test_bit_patterns_match_format(self, bits):
        values = bits.view(np.float64)
        assert _g17(values) == [format(v, ".17g") for v in values.tolist()]

    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(float, st.integers(1, 300), elements=st.floats()))
    def test_floats_match_format(self, values):
        assert _g17(values) == [format(v, ".17g") for v in values.tolist()]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_values_match_format(self, sign):
        values = sign * _G17_EDGES
        assert _g17(values) == [format(v, ".17g") for v in values.tolist()]

    @pytest.mark.parametrize("gamma, duration", [(10.0, 20.0), (2.0, 50.0)])
    def test_ramp_takes_the_fallback_only_at_near_ties(self, monkeypatch,
                                                       tmp_path, gamma,
                                                       duration):
        # Guards the speed: Python formats only the values within 1e-6 of
        # a tie at the 17th digit, about one value in 500000.
        traj = integrate_full(lambda t: HALF_PI * t / duration,
                              SystemParams(gamma_total=gamma), duration)
        assert traj.times.size > 1600
        fallback = []

        def counting_format(value, spec):
            fallback.append(value)
            return format(value, spec)

        monkeypatch.setattr(_decimal, "format", counting_format,
                            raising=False)
        traj.write_csv(tmp_path / "ramp.csv")
        lead = np.column_stack((traj.times, traj.states[:, :6])).ravel()
        near = [v for v in lead[lead != 0.0].tolist()
                if _tie_distance(v) < Fraction(1, 10 ** 6)]
        assert fallback == near
        if gamma == 10.0:
            assert fallback == []


# Values whose scaled remainder r (|v| * 10**(16 - X) - p, p the rounded
# product) is negative or larger than the modulus 10 where 16 digits are
# the fewest: the candidates are multiples of 10 about p + r, not about p.
_CARRIES = [0.0007346895986537503, 0.0008520290412145554,
            7.713403161178696e-07, 9.310609244629342e-07,
            8.642231227631414e-05, 7470696257.667671, 7.848015187093847e+18]
# Exact powers of two whose shortest repr would be shorter with the gap
# below taken as wide as the gap above: it is half as wide.
_POWERS_OF_TWO = [2.0 ** -25, 2.0 ** 64, 2.0 ** 65, 3.3881317890172014e-21,
                  3.8685626227668134e+25, 1.0261342003245941e-289]
# A shorter candidate on an end of the interval of values that read back
# as v: it reads back as v only when v's mantissa is even.  Even:
# 1.314724290863874e+17, 3.083522607985312e+18, 3.9693469960734e+17 (a
# 14-digit candidate on the end); odd: 2.9410800681327763e+17.
_ON_EDGE = [1.314724290863874e+17, 3.083522607985312e+18,
            3.9693469960734e+17, 2.9410800681327763e+17,
            6.327000706200769e+18, 6.800456017608001e+18]

# Exact ties between two 17-digit candidates where 17 digits are the
# fewest: 18 significant digits ending in 5.
_TIES = [2.0 ** -25, 1.0251998901367188e-05, 1.0728836059570312e-05]

_REPR_EDGES = np.concatenate((_powers_of_ten(), _CARRIES, _POWERS_OF_TWO,
                              _ON_EDGE, _TIES, [
    # The switches between fixed and exponential notation, '.0' on
    # integral values, and a value with no short decimal.
    1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 123.0, 0.1,
    0.5, 1.5, 100.0, 1e15, 1e17,
    # The ends of the digit pass's range and outside it.
    1e-290, 1e290, np.nextafter(1e-290, 0.0), np.nextafter(1e290, np.inf),
    5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308,
    0.0, -0.0, np.inf, -np.inf, np.nan,
]))


class TestReprFormatter:
    """``_decimal._repr_cells``: the digits `verify` writes."""

    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(np.uint64, st.integers(1, 300)))
    def test_bit_patterns_match_repr(self, bits):
        values = bits.view(np.float64)
        assert _repr(values) == [repr(v) for v in values.tolist()]

    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(float, st.integers(1, 300), elements=st.floats()))
    def test_floats_match_repr(self, values):
        assert _repr(values) == [repr(v) for v in values.tolist()]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_values_match_repr(self, sign):
        values = sign * _REPR_EDGES
        assert _repr(values) == [repr(v) for v in values.tolist()]
        # Both signed zeros in one block: each takes its own table entry.
        zeros = sign * np.array([-0.0, 0.0])
        assert _repr(zeros) == [repr(v) for v in zeros.tolist()]

    def test_shape_and_empty(self):
        values = np.arange(1.0, 7.0).reshape(2, 3) / 7.0
        cells, args = _decimal._repr_cells(values)
        assert cells.shape == (2, 3)
        flat = values.ravel()
        assert _repr(flat) == [repr(v) for v in flat.tolist()]
        cells, args = _decimal._repr_cells(np.empty(0))
        assert cells.shape == (0,) and args == []

    @pytest.mark.parametrize("values", [_ON_EDGE, _TIES],
                             ids=["on_interval_end", "tie"])
    def test_undecided_values_take_the_fallback(self, monkeypatch, values):
        fallback = []

        def counting_repr(value):
            fallback.append(value)
            return repr(value)

        monkeypatch.setattr(_decimal, "repr", counting_repr, raising=False)
        assert _repr(values) == [repr(v) for v in values]
        assert fallback == values

    @pytest.mark.parametrize("tprime", [1.0, 5.0, 10.0])
    def test_verify_chunk_takes_no_fallback(self, monkeypatch, tprime):
        # Guards the speed: on a chunk of verify values nothing goes to
        # repr, the zero margins included.
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, analytic.RANDOM_MAX_N + 1, size=1000)
        jumps, arcs = analytic.random_batch(rng, lengths, tprime)
        check = analytic.verify_bounds(lengths, jumps, arcs)
        values = np.concatenate([arcs[jumps != 0.0], jumps[jumps != 0.0],
                                 check.margin, check.x1, check.xn])
        assert (values == 0.0).any()
        fallback = []

        def counting_repr(value):
            fallback.append(value)
            return repr(value)

        monkeypatch.setattr(_decimal, "repr", counting_repr, raising=False)
        assert _repr(values) == [repr(v) for v in values.tolist()]
        assert fallback == []

    def test_no_table_is_built_at_import(self, tmp_path):
        # The verify record templates are built on first use: importing
        # the CLI or running simulate does not build them.
        script = (
            "import sys\n"
            "from lambda_control import _decimal, cli\n"
            "code = cli.main(['simulate', '--gamma', '2', '--duration', '3',"
            " '--out', sys.argv[1]])\n"
            "built = cli._verify_templates.cache_info().currsize\n"
            "sys.exit(code + 10 * (built != 0))\n"
        )
        src = str(Path(_decimal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
