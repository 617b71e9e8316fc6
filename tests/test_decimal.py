import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lambda_control import _decimal, analytic


def _repr(values):
    """repr(v) per value, as ``_decimal._repr_cells`` writes them."""
    cells, args = _decimal._repr_cells(np.asarray(values, dtype=float))
    return (",".join(cells.ravel().tolist()) % tuple(args)).split(",")


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate((powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)))


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
    def test_verify_chunk_takes_the_fallback_only_at_zeros(self, monkeypatch,
                                                           tprime):
        # Guards the speed: on a chunk of verify values only the zero
        # margins go to repr.
        lengths, jumps, arcs = analytic.random_batch(
            np.random.default_rng(5), 1000, tprime)
        check = analytic.verify_bounds(lengths, jumps, arcs)
        values = np.concatenate([arcs[jumps != 0.0], jumps[jumps != 0.0],
                                 check.margin, check.x1, check.xn])
        fallback = []

        def counting_repr(value):
            fallback.append(value)
            return repr(value)

        monkeypatch.setattr(_decimal, "repr", counting_repr, raising=False)
        assert _repr(values) == [repr(v) for v in values.tolist()]
        assert fallback == [v for v in values.tolist() if v == 0.0]

    def test_no_table_is_built_at_import(self, tmp_path):
        # The repr templates and the verify record templates are built on
        # first use: importing the CLI or running simulate builds neither.
        script = (
            "import sys\n"
            "from lambda_control import _decimal, cli\n"
            "code = cli.main(['simulate', '--gamma', '2', '--duration', '3',"
            " '--out', sys.argv[1]])\n"
            "built = (_decimal._repr_templates.cache_info().currsize,"
            " cli._verify_templates.cache_info().currsize)\n"
            "sys.exit(code + 10 * (built != (0, 0)))\n"
        )
        src = str(Path(_decimal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
