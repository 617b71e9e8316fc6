import math
import warnings

import numpy as np
import pytest

from lambda_control.analytic import BangSingularSequence, pmp_residual
from lambda_control.model import HALF_PI


def _numeric_phi(schedule, times_by_arc):
    """Independent recomputation of the switching function.

    State forward and costate backward are integrated with plain RK4 on the
    u = 0 arc equations (xdot = -(x+1), ydot = -y; ldot = l), with jumps
    applied as literal rotation matrices, and mu pinned at the start of the
    first positive arc exactly as the implementation defines it.
    """
    jumps = schedule.jumps
    arcs = schedule.arcs
    n = schedule.n

    def rotate(vx, vy, angle):
        c, s = math.cos(2 * angle), math.sin(2 * angle)
        return c * vx + s * vy, -s * vx + c * vy

    def rk4_scan(z0, rhs, t_grid):
        """RK4 along t_grid; works for increasing or decreasing grids."""
        values = [np.array(z0, dtype=float)]
        for a, b in zip(t_grid[:-1], t_grid[1:]):
            h = b - a
            z = values[-1]
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            values.append(z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        return values

    state_rhs = lambda z: np.array([-(z[0] + 1.0), -z[1]])
    costate_rhs = lambda z: np.array([z[0], z[1]])

    def arc_grid(i):
        return np.unique(np.concatenate(
            [np.linspace(0.0, arcs[i], 4001), times_by_arc[i]]))

    # Forward state at the requested sample times of every arc.
    states_by_arc = []
    x, y = -1.0, 0.0
    for i in range(n):
        x, y = rotate(x, y, jumps[i])
        if arcs[i] > 0.0:
            dense = arc_grid(i)
            values = rk4_scan((x, y), state_rhs, dense)
            keep = dict(zip(dense.tolist(), values))
            states_by_arc.append([keep[t] for t in times_by_arc[i].tolist()])
            x, y = keep[dense[-1]]
        else:
            states_by_arc.append([])

    # Backward costate: ldot = l integrated from the arc end down to 0.
    lam = np.array([-1.0, 0.0])
    costates_by_arc = [None] * n
    for i in range(n - 1, -1, -1):
        if arcs[i] > 0.0:
            dense = arc_grid(i)
            back = rk4_scan(lam, costate_rhs, dense[::-1])
            keep = dict(zip(dense[::-1].tolist(), back))
            costates_by_arc[i] = [keep[t] for t in times_by_arc[i].tolist()]
            lam = keep[0.0]
        else:
            costates_by_arc[i] = []
        c, s = math.cos(2 * jumps[i]), math.sin(2 * jumps[i])
        lam = np.array([c * lam[0] - s * lam[1], s * lam[0] + c * lam[1]])

    first_positive = next(i for i in range(n) if arcs[i] > 0.0)
    x0, y0 = states_by_arc[first_positive][0]
    lx0, ly0 = costates_by_arc[first_positive][0]
    mu = -2.0 * (lx0 * y0 - ly0 * x0)

    phis = []
    for i in range(n):
        for (sx, sy), (lx, ly) in zip(states_by_arc[i], costates_by_arc[i]):
            phis.append(2.0 * lx * sy - 2.0 * ly * sx + mu)
    return np.array(phis), mu


class TestPumpingSchedule:
    def test_residuals_vanish(self):
        report = pmp_residual(BangSingularSequence.optical_pumping(5.0))
        assert report.max_phi <= 1e-10
        assert report.max_lambda_y <= 1e-10
        assert abs(report.mu) <= 1e-12
        assert not report.flags

    def test_costate_matches_hand_solution(self):
        # Backward from (lambda_x, lambda_y)(T') = (-1, 0) with u = 0:
        # lambda_x(t) = -exp(t - T'), lambda_y = 0.
        tprime = 5.0
        report = pmp_residual(BangSingularSequence.optical_pumping(tprime))
        expected = -np.exp(report.times - tprime)
        assert np.max(np.abs(report.lambda_x - expected)) <= 1e-12
        assert np.max(np.abs(report.lambda_y)) == 0.0

    def test_costates_never_degenerate(self):
        # (lambda_x, lambda_y, mu) is nonzero at every sample, and the
        # last sample is the transversality point (-1, 0).
        report = pmp_residual(BangSingularSequence.optical_pumping(8.0))
        norms = np.maximum(np.maximum(np.abs(report.lambda_x),
                                      np.abs(report.lambda_y)),
                           abs(report.mu))
        assert norms.shape == report.times.shape
        assert np.all(norms > 0.0)
        assert (report.lambda_x[-1], report.lambda_y[-1]) == (-1.0, 0.0)

    @pytest.mark.parametrize("tprime", [710.0, 800.0, 1000.0])
    def test_long_horizons_stay_finite(self, tprime):
        # exp(T') overflows past T' ~ 709.8, and exp(-T') reaches 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pmp_residual(
                BangSingularSequence.optical_pumping(tprime), tprime)
        assert report.max_phi <= 1e-10
        assert report.max_lambda_y <= 1e-10
        assert np.all(np.isfinite(report.lambda_x))
        assert report.lambda_x[-1] == -1.0
        expected = -np.exp(report.times - tprime)
        assert np.max(np.abs(report.lambda_x - expected)) <= 1e-12

    def test_tprime_consistency_check(self):
        seq = BangSingularSequence.optical_pumping(5.0)
        assert pmp_residual(seq, 5.0).max_phi <= 1e-10
        with pytest.raises(ValueError):
            pmp_residual(seq, 6.0)

    @pytest.mark.parametrize("tprime", [math.nan, math.inf, -math.inf])
    def test_non_finite_tprime_rejected(self, tprime):
        # abs(5 - nan) > 1e-9 is False: a nan must still fail the check.
        seq = BangSingularSequence.optical_pumping(5.0)
        with pytest.raises(ValueError, match="expected"):
            pmp_residual(seq, tprime)


class TestPerturbedSchedules:
    def test_extra_bang_leaves_residuals(self):
        seq = BangSingularSequence(jumps=[HALF_PI - 0.2, 0.2],
                                   arcs=[2.5, 2.5])
        report = pmp_residual(seq)
        assert report.max_phi >= 1e-3
        assert report.max_lambda_y >= 1e-3

    def test_residuals_match_numeric_recomputation(self):
        seq = BangSingularSequence(
            jumps=[HALF_PI - 0.3, 0.2, 0.1], arcs=[1.0, 2.0, 2.0])
        report = pmp_residual(seq)
        # Group the report's sample times by arc, relative to arc starts:
        # pmp_residual samples each positive arc at 256 points.
        per_arc = 256
        assert report.times.size == 3 * per_arc
        starts = np.concatenate(([0.0], np.cumsum(seq.arcs)[:-1]))
        times_by_arc = []
        cursor = 0
        for i in range(seq.n):
            if seq.arcs[i] > 0.0:
                chunk = report.times[cursor:cursor + per_arc] - starts[i]
                times_by_arc.append(np.clip(chunk, 0.0, seq.arcs[i]))
                cursor += per_arc
            else:
                times_by_arc.append(np.array([]))
        phis, mu = _numeric_phi(seq, times_by_arc)
        assert mu == pytest.approx(report.mu, abs=1e-9)
        assert np.max(np.abs(phis - report.phi)) <= 1e-8

    def test_small_perturbations_scale_down_but_stay_visible(self):
        big = pmp_residual(BangSingularSequence(
            jumps=[HALF_PI - 0.2, 0.2], arcs=[2.5, 2.5]))
        small = pmp_residual(BangSingularSequence(
            jumps=[HALF_PI - 0.02, 0.02], arcs=[2.5, 2.5]))
        assert small.max_phi < big.max_phi
        assert small.max_phi >= 1e-4


class TestDegenerateSchedules:
    def test_no_singular_segment(self):
        report = pmp_residual(BangSingularSequence(jumps=[HALF_PI],
                                                   arcs=[0.0]))
        assert report.flags == ("no singular segment",)
        assert report.max_phi == 0.0
        assert report.times.size == 0

    def test_no_transfer(self):
        report = pmp_residual(BangSingularSequence(jumps=[0.0], arcs=[5.0]))
        assert report.flags == ("no transfer",)
