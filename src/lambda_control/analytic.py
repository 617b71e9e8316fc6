"""Closed-form pulse-sequence propagation and optimality verification.

In the reduced (x, y) picture a control schedule is a finite alternation of
bang pulses (instantaneous angle jumps, which rotate (x, y) clockwise by
twice the jump) and singular arcs (u = 0, on which the point relaxes toward
the dark equilibrium (-1, 0) at unit rate in normalized time).  Starting
from (-1, 0), every such sequence whose jumps sum to pi/2 ends at a final
population difference no smaller than the single-jump schedule

    X1(T') = 2 exp(-T') - 1,

i.e. putting the whole pi/2 jump at t' = 0 and relaxing for the entire
window - plain optical pumping - is optimal.  This module evaluates
sequences by folding the two elementary maps, checks candidates against the
X1 bound, and computes switching-function residuals of the maximum
principle along bang-singular schedules.  The explicit
exponential-trigonometric sums for the final state live with the tests
(tests/oracles.py), which check the fold against them.

propagate_batch and verify_bounds fold and check a batch, laid out as
random_batch's lengths and draws: (N,) lengths and (N, L) jumps and arcs,
zero past each row's length (verify_bounds raises ValueError on any other
layout).
propagate_sequence and verify_bound are their one-row calls on a
BangSingularSequence, returning Python scalars.  A zero jump (cos 0 = 1,
sin 0 = 0) followed by a zero arc (e^0 = 1, expm1(-0) = -0) maps every
finite (x, y) to itself bit for bit (only a coordinate equal to -0.0 may
come back as +0.0), so padding does not change the result.  The factors
cos 2theta, sin 2theta, e^-t and expm1(-t) are taken from `math` one step
at a time (padding takes math's values for +0.0 without a call) and only
the multiply-add recursion runs on numpy columns: numpy's vectorised cos,
sin and exp may differ from the C library in the last bit, and each row
must equal the scalar maps apply_bang / apply_singular bit for bit, so that
`verify` output stays byte-identical.

random_batch equals one random_sequence per length it is given, bit for
bit and in the generator's final state: the exponentials of all its rows
are one standard_exponential call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HALF_PI, SystemParams, _checked_count, _checked_duration
from .reduced import normalize_time

__all__ = [
    "BangSingularSequence",
    "BoundCheck",
    "PmpReport",
    "apply_bang",
    "apply_singular",
    "propagate_sequence",
    "propagate_batch",
    "optical_pumping_value",
    "pumping_efficiency",
    "verify_bound",
    "verify_bounds",
    "random_batch",
    "random_sequence",
    "pmp_residual",
]

# Below this margin a sequence is considered to attain the bound exactly.
EQUALITY_TOL = 1e-9
# Slack allowed when testing the bound itself (closed forms are exact;
# sequence parameters may carry float noise).
BOUND_TOL = 1e-12
# Slack on a sequence's total angle and on arcs merged as zero.
_SEQUENCE_TOL = 1e-9
# Slack between a schedule's arc total and the T' it is said to cover
# (pmp_residual, and `reduce --tprime` with --jumps/--arcs).
TPRIME_TOL = 1e-9

_ARC_TOL = 1e-12
_PMP_SAMPLES_PER_ARC = 256

# random_batch draws sequences of 1..RANDOM_MAX_N entries.
RANDOM_MAX_N = 10

# _step_factors of a +0.0 jump and a +0.0 arc, the padding of a batch.
_ZERO_STEP = (1.0, 0.0, 1.0, -0.0)


@dataclass(frozen=True, eq=False)
class BangSingularSequence:
    """Alternating jump/arc schedule: jump[i] is applied, then arc[i] elapses.

    A boundary-matching sequence has jumps summing to pi/2; arcs are
    nonnegative and sum to the normalized duration.  The single-entry
    sequence (pi/2, T') is optical pumping.
    """

    jumps: np.ndarray
    arcs: np.ndarray

    def __post_init__(self):
        jumps = np.atleast_1d(np.asarray(self.jumps, dtype=float))
        arcs = np.atleast_1d(np.asarray(self.arcs, dtype=float))
        if jumps.ndim != 1 or jumps.size < 1:
            raise ValueError("a sequence needs at least one jump/arc pair")
        if jumps.shape != arcs.shape:
            raise ValueError(
                f"jumps and arcs must have equal length, got "
                f"{jumps.size} and {arcs.size}"
            )
        if not (np.all(np.isfinite(jumps)) and np.all(np.isfinite(arcs))):
            raise ValueError("jumps and arcs must be finite")
        if np.any(arcs < 0.0):
            raise ValueError("arc durations must be nonnegative")
        jumps.setflags(write=False)
        arcs.setflags(write=False)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def optical_pumping(cls, tprime: float) -> "BangSingularSequence":
        return cls(jumps=[HALF_PI],
                   arcs=[_checked_duration(tprime, "tprime", allow_zero=True)])

    @property
    def n(self) -> int:
        return self.jumps.size

    @property
    def total_angle(self) -> float:
        return float(self.jumps.sum())

    @property
    def total_time(self) -> float:
        return float(self.arcs.sum())

    def matches_boundary(self) -> bool:
        return abs(self.total_angle - HALF_PI) <= _SEQUENCE_TOL


def apply_bang(x: float, y: float, theta_jump: float):
    """Instantaneous jump by theta: clockwise rotation of (x, y) by 2*theta."""
    c = math.cos(2.0 * theta_jump)
    s = math.sin(2.0 * theta_jump)
    return c * x + s * y, -s * x + c * y


def apply_singular(x: float, y: float, duration: float):
    """Relaxation along u = 0 for the given normalized duration.

    (x, y) -> (e^-t x + e^-t - 1, e^-t y); the fixed point is (-1, 0).
    """
    if duration < 0.0:
        raise ValueError(f"arc duration must be nonnegative, got {duration!r}")
    e = math.exp(-duration)
    # expm1 keeps the drift term exact at zero duration and accurate for
    # short arcs.
    return e * x + math.expm1(-duration), e * y


def _step_factors(jumps: np.ndarray, arcs: np.ndarray):
    """cos 2theta, sin 2theta, e^-t and expm1(-t) of every element, from math.

    Four lists of floats, each in the element order of the arrays.
    """
    two_theta = (2.0 * jumps).ravel().tolist()
    minus_t = (-arcs).ravel().tolist()
    return (list(map(math.cos, two_theta)), list(map(math.sin, two_theta)),
            list(map(math.exp, minus_t)), list(map(math.expm1, minus_t)))


def _fold(steps, x, y):
    """Jump then arc for each step (cos 2theta, sin 2theta, e^-t, expm1(-t)).

    x, y and the factors are (N,) arrays, one entry per row; each step makes
    the products and sums of apply_bang followed by apply_singular.
    """
    for c, s, e, m in steps:
        x, y = c * x + s * y, -s * x + c * y
        x, y = e * x + m, e * y
    return x, y


def propagate_sequence(seq: BangSingularSequence):
    """Fold jump-then-arc over the sequence from (-1, 0); the final (x, y).

    The one-row call of propagate_batch.
    """
    x, y = propagate_batch(seq.jumps[np.newaxis], seq.arcs[np.newaxis])
    return float(x[0]), float(y[0])


def propagate_batch(jumps, arcs):
    """Fold jump-then-arc over every row of zero-padded (N, L) arrays.

    Row i is one sequence, started at (-1, 0); shorter rows end in zero
    jumps and zero arcs.  Returns the final (x, y) as two (N,) arrays, equal
    bit for bit to folding apply_bang and apply_singular over each row.
    """
    jumps = np.asarray(jumps, dtype=float)
    arcs = np.asarray(arcs, dtype=float)
    if jumps.ndim != 2 or jumps.shape != arcs.shape:
        raise ValueError(
            f"jumps and arcs must be (N, L) arrays of one shape, got "
            f"{jumps.shape} and {arcs.shape}"
        )
    if not (np.isfinite(jumps).all() and np.isfinite(arcs).all()):
        raise ValueError("jumps and arcs must be finite")
    if (arcs < 0.0).any():
        raise ValueError("arc durations must be nonnegative")
    n_rows, n_steps = jumps.shape
    # Step-major, so that step k reads one contiguous row of each factor.
    jumps, arcs = jumps.T.ravel(), arcs.T.ravel()
    # Steps whose jump and arc both have the bits of +0.0 take _ZERO_STEP;
    # a -0.0 must reach math (sin 2theta = -0.0, expm1(-t) = +0.0).
    live = (jumps.view(np.uint64) | arcs.view(np.uint64)) != 0
    factors = np.repeat(np.array(_ZERO_STEP)[:, np.newaxis], live.size, 1)
    factors[:, live] = _step_factors(jumps[live], arcs[live])
    return _fold(zip(*factors.reshape(4, n_steps, n_rows)),
                 np.full(n_rows, -1.0), np.zeros(n_rows))


def optical_pumping_value(tprime: float) -> float:
    """Final population difference of the single-jump schedule: 2 e^-T' - 1."""
    tprime = _checked_duration(tprime, "tprime", allow_zero=True)
    return 2.0 * math.exp(-tprime) - 1.0


def pumping_efficiency(T: float, params: SystemParams) -> float:
    """Target population after pumping for a duration T.

    rho33(T) = 1 - exp(-T / (2 Gamma)) in model units; symmetric decay only.
    """
    T = _checked_duration(T, "T", allow_zero=True)
    if not params.is_symmetric:
        raise ValueError("the pumping efficiency formula assumes symmetric decay")
    return 1.0 - math.exp(-normalize_time(T, params))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of testing sequences against the pumping optimum.

    The fields are (N,) arrays, one entry per row, from verify_bounds, and
    Python scalars from its one-row call verify_bound.
    """

    xn: float
    x1: float
    margin: float
    satisfied: bool
    at_equality: bool


def verify_bound(seq: BangSingularSequence) -> BoundCheck:
    """Check x_n >= X1(T') for a boundary-matching sequence.

    The one-row call of verify_bounds.
    """
    check = verify_bounds(np.array([seq.n]), seq.jumps[np.newaxis],
                          seq.arcs[np.newaxis])
    return BoundCheck(**{name: value.item()
                         for name, value in vars(check).items()})


def _row_sums(lengths: np.ndarray, *padded: np.ndarray):
    """Each row's own np.add.reduce over its first lengths[i] entries.

    One (N,) array per padded (N, L) array.  A sum over the whole padded row
    would group the terms differently (numpy sums pairwise from 8 terms) and
    could change the last bit, so the rows of each length are summed
    together over that length.  Arcs that sum past the largest float give
    inf without a warning: x1 = -1 is the right limit there.
    """
    sums = [np.empty(lengths.size) for _ in padded]
    # bincount rather than np.unique, which imports numpy.ma.
    with np.errstate(over="ignore"):
        for n in np.flatnonzero(np.bincount(lengths)):
            rows = lengths == n
            for total, values in zip(sums, padded):
                total[rows] = np.add.reduce(values[rows, :n], axis=1)
    return sums


def verify_bounds(lengths, jumps, arcs) -> BoundCheck:
    """Check x_n >= X1(T') for a batch of boundary-matching sequences.

    Row i of the (N, L) jumps and arcs holds the sequence (jumps[i, :n],
    arcs[i, :n]), n = lengths[i], then zeros: the layout of random_batch.
    A malformed layout raises ValueError (no rows, shapes that differ, a
    length outside 1..L, a nonzero entry past a row's end), and so does the
    first row that is not a BangSingularSequence whose jumps sum to pi/2,
    with its error.  The result's fields are (N,) arrays; xn and x1 of row
    i equal, bit for bit, the apply_bang / apply_singular fold of the row
    and optical_pumping_value of the sum of its arcs.
    """
    lengths = np.asarray(lengths)
    jumps, arcs = np.asarray(jumps, float), np.asarray(arcs, float)
    if (jumps.ndim != 2 or jumps.size == 0 or arcs.shape != jumps.shape
            or lengths.shape != jumps.shape[:1]
            or lengths.dtype.kind not in "iu"
            or lengths.min() < 1 or lengths.max() > jumps.shape[1]):
        raise ValueError(
            f"a batch needs (N, L) jumps and arcs and (N,) integer lengths "
            f"in 1..L, got {jumps.shape}, {arcs.shape} and {lengths.shape}")
    past_end = np.arange(jumps.shape[1]) >= lengths[:, np.newaxis]
    if jumps[past_end].any() or arcs[past_end].any():
        raise ValueError("jumps and arcs must be zero past each row's length")
    angles, totals = _row_sums(lengths, jumps, arcs)
    if not (np.isfinite(jumps).all() and np.isfinite(arcs).all()
            and (arcs >= 0.0).all()
            and (np.abs(angles - HALF_PI) <= _SEQUENCE_TOL).all()):
        for n, row_jumps, row_arcs in zip(lengths.tolist(), jumps, arcs):
            seq = BangSingularSequence(jumps=row_jumps[:n], arcs=row_arcs[:n])
            if not seq.matches_boundary():
                raise ValueError(f"sequence jumps must sum to pi/2, got "
                                 f"{seq.total_angle!r}")

    xn, _ = propagate_batch(jumps, arcs)
    # optical_pumping_value of each total (>= 0 here), without a call per
    # row: math.exp, not np.exp, whose last bit can differ.
    x1 = 2.0 * np.fromiter(map(math.exp, (-totals).tolist()), float,
                           totals.size) - 1.0
    margin = xn - x1
    return BoundCheck(xn=xn, x1=x1, margin=margin,
                      satisfied=margin >= -BOUND_TOL,
                      at_equality=np.abs(margin) <= EQUALITY_TOL)


def random_batch(rng: np.random.Generator, lengths, tprime: float):
    """One random_sequence per entry of lengths, as zero-padded arrays.

    Returns (jumps, arcs), each (N, RANDOM_MAX_N) for the N lengths.  Row i
    equals, bit for bit, random_sequence(rng, lengths[i], tprime) drawn in
    row order, followed by zeros, and the generator ends in the same state.
    numpy's Dirichlet(1, ..., 1) draws n standard exponentials (the same
    ziggurat draws as standard_exponential) and multiplies each by 1 / acc,
    acc their sum added in order, so one standard_exponential call draws
    every row.  A cumulative sum along the row adds in that order, and the
    zero padding adds +0.0, which leaves acc unchanged.

    ``lengths`` must be a 1-D integer array with entries in
    1..RANDOM_MAX_N and ``tprime`` finite and nonnegative; both are checked
    before the first draw.
    """
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu":
        raise ValueError(f"lengths must be a 1-D integer array, got dtype "
                         f"{lengths.dtype} and shape {lengths.shape}")
    if lengths.size and not (1 <= lengths.min()
                             and lengths.max() <= RANDOM_MAX_N):
        raise ValueError(f"lengths must lie in 1..{RANDOM_MAX_N}, got "
                         f"{lengths.min()} to {lengths.max()}")
    tprime = _checked_duration(tprime, "tprime", allow_zero=True)
    # Rows 2i and 2i + 1 are the jump and the arc draws of sequence i.
    drawn = np.arange(RANDOM_MAX_N) < np.repeat(lengths, 2)[:, np.newaxis]
    padded = np.zeros(drawn.shape)
    padded[drawn] = rng.standard_exponential(np.count_nonzero(drawn))
    padded *= (1.0 / np.cumsum(padded, axis=1)[:, -1])[:, np.newaxis]
    return padded[0::2] * HALF_PI, padded[1::2] * tprime


def random_sequence(rng: np.random.Generator, n: int,
                    tprime: float) -> BangSingularSequence:
    """Uniform simplex draw: n jumps summing to pi/2, n arcs summing to T'.

    Dirichlet(1, ..., 1) covers boundary-heavy cases (near-zero jumps and
    arcs), where the optimality bound is tight.  ``n`` must be an integer
    >= 1 and ``tprime`` finite and nonnegative; both are checked before
    the first draw.
    """
    n = _checked_count(n, "n", 1)
    tprime = _checked_duration(tprime, "tprime", allow_zero=True)
    alpha = np.ones(n)
    jumps = rng.dirichlet(alpha) * HALF_PI
    arcs = rng.dirichlet(alpha) * tprime
    return BangSingularSequence(jumps=jumps, arcs=arcs)


# ---------------------------------------------------------------------------
# Maximum-principle residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PmpReport:
    """Switching-function diagnostics along a bang-singular schedule.

    On an optimal schedule the switching function phi = 2 lx y - 2 ly x + mu
    and the costate ly vanish identically on every singular arc; max_phi and
    max_lambda_y are the largest magnitudes observed over the sampled arcs.
    mu is chosen so phi vanishes at the start of the first positive arc.
    flags names a degenerate schedule: "no transfer" when every jump is
    zero, "no singular segment" when no arc is positive.
    """

    max_phi: float
    max_lambda_y: float
    mu: float
    flags: tuple[str, ...]
    times: np.ndarray
    phi: np.ndarray
    lambda_x: np.ndarray
    lambda_y: np.ndarray


def pmp_residual(schedule: BangSingularSequence,
                 tprime: float | None = None) -> PmpReport:
    """Residuals of the stationarity conditions along a candidate schedule.

    The state runs forward from (-1, 0) and the costate backward from the
    transversality choice (lambda_x, lambda_y)(T') = (-1, 0) for minimizing
    x(T') with free y(T') (costates are defined up to positive scale).  On
    u = 0 arcs both flows are integrated exactly: the state relaxes toward
    (-1, 0) and the costate satisfies ldot = l, while a jump rotates state
    and costate alike.  mu is the constant costate of the cyclic angle.
    """
    # `not <=` also rejects a nan tprime.
    if (tprime is not None
            and not abs(schedule.total_time - tprime) <= TPRIME_TOL):
        raise ValueError(
            f"schedule covers T'={schedule.total_time!r}, "
            f"expected {float(tprime)!r}"
        )

    n = schedule.n
    flags = []
    if float(np.max(np.abs(schedule.jumps))) <= _ARC_TOL:
        # Without an initial jump the start is an equilibrium of u = 0.
        flags.append("no transfer")

    # Forward pass: state right after each jump.
    post_jump = np.empty((n, 2))
    x, y = -1.0, 0.0
    for i in range(n):
        x, y = apply_bang(x, y, schedule.jumps[i])
        post_jump[i] = (x, y)
        x, y = apply_singular(x, y, schedule.arcs[i])

    # Backward pass: costate at each arc end and right after each jump,
    # i.e. at each arc start.
    lam = -1.0, 0.0
    lam_at_arc_end = np.empty((n, 2))
    lam_at_arc_start = np.empty((n, 2))
    for i in range(n - 1, -1, -1):
        lam_at_arc_end[i] = lam
        lam_at_arc_start[i] = lam_at_arc_end[i] * math.exp(-schedule.arcs[i])
        # The transpose of the jump's rotation: the rotation by -theta.
        lam = apply_bang(*lam_at_arc_start[i], -schedule.jumps[i])

    arc_starts = np.concatenate(([0.0], np.cumsum(schedule.arcs)[:-1]))
    positive = [i for i in range(n) if schedule.arcs[i] > _ARC_TOL]
    if not positive:
        flags.append("no singular segment")
        empty = np.empty(0)
        return PmpReport(max_phi=0.0, max_lambda_y=0.0, mu=0.0,
                         flags=tuple(flags), times=empty, phi=empty,
                         lambda_x=empty, lambda_y=empty)

    def arc_samples(i: int):
        # Near the largest float linspace overflows, then ends on the arc.
        with np.errstate(over="ignore"):
            tau = np.linspace(0.0, schedule.arcs[i], _PMP_SAMPLES_PER_ARC)
        decay = np.exp(-tau)
        # The costate grows along the arc; taken back from its arc-end
        # value it stays finite where exp(tau) would overflow.
        grow = np.exp(tau - schedule.arcs[i])
        xs = decay * (post_jump[i, 0] + 1.0) - 1.0
        ys = decay * post_jump[i, 1]
        lxs = grow * lam_at_arc_end[i, 0]
        lys = grow * lam_at_arc_end[i, 1]
        return arc_starts[i] + tau, xs, ys, lxs, lys

    # Pin mu by phi = 0 at the start of the first positive singular arc.
    i0 = positive[0]
    x0, y0 = post_jump[i0]
    lx0, ly0 = lam_at_arc_start[i0]
    mu = -2.0 * (lx0 * y0 - ly0 * x0)

    times, phis, lxs_all, lys_all = [], [], [], []
    for i in positive:
        t, xs, ys, lxs, lys = arc_samples(i)
        times.append(t)
        phis.append(2.0 * lxs * ys - 2.0 * lys * xs + mu)
        lxs_all.append(lxs)
        lys_all.append(lys)

    times = np.concatenate(times)
    phis = np.concatenate(phis)
    lxs_all = np.concatenate(lxs_all)
    lys_all = np.concatenate(lys_all)
    return PmpReport(
        max_phi=float(np.max(np.abs(phis))),
        max_lambda_y=float(np.max(np.abs(lys_all))),
        mu=float(mu),
        flags=tuple(flags),
        times=times,
        phi=phis,
        lambda_x=lxs_all,
        lambda_y=lys_all,
    )
