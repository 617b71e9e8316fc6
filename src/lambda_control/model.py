"""Density-matrix dynamics of a driven, dissipative three-level lambda system.

The two lower levels |1> and |3> couple to a lossy intermediate level |2>
through a pump field (|1>-|2>) and a Stokes field (|2>-|3>) whose amplitudes
share a fixed power budget, omega_p**2 + omega_s**2 = omega0**2.  Controls
are therefore parameterized by a single mixing angle theta,

    omega_p = omega0 * sin(theta),   omega_s = omega0 * cos(theta),

so the amplitude constraint holds identically.  The intermediate level decays
into |1> and |3> with rates gamma1 and gamma3 (gamma1 = gamma3 = Gamma/2 in
the symmetric case).  Both detunings are zero.

The density matrix is stored as 9 real components, in this order:

    x1 = rho11, x2 = rho22, x3 = rho33,
    x4 = Im rho12, x5 = Im rho23, x6 = Re rho13,
    y1 = Re rho12, y2 = Re rho23, y3 = Im rho13.

Starting from rho = |1><1| the y block stays identically zero; it is kept in
the state vector as a free sanity channel rather than dropped.

All public quantities are dimensionless ratios: rates are given relative to
the Rabi bound omega0 (default 1.0) and durations as omega0 * T.

Note on asymmetric decay: only the population feeding terms split into
gamma1/gamma3; every coherence keeps the total-rate damping Gamma/2 =
(gamma1 + gamma3)/2.  (The alternative of splitting the coherence rates as
well is a different dissipator and is not used here.)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._decimal import _g17_cells

__all__ = [
    "STATE_DIM",
    "SystemParams",
    "FullState",
    "ControlSignal",
    "Trajectory",
    "IntegrationError",
    "system_matrix",
    "FRAME_GENERATOR",
    "rk4_step_matrix",
    "interval_steps",
    "default_max_step",
    "integrate_full",
    "optical_pumping_control",
]

HALF_PI = math.pi / 2.0

STATE_DIM = 9

# The x block: indices 0..5, which the y block (6..8) never couples to.
_XDIM = 6

# Slack used when validating user-provided angles against [0, pi/2].
_EDGE_TOL = 1e-12

# Intervals whose step matrices integrate_full builds in one batched call;
# for _sample_transitions (callable controls, the reduced layer), steps.
_BATCH = 64

# Rows that Trajectory.write_csv formats per write: its numpy digit
# arrays, templates and ints are a few hundred bytes per row, so memory
# stays bounded at any max_samples.  Each block pays ~70 numpy calls;
# 512 rows took ~10% less writer time than 256 for the same peak RSS
# (+0.1 MB), 1024 no less time for +0.8 MB.
_CSV_BLOCK = 512

# The exact path's bound on |u^T E - u^T|, u = (1, 1, 1, 0, ..., 0), for a
# propagator E: the trace moves by at most this much per advance.  Advances
# of t <= 100 at Gamma <= 60 stay below 1e-12; squarings of a huge advance
# (t ~ 1e10 and up) compound their rounding past it.
_TRACE_TOL = 1e-9
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

# _expm: coefficients b_0..b_13 of the [13/13] Pade approximant of exp
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), over b_0 so that a
# zero matrix gives exactly the identity; the scale theta_13 below which it
# is accurate to double precision, and |c_13|^-1 of its backward-error
# series, both from Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970
# (2009).
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0))
_THETA13 = 4.25
_ELL13 = 113250775606021113483283660800000000.0


class IntegrationError(RuntimeError):
    """Integration failed: the state became non-finite, or an exact
    propagator broke trace conservation.

    Attributes
    ----------
    last_time : float
        Last sample time at which the state was still finite, or the start
        of the propagator that breaks the trace.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = float(last_time)

    def __reduce__(self):
        # The default rebuilds from self.args, which lacks last_time.
        return type(self), (self.args[0], self.last_time), self.__dict__


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the lambda system.

    Parameters
    ----------
    gamma_total : float
        Total decay rate Gamma = gamma1 + gamma3 of the intermediate level,
        in units of omega0.
    gamma_diff : float
        Decay asymmetry gamma = gamma1 - gamma3 (zero for the symmetric
        system).  Must satisfy ``abs(gamma_diff) <= gamma_total`` so both
        branch rates are nonnegative.
    omega0 : float
        Rabi amplitude bound.  Defaults to 1.0; all times are then read as
        omega0 * T.
    """

    gamma_total: float
    gamma_diff: float = 0.0
    omega0: float = 1.0

    def __post_init__(self):
        for name in ("gamma_total", "gamma_diff", "omega0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"{name} must be finite, got {float(value)!r}")
        if self.omega0 <= 0.0:
            raise ValueError(
                f"omega0 must be positive, got {float(self.omega0)!r}")
        if self.gamma_total <= 0.0:
            raise ValueError(
                f"gamma_total must be positive, got {float(self.gamma_total)!r}"
            )
        if abs(self.gamma_diff) > self.gamma_total:
            raise ValueError(
                "need |gamma_diff| <= gamma_total so both decay branches are "
                f"nonnegative, got gamma_diff={float(self.gamma_diff)!r}, "
                f"gamma_total={float(self.gamma_total)!r}"
            )

    @property
    def gamma1(self) -> float:
        """Decay rate of |2> into |1>: (Gamma + gamma) / 2."""
        return 0.5 * (self.gamma_total + self.gamma_diff)

    @property
    def gamma3(self) -> float:
        """Decay rate of |2> into |3>: (Gamma - gamma) / 2."""
        return 0.5 * (self.gamma_total - self.gamma_diff)

    @property
    def is_symmetric(self) -> bool:
        return self.gamma_diff == 0.0


@dataclass(frozen=True)
class FullState:
    """Real 9-component encoding of the 3x3 density matrix."""

    x1: float = 0.0  # rho11
    x2: float = 0.0  # rho22
    x3: float = 0.0  # rho33
    x4: float = 0.0  # Im rho12
    x5: float = 0.0  # Im rho23
    x6: float = 0.0  # Re rho13
    y1: float = 0.0  # Re rho12
    y2: float = 0.0  # Re rho23
    y3: float = 0.0  # Im rho13

    @classmethod
    def ground(cls) -> "FullState":
        """All population in |1> (the standard initial condition)."""
        return cls(x1=1.0)

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.x1, self.x2, self.x3, self.x4, self.x5, self.x6,
             self.y1, self.y2, self.y3]
        )


def _initial_array(state, name: str, size: int = STATE_DIM) -> np.ndarray:
    """An integrator's initial state, a FullState or a sequence, as a new
    float array; raises ValueError, naming the argument, unless it has
    ``size`` components and all of them are finite."""
    if isinstance(state, FullState):
        arr = state.as_array()
    else:
        arr = np.array(state, dtype=float).reshape(-1)
    if arr.size != size:
        raise ValueError(f"{name} must have {size} components, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr.tolist()!r}")
    return arr


def _checked_theta(theta: np.ndarray, n_intervals: int) -> np.ndarray:
    """Angles of a ``ControlSignal``: checked, clipped and read-only."""
    if theta.shape != (n_intervals,):
        raise ValueError(
            f"theta must have one value per interval "
            f"({n_intervals}), got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta values must be finite")
    if theta.min() < -_EDGE_TOL or theta.max() > HALF_PI + _EDGE_TOL:
        raise ValueError("theta values must lie in [0, pi/2]")
    theta = np.clip(theta, 0.0, HALF_PI)
    theta.setflags(write=False)
    return theta


def _checked_duration(value, name: str, allow_zero: bool = False) -> float:
    """``value`` as a float; raises ValueError, naming the argument ``name``,
    unless it is finite and positive (nonnegative with ``allow_zero``, which
    keeps a -0.0 as it is)."""
    if not (math.isfinite(value)
            and (value > 0.0 or (allow_zero and value == 0.0))):
        rule = "nonnegative" if allow_zero else "positive"
        raise ValueError(
            f"{name} must be finite and {rule}, got {float(value)!r}")
    return float(value)


def _checked_count(value, name: str, least: int) -> int:
    """``value`` as an int; raises ValueError, naming the argument ``name``,
    unless it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, np.generic):  # np.int64(3) -> 3, np.bool_ -> bool
        value = value.item()
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _uniform_grid(duration, n_intervals: int,
                  name: str = "duration") -> np.ndarray:
    """``n_intervals + 1`` evenly spaced times on [0, duration].

    The duration, named ``name``, and ``n_intervals`` are checked first:
    ``np.linspace`` would warn on a non-finite duration.
    """
    duration = _checked_duration(duration, name)
    n = _checked_count(n_intervals, "n_intervals", 1)
    return np.linspace(0.0, duration, n + 1)


class ControlSignal:
    """Piecewise-constant mixing-angle schedule theta(t) on [0, grid[-1]].

    ``theta[k]`` holds on the half-open interval [grid[k], grid[k+1]); the
    final time belongs to the last interval.  The grid starts at 0 and
    increases strictly; angles must lie in [0, pi/2].
    """

    __slots__ = ("grid", "theta", "durations")

    def __init__(self, grid, theta):
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must contain at least two time stamps")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid times must be finite")
        if grid[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {float(grid[0])!r}")
        durations = np.diff(grid)
        if np.any(durations <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        theta = _checked_theta(theta, grid.size - 1)
        grid.setflags(write=False)
        durations.setflags(write=False)
        self.grid = grid
        self.theta = theta
        # Interval lengths, read-only and shared by with_theta, so an
        # ascent over one grid takes them once.
        self.durations = durations

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, theta: float, duration: float, n_intervals: int = 1):
        grid = _uniform_grid(duration, n_intervals)
        return cls(grid, np.full(grid.size - 1, float(theta)))

    @classmethod
    def linear_ramp(cls, theta_start: float, theta_end: float,
                    duration: float, n_intervals: int):
        """Midpoint-sampled linear ramp from theta_start to theta_end."""
        grid = _uniform_grid(duration, n_intervals)
        n = grid.size - 1
        mid = (np.arange(n) + 0.5) / n
        return cls(grid, theta_start + (theta_end - theta_start) * mid)

    @classmethod
    def piecewise(cls, start_times, thetas, duration: float):
        """Intervals from the given start times (the first 0) to duration."""
        starts = np.asarray(start_times, dtype=float).reshape(-1)
        duration = _checked_duration(duration, "duration")
        if starts.size and starts[-1] >= duration:
            raise ValueError("last start time must precede the duration")
        return cls(np.append(starts, duration), thetas)

    # -- accessors ---------------------------------------------------------

    @property
    def duration(self) -> float:
        return float(self.grid[-1])

    @property
    def n_intervals(self) -> int:
        return self.theta.size

    def with_theta(self, theta) -> "ControlSignal":
        """The same grid with new angles, checked as the constructor does.

        Only the angles are checked (shape, finite values, [0, pi/2] up to
        ``_EDGE_TOL``), then clipped and made read-only: the grid was
        validated when this signal was built, is read-only, and is shared,
        as are its durations.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        new = object.__new__(ControlSignal)
        new.grid = self.grid
        new.durations = self.durations
        new.theta = _checked_theta(theta, self.grid.size - 1)
        return new

    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.theta))))

    def __eq__(self, other):
        return (
            isinstance(other, ControlSignal)
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.theta, other.theta)
        )

    def __repr__(self):
        return (f"ControlSignal(n_intervals={self.n_intervals}, "
                f"duration={self.duration!r})")


def optical_pumping_control(duration: float) -> ControlSignal:
    """Pump at full amplitude for the whole window: one interval at theta = pi/2."""
    return ControlSignal.constant(HALF_PI, duration)


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------

def system_matrix(theta, params: SystemParams) -> np.ndarray:
    """Generator A(theta) of the 9-component state, d(state)/dt = A @ state,
    batched over theta.

    An angle array of shape S gives A of shape S + (9, 9), so a scalar angle
    gives one (9, 9) matrix.  Block diagonal: the x block (indices 0..5) and
    the y block (6..8) never couple, which is why the y block stays exactly
    zero from the standard initial condition.  In every column the three
    population rows sum to zero, for every angle and decay asymmetry, so the
    dynamics conserve the trace exactly.
    """
    theta = np.asarray(theta, dtype=float)
    op = params.omega0 * np.sin(theta)
    os_ = params.omega0 * np.cos(theta)
    g = params.gamma_total
    A = np.zeros(theta.shape + (STATE_DIM, STATE_DIM))
    A[..., 0, 1] = params.gamma1
    A[..., 0, 3] = -op
    A[..., 1, 1] = -g
    A[..., 1, 3] = op
    A[..., 1, 4] = -os_
    A[..., 2, 1] = params.gamma3
    A[..., 2, 4] = os_
    A[..., 3, 0] = 0.5 * op
    A[..., 3, 1] = -0.5 * op
    A[..., 3, 3] = -0.5 * g
    A[..., 3, 5] = 0.5 * os_
    A[..., 4, 1] = 0.5 * os_
    A[..., 4, 2] = -0.5 * os_
    A[..., 4, 4] = -0.5 * g
    A[..., 4, 5] = -0.5 * op
    A[..., 5, 3] = -0.5 * os_
    A[..., 5, 4] = 0.5 * op
    A[..., 6, 6] = -0.5 * g
    A[..., 6, 8] = -0.5 * os_
    A[..., 7, 7] = -0.5 * g
    A[..., 7, 8] = 0.5 * op
    A[..., 8, 6] = 0.5 * os_
    A[..., 8, 7] = -0.5 * op
    return A


# Generator K of the dark/bright frame rotation R(theta) = exp(theta K): the
# rotation U = [[c, 0, s], [0, 1, 0], [-s, 0, c]] of the {|1>, |3>} plane,
# acting as rho -> U rho U^T on the real encoding.  It couples
# (rho11, rho33, x6), (x4, x5) and (y1, y2).
FRAME_GENERATOR = np.zeros((STATE_DIM, STATE_DIM))
FRAME_GENERATOR[0, 5] = 2.0
FRAME_GENERATOR[2, 5] = -2.0
FRAME_GENERATOR[3, 4] = -1.0
FRAME_GENERATOR[4, 3] = 1.0
FRAME_GENERATOR[5, 0] = -1.0
FRAME_GENERATOR[5, 2] = 1.0
FRAME_GENERATOR[6, 7] = 1.0
FRAME_GENERATOR[7, 6] = -1.0
FRAME_GENERATOR.setflags(write=False)

# Entries of the x block of R(theta) odd in theta sit where these signs
# differ, so R(-theta) = D R(theta) D with D = diag(_FRAME_PARITY).
_FRAME_PARITY = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
_FRAME_SIGNS = np.outer(_FRAME_PARITY, _FRAME_PARITY)


def _angle_derivative(A: np.ndarray, params: SystemParams) -> np.ndarray:
    """dA/dtheta from A = ``system_matrix``, or from its x block: K is
    sliced to A's size.  The only place the angle derivative is written.

    Split A(theta) = A_sym(theta) + F, where F = (gamma/2) (E_01 - E_21)
    holds the feeding asymmetry gamma1 - gamma3 = gamma and does not depend
    on theta.  A_sym is the generator of the symmetric system with the same
    Gamma, which is the dark/bright rotation of its value at theta = 0
    (``_frame_rotation_x``), so dA_sym/dtheta = K A_sym - A_sym K.  Hence

        dA/dtheta = K A - A K - (K F - F K) = K A - A K + gamma E_51,

    because row 1 of K is zero (F K = 0) and K F = -gamma E_51 (row 5 of K
    is -1 at rho11 and +1 at rho33).  E_51 is the unit entry at (x6, rho22).
    """
    K = FRAME_GENERATOR[:A.shape[-1], :A.shape[-1]]
    dA = K @ A - A @ K
    dA[..., 5, 1] += params.gamma_diff
    return dA


def _frame_rotation_x(theta):
    """The x block (indices 0..5) of the frame rotation R(theta) =
    exp(theta K) and of its inverse R(-theta), K = ``FRAME_GENERATOR``.

    For symmetric decay the generator is the dark/bright rotation of its
    value at theta = 0:

        A(theta) = R(theta) A(0) R(-theta),   dA/dtheta = K A - A K.

    Asymmetric decay (gamma_diff != 0) breaks this, since the population
    feeding terms are not rotation invariant; ``_angle_derivative`` adds
    their correction.  Shapes follow ``system_matrix``: S + (6, 6) each.
    This is the only place the rotation's entries are written.
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    R = np.zeros(theta.shape + (_XDIM, _XDIM))
    R[..., 0, 0] = R[..., 2, 2] = c * c
    R[..., 0, 2] = R[..., 2, 0] = s * s
    R[..., 0, 5] = s2
    R[..., 2, 5] = -s2
    R[..., 5, 0] = -0.5 * s2
    R[..., 5, 2] = 0.5 * s2
    R[..., 5, 5] = c2
    R[..., 1, 1] = 1.0
    R[..., 3, 3] = R[..., 4, 4] = c
    R[..., 3, 4] = -s
    R[..., 4, 3] = s
    return R, R * _FRAME_SIGNS


# ---------------------------------------------------------------------------
# Fixed-step RK4 for the linear system
# ---------------------------------------------------------------------------

def interval_steps(durations, h_max: float):
    """RK4 step counts and step sizes for intervals of the given durations.

    Each interval of length d takes m = max(1, ceil(d / h_max)) equal steps
    of size h = d / m.  Returns integer ``steps`` and float ``h`` arrays of
    the shape of ``durations``.

    Raises ValueError if a count is not finite, or if the counts sum to
    2**62 or more: well inside int64 whatever the rounding of the sum.
    """
    durations = np.asarray(durations, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        counts = np.maximum(1.0, np.ceil(durations / h_max - 1e-12))
    # NaN and inf fail the comparison too.
    if not counts.sum() < 2.0**62:
        raise ValueError(
            f"step counts must be finite and sum below 2**62; durations up "
            f"to {float(np.max(durations))!r} at max_step {h_max!r} need "
            f"{float(np.sum(counts))!r} steps in all")
    steps = counts.astype(int)
    return steps, durations / steps


def rk4_step_matrix(A: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step for xdot = A x, as a transition matrix.

    Batched: A of shape S + (d, d) with h a scalar or of shape S gives M of
    shape S + (d, d).  For a linear autonomous system the RK4 update is
    exactly the degree-4 Taylor polynomial of the matrix exponential, so
    repeated application of this matrix reproduces stepwise RK4 in exact
    arithmetic.  The sum is taken as ((B + B^2/2) + B^3/6) + B^4/24 with
    B = h A, and then the identity is added.
    """
    B = np.asarray(h, dtype=float)[..., None, None] * A
    B2 = B @ B
    B3 = B2 @ B
    B4 = B3 @ B
    M = B + B2 / 2.0 + B3 / 6.0 + B4 / 24.0
    idx = np.arange(M.shape[-1])
    M[..., idx, idx] += 1.0
    return M


def _matrix_powers(M: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """M[k] ** counts[k] over the leading axis of a (n, d, d) stack.

    One ``np.linalg.matrix_power`` per distinct count, which multiplies
    each matrix as a call on it alone would; a count of 0 gives the
    identity.
    """
    if counts.min() == counts.max():
        return np.linalg.matrix_power(M, int(counts[0]))
    powered = np.empty_like(M)
    for m in np.unique(counts):
        sel = counts == m
        powered[sel] = np.linalg.matrix_power(M[sel], int(m))
    return powered


def _onenorm(X: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of each matrix of a stack."""
    return (np.ones(X.shape[-2]) @ np.abs(X)).max(axis=-1)


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X[k]) over the leading axis of an (n, d, d) stack.

    Scaling and squaring (Moler and Van Loan, SIAM Rev. 45, 3 (2003)) with
    the [13/13] Pade approximant and the choice of s of Al-Mohy and Higham
    (2009): s is the least with 2**-s max(d_8, min(d_6, d_10)) <= theta_13,
    d_k = ||X**k||_1**(1/k), raised while the approximant's backward-error
    bound on |X| exceeds the unit roundoff.  The powers are taken once, on
    X pre-scaled by its 1-norm, and moved to 2**-s X exactly by powers of
    two.  ``_matrix_powers`` then raises the approximant to 2**s, one
    batch per distinct s.  Only products, sums and an LU
    solve are taken, so entries that are zero in every power of X (the
    off-diagonal blocks of a block-diagonal X) stay exactly zero.  A
    non-finite X gives NaN.
    """
    norm = _onenorm(X)
    finite = np.isfinite(norm)
    if not finite.all():
        X = np.where(finite[:, None, None], X, 0.0)
        norm = np.where(finite, norm, 0.0)
    # Zero norms give log2(0) = -inf; np.maximum takes them to s = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0)
        A = X * np.exp2(-s0)[:, None, None]
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A2 @ A4
        d6, d8, d10 = (_onenorm(P) ** (1 / k) for k, P in
                       ((6, A6), (8, A4 @ A4), (10, A4 @ A6)))
        s = np.maximum(
            np.ceil(np.log2(np.maximum(d8, np.minimum(d6, d10)) / _THETA13))
            + s0, 0.0)
        # ell(2**-s X, 13) needs ||B**27||_1, B = 2**-s |X|: B**16 B**8 B**2 B.
        B = np.abs(A) * np.exp2(s0 - s)[:, None, None]
        B2 = B @ B
        B8 = (B2 @ B2) @ (B2 @ B2)
        v = np.ones((1, B.shape[-1])) @ (B8 @ B8) @ B8 @ B2 @ B
        norm_b = _onenorm(B)
        alpha = np.where(norm_b > 0.0,
                         v.max(axis=(-2, -1)) / (norm_b * _ELL13), 0.0)
        s += np.maximum(np.ceil(np.log2(alpha * 2.0**53) / 26), 0.0)
    f = np.exp2(s0 - s)[:, None, None]
    A = A * f
    f2 = f * f
    A2 = A2 * f2
    A4 = A4 * (f2 * f2)
    A6 = A6 * (f2 * f2 * f2)
    b = _PADE13
    idx = np.arange(X.shape[-1])
    W = (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
         + b[7] * A6 + b[5] * A4 + b[3] * A2)
    W[:, idx, idx] += b[1]
    U = A @ W
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2)
    V[:, idx, idx] += b[0]
    E = np.linalg.solve(V - U, V + U)
    # Python ints: 2**s outgrows int64 once a 1-norm passes ~2e19.
    E = _matrix_powers(E, np.array([2**m for m in s.astype(int).tolist()],
                                   dtype=object))
    E[~finite] = np.nan
    return E


def default_max_step(params: SystemParams) -> float:
    """Step bound: omega0*h <= 0.01 and Gamma*h <= 0.1."""
    return min(0.01 / params.omega0, 0.1 / params.gamma_total)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled state history: times (n,), states (n, 9), thetas (n,)."""

    times: np.ndarray
    states: np.ndarray
    thetas: np.ndarray

    # Names of the exported columns (``columns``, ``write_csv``).
    COLUMNS = ("t", "rho11", "rho22", "rho33", "x4", "x5", "x6", "theta",
               "omega_p", "omega_s")

    @property
    def rho11(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def rho22(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def rho33(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_rho33(self) -> float:
        return float(self.states[-1, 2])

    def trace_drift(self) -> float:
        """Largest deviation of rho11 + rho22 + rho33 from 1 over all samples."""
        return float(np.max(np.abs(self.states[:, :3].sum(axis=1) - 1.0)))

    def max_y(self) -> float:
        """Largest |y| component over all samples (zero from the standard start)."""
        return float(np.max(np.abs(self.states[:, 6:9])))

    def _control_runs(self, omega0: float):
        """Runs of bit-equal angles: their lengths, and per run (theta,
        omega0 * sin(theta), omega0 * cos(theta)) by ``math.sin``/``math.cos``.

        Angles are compared as bits, so -0.0 and +0.0 start different runs.
        """
        bits = np.ascontiguousarray(self.thetas, dtype=float).view(np.uint64)
        starts = np.empty(bits.size, dtype=bool)
        starts[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        controls = [(th, omega0 * math.sin(th), omega0 * math.cos(th))
                    for th in self.thetas[starts].tolist()]
        return np.diff(starts, append=bits.size), controls

    def columns(self, omega0: float = 1.0) -> np.ndarray:
        """Exported columns as an (n, 10) array, in ``COLUMNS`` order.

        omega_p and omega_s are omega0 * sin(theta) and omega0 * cos(theta),
        evaluated once per run of equal angles (``_control_runs``).
        """
        lengths, controls = self._control_runs(omega0)
        cols = np.empty((self.times.size, len(self.COLUMNS)))
        cols[:, 0] = self.times
        cols[:, 1:7] = self.states[:, :6]
        cols[:, 7:] = np.repeat(np.reshape(controls, (-1, 3)), lengths, axis=0)
        return cols

    def write_csv(self, path, omega0: float = 1.0, comment: str | None = None):
        """Plot-ready export; times are in units of 1/omega0.

        Every value is written as ``format(v, ".17g")``, in the values of
        ``columns``.  The three control columns are formatted once per run
        of equal angles (``_control_runs``) and fill every row of the run.
        The other seven are written in blocks of ``_CSV_BLOCK`` rows from
        digits that numpy rounds (``_g17_cells``): a double-double product
        with a table of powers of ten gives each value's 17 correctly
        rounded digits, which fill precomputed '%d' templates, one '%' per
        block.  Zeros are written as '0' or '-0'.  Values that are not
        finite or lie outside [1e-290, 1e290], and values within 1e-6 of a
        rounding tie at the 17th digit, are formatted by ``format`` one at
        a time.
        """
        lengths, controls = self._control_runs(omega0)
        # A formatted float holds no '%', so each row's control values
        # stay literal text in the block's template.
        ends = np.repeat(np.array(
            ["%.17g,%.17g,%.17g\n" % c for c in controls], dtype=object),
            lengths)
        lead = np.empty((self.times.size, 7))
        lead[:, 0] = self.times
        lead[:, 1:] = self.states[:, :6]
        with open(path, "w", encoding="utf-8") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(self.COLUMNS) + "\n")
            for lo in range(0, lead.shape[0], _CSV_BLOCK):
                hi = lo + _CSV_BLOCK
                cells, args = _g17_cells(lead[lo:hi])
                rows = np.concatenate((cells, ends[lo:hi, None]), axis=1)
                fh.write("".join(rows.ravel().tolist()) % tuple(args))


def _check_rows(states: np.ndarray, times: np.ndarray, lo: int, hi: int):
    """Raise IntegrationError at the first non-finite row of states[lo:hi]."""
    finite = np.isfinite(states[lo:hi])
    if not finite.all():
        bad = lo + int(np.argmin(finite.all(axis=1)))
        raise IntegrationError(
            f"non-finite state encountered at t={times[bad]:.6g}",
            last_time=times[bad - 1])


def _step_matrices(thetas: np.ndarray, h: np.ndarray, rem: np.ndarray,
                   params: SystemParams, stride: int, exact: bool):
    """Per batch of _BATCH intervals: its slice of the intervals, and the
    (b, 9, 9) stacks of M**stride and M**rem of each interval's step
    matrix M.

    M is the RK4 step matrix.  With ``exact`` the two are expm(stride h A)
    and expm(rem h A), the exact propagators over those steps, from one
    batched ``_expm`` each; powers of expm(h A) would compound its
    rounding over the steps.  Batches keep memory bounded for schedules
    with many intervals.  Within a batch the RK4 remainder powers take one
    ``matrix_power`` per distinct remainder (``_matrix_powers``); entries
    with rem = 0 are the identity.
    """
    for lo in range(0, thetas.size, _BATCH):
        batch = slice(lo, lo + _BATCH)
        A = system_matrix(thetas[batch], params)
        if exact:
            yield (batch, _expm((stride * h[batch])[:, None, None] * A),
                   _expm((rem[batch] * h[batch])[:, None, None] * A))
            continue
        M = rk4_step_matrix(A, h[batch])
        yield (batch, np.linalg.matrix_power(M, stride),
               _matrix_powers(M, rem[batch]))


def _check_trace(starts: np.ndarray, *propagators: np.ndarray):
    """Raise IntegrationError at the first interval of a batch whose
    propagators (one (b, 9, 9) stack per argument) move the trace:
    |u^T E - u^T| > _TRACE_TOL, u = (1, 1, 1, 0, ..., 0).  A non-finite E
    passes; the finiteness check reports it."""
    drift = np.max([np.abs(E[:, :3].sum(axis=1) - _TRACE_ROW).max(axis=1)
                    for E in propagators], axis=0)
    bad = drift > _TRACE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise IntegrationError(
            f"propagator from t={starts[k]:.6g} breaks trace conservation "
            f"by {drift[k]:.3g}", last_time=starts[k])


def _integrate_piecewise(control: ControlSignal, params: SystemParams,
                         x0: np.ndarray, h_max: float, max_samples: int,
                         exact: bool) -> Trajectory:
    """Sample a piecewise schedule on the steps of ``interval_steps``;
    ``exact`` swaps RK4 for the exact propagator, not the times or angles.

    Each row is written in place, as M @ (previous row).  Finiteness is
    checked once per batch of _BATCH intervals; ``_check_rows`` raises at
    the first non-finite row, as a check after every row would.
    """
    starts, ends, thetas = control.grid[:-1], control.grid[1:], control.theta
    steps, h = interval_steps(control.durations, h_max)
    total = int(steps.sum())
    stride = math.ceil(total / (max_samples - 1))

    # Interval k advances by `stride` steps n_chunks[k] times, then by the
    # rem[k] left over; each advance is one sample row.
    n_chunks, rem = np.divmod(steps, stride)
    rows = n_chunks + (rem > 0)
    last_rows = np.cumsum(rows)
    n = 1 + int(last_rows[-1])

    # A row's time is its interval's start plus the steps taken so far,
    # except that each interval's last row is exactly its end.
    times = np.empty(n)
    times[0] = 0.0
    done = stride * (np.arange(1, n) - np.repeat(last_rows - rows, rows))
    times[1:] = np.repeat(starts, rows) + done * np.repeat(h, rows)
    times[last_rows] = ends
    states = np.empty((n, STATE_DIM))
    states[0] = x0

    # Divergence is detected via the finite check; silence the transient
    # overflow warnings it rides in on.
    with np.errstate(over="ignore", invalid="ignore"):
        row = 1
        for batch, M_stride, M_rem in _step_matrices(thetas, h, rem, params,
                                                     stride, exact):
            if exact:
                _check_trace(starts[batch], M_stride, M_rem)
            first = row
            # np.dot's matrix-vector product gives the bits of `@`, with
            # less call overhead.
            for k_chunks, k_rem, Mk_stride, Mk_rem in zip(
                    n_chunks[batch].tolist(), rem[batch].tolist(), M_stride,
                    M_rem):
                for i in range(row, row + k_chunks):
                    np.dot(Mk_stride, states[i - 1], out=states[i])
                row += k_chunks
                if k_rem:
                    np.dot(Mk_rem, states[row - 1], out=states[row])
                    row += 1
            _check_rows(states, times, first, row)

    return Trajectory(times, states, np.concatenate((thetas[:1],
                                                     np.repeat(thetas, rows))))


def _rk4_transitions(A0: np.ndarray, Am: np.ndarray, A1: np.ndarray,
                     k: float) -> np.ndarray:
    """RK4 transition matrices of xdot = A(t) x over steps of size k.

    A0, Am and A1 hold the generator at each step's start, middle and end;
    the matrix is I + (k/6)(K1 + 2 K2 + 2 K3 + K4) with K1 = A0,
    K2 = Am (I + k/2 K1), K3 = Am (I + k/2 K2) and K4 = A1 (I + k K3).
    """
    K2 = Am @ A0
    K2 *= 0.5 * k
    K2 += Am
    K3 = Am @ K2
    K3 *= 0.5 * k
    K3 += Am
    K4 = A1 @ K3
    K4 *= k
    K4 += A1
    M = K2
    M += K3
    M *= 2.0
    M += A0
    M += K4
    M *= k / 6.0
    idx = np.arange(M.shape[-1])
    M[:, idx, idx] += 1.0
    return M


def _sample_transitions(generator, control, T: float, n: int, stride: int,
                        x0: np.ndarray, exact: bool = False):
    """Sample xdot = generator(control(t)) x from x0 over n steps of size
    h = T / n, every ``stride`` steps and at T; returns (times, states).

    ``generator`` maps a sequence of control values to their (m, d, d)
    generators, and x0 sets d.  Each step applies one RK4 transition matrix,
    with the control at the step's start, middle and end.  With ``exact``
    it applies (16 F2 F1 - C) / 15 instead, with C that step and F1, F2 two
    RK4 steps over h/2, the control at the quarters of the step: Richardson
    extrapolation cancels the h**5 term of the RK4 local error.

    The matrices are built _BATCH steps at a time, so memory stays bounded
    whatever n and stride; neighbouring steps share their ends.  Finiteness
    is checked once per batch; ``_check_rows`` raises at the first
    non-finite sample.
    """
    h = T / n
    sub = 4 if exact else 2
    times = np.append(np.arange(0, n, stride) * h, T)
    states = np.empty((times.size, x0.size))
    states[0] = x0
    state = x0
    row = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, _BATCH):
            count = min(_BATCH, n - first)
            stages = (sub * first + np.arange(sub * count + 1)) * (h / sub)
            A = generator([float(control(t)) for t in stages.tolist()])
            if exact:
                F = _rk4_transitions(A[:-1:2], A[1::2], A[2::2], 0.5 * h)
                E = F[1::2] @ F[0::2]
                E *= 16.0
                E -= _rk4_transitions(A[:-1:4], A[2::4], A[4::4], h)
                E /= 15.0
            else:
                E = _rk4_transitions(A[:-1:2], A[1::2], A[2::2], h)
            lo = row + 1
            for i, Ei in enumerate(E, first + 1):
                state = np.dot(Ei, state)
                if i % stride == 0 or i == n:
                    row += 1
                    states[row] = state
            _check_rows(states, times, lo, row + 1)
    return times, states


def _integrate_callable(theta_fn, params: SystemParams, T: float,
                        x0: np.ndarray, h_max: float, max_samples: int,
                        exact: bool) -> Trajectory:
    """Sample a callable control every ceil(n / (max_samples - 1)) of its n
    model steps and at T, through ``_sample_transitions``."""
    n = int(interval_steps(T, h_max)[0])
    times, states = _sample_transitions(
        lambda thetas: system_matrix(thetas, params), theta_fn, T, n,
        math.ceil(n / (max_samples - 1)), x0, exact)
    thetas = np.array([float(theta_fn(t)) for t in times.tolist()])
    return Trajectory(times, states, thetas)


def integrate_full(control, params: SystemParams, T: float | None = None, *,
                   initial_state=None, max_step: float | None = None,
                   max_samples: int = 2048, method: str = "rk4") -> Trajectory:
    """Integrate the full 9-variable system under the given control.

    Parameters
    ----------
    control : ControlSignal or callable
        Piecewise-constant schedule, or a callable t -> theta for smooth
        controls (a callable requires T).
    T : float, optional
        Final time.  A ControlSignal runs to its duration, the end of its
        grid; a T given with one must equal that duration exactly.
    initial_state : optional
        Defaults to all population in |1>; otherwise 9 finite components
        (or a FullState), else ValueError.
    max_step : float, optional
        Override of the default step bound (omega0*h <= 0.01, Gamma*h <= 0.1);
        must be finite and positive.  It sets the model steps, and so the
        sample times, of every path.
    max_samples : int
        Sample budget, an integer >= 2: samples are taken every
        ceil(steps / (max_samples - 1)) steps, and at the end of every
        control interval.
    method : {"rk4", "adaptive"}
        Fixed-step RK4 (default), or an oracle-grade method with the sample
        times and angles of "rk4".  For a ControlSignal, "adaptive" is
        exact: each advance between two samples applies expm(t A) over its
        length t, in place of a power of the RK4 step matrix.  For a
        callable, "rk4" applies each model step's RK4 transition matrix,
        with theta at the step's start, middle and end; "adaptive" makes
        each model step one RK4 step and two half steps of theta(t),
        Richardson-extrapolated to a local error of O(h**6).  Either way
        the matrices are applied to the state one step at a time.

    The returned trajectory always contains the final sample at exactly t = T
    (a ControlSignal's duration).
    """
    if method not in ("rk4", "adaptive"):
        raise ValueError(f"unknown method {method!r}")
    h_max = (default_max_step(params) if max_step is None
             else _checked_duration(max_step, "max_step"))
    max_samples = _checked_count(max_samples, "max_samples", 2)
    if initial_state is None:
        x0 = FullState.ground().as_array()
    else:
        x0 = _initial_array(initial_state, "initial_state")

    exact = method == "adaptive"
    if isinstance(control, ControlSignal):
        T = control.duration if T is None else _checked_duration(T, "T")
        if T != control.duration:
            raise ValueError(f"T must equal the control's duration "
                             f"{control.duration!r}, got {T!r}")
        return _integrate_piecewise(control, params, x0, h_max, max_samples,
                                    exact)
    if not callable(control):
        raise TypeError("control must be a ControlSignal or a callable")
    if T is None:
        raise ValueError("T is required when the control is a callable")
    # Here, not in the step rule, which would blame max_step for it.
    T = _checked_duration(T, "T")
    return _integrate_callable(control, params, T, x0, h_max, max_samples,
                               exact)
