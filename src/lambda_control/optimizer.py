"""Pulse-shape optimization for the full lambda-system model.

Maximizes the final target population rho33(T) over piecewise-constant
mixing-angle schedules theta in [0, pi/2]^N by projected limited-memory
BFGS ascent (the last ``_LBFGS_MEMORY = 10`` curvature pairs, two-loop
recursion on the free entries, projected-gradient restarts whose first
step expands while it is accepted) with a backtracking (Armijo) line
search and a deterministic multi-start.  It is
written in numpy: ``scipy.optimize`` would add ~0.45 s of import time and
~47 MB of memory to every run.  The amplitude constraint
omega_p**2 + omega_s**2 = omega0**2 is satisfied identically by the angle
parameterization, so no penalty terms appear.  ``objective`` and
``objective_and_gradient`` take the horizon T from their control: its grid
starts at 0 (``ControlSignal`` checks it) and ends at T.

The dynamics are those of ``integrate_full``: the generator
(``system_matrix``), the dark/bright frame rotation (``FRAME_GENERATOR`` K,
and R = exp(theta K) on the x block, ``_frame_rotation_x``), the RK4 step
matrix (``rk4_step_matrix``), the batched matrix powers (``_matrix_powers``)
and the step rule (``interval_steps``) all come from ``lambda_control.model``;
dA/dtheta is the model's K A - A K + gamma E_51 (``_angle_derivative``),
taken on the x block.  Because the state equation is linear, a control
interval integrated with fixed-step RK4 is a matrix power of the one-step
transition matrix.  Only the 6-variable x block enters: the y block is
decoupled and identically zero from the standard initial condition.

The step counts and sizes depend only on the grid and the parameters, so
one cached grid plan (``_grid_plan``) holds them and an ascent makes it
once.  The interval propagators P_k and their derivatives then take one
of two paths, chosen by ``params.is_symmetric``:

* Symmetric decay: A(theta) = R(theta) A(0) R(-theta), and a polynomial of
  a conjugated matrix is the conjugated polynomial, so

      P_k = R(theta_k) P0_k R(-theta_k),   dP_k/dtheta_k = K P_k - P_k K,

  where P0_k, the RK4 propagator at theta = 0, is built for every
  interval with its planned step count and step size.  It too depends
  only on the grid and the parameters, so the grid plan holds it.  dP_k
  is never formed (see the gradient below).
* Asymmetric decay: the feeding term breaks the identity, so each interval
  gets its own RK4 step, and the derivative is carried alongside as a pair
  (M, dM) of 6x6 matrices under the product rule

      (P, dP)(Q, dQ) = (P Q, P dQ + dP Q).

  With (B, dB) = h (A, dA) and dA = dA/dtheta_k, the RK4 polynomial takes
  d(B^j) = B^(j-1) dB + d(B^(j-1)) B, and the step count m is applied by a
  binary power of the pair.

Both paths are the same discretized dynamics (they agree to roundoff), and
the gradient is exact for it: it matches finite differences of the same
objective to roundoff.

With e1 the initial state and e3 the target, rho33(T) = e3^T P_{N-1} ... P_0
e1.  The state x_j before interval j is a prefix product applied to e1
(x_N is the final state), and the adjoint lambda_j is row 2 of the suffix
product P_{N-1} ... P_j (lambda_N = e3); both come from one doubling scan
(``_prefix_products``) in ceil(log2 N) batched matmuls.  The gradient is
g_k = lambda_{k+1}^T (dP_k/dtheta_k) x_k.  For asymmetric decay that is
one contraction over all intervals.  For symmetric decay, dP_k = K P_k -
P_k K turns it into increments of the switching function

    Phi_j = lambda_j^T K x_j,   g_k = Phi_{k+1} - Phi_k,

since lambda_{k+1}^T P_k = lambda_k^T and P_k x_k = x_{k+1}.  Phi_j is the
first-order change of rho33(T) when the state at the boundary before
interval j is turned by exp(eps K).  It vanishes along pumping (theta =
pi/2), where the state and the adjoint are both zero on (x5, x6).

``optimize`` checks every start before any ascent.  Its starts are
independent, so ``_ascend_all`` runs them in two processes through
``_fork.split``, the helper ``cli.cmd_verify`` uses for its chunks: where
``_fork._two_processes`` allows it, a forked child ascends the odd-indexed
starts and pickles their outcomes into a pipe while the caller ascends the
even-indexed ones, and the outcomes go back in start order.  The ascent is
deterministic, so the records, the tie-break and every output byte do not
depend on the split.  Where the split does not run or fails, the serial
loop runs every start in the caller, so it alone defines what ``optimize``
returns or raises.  The split adds 4-10 ms on a 2-vCPU host, so only calls
with starts x intervals x ``max_iters`` of 20000 or more fork
(``_ITERATION_SECONDS_PER_INTERVAL``): a call of 8 intervals, 2 starts and 3 iterations
stays in one process (0.7-1.2 ms, against 4.5-5.1 ms forked).  Every call
at the defaults (100 intervals, 6 starts, 300 iterations) forks, but most
starts converge long before ``max_iters``: on the benchmark's four default
cells the split loses on the two that converge fastest, and on a 2-vCPU
host where two busy processes ran no faster than one it lost on all four
(9-76 ms in one process against 13-82 ms forked, in-process medians of 10
alternating rounds).  Spans and mocks in the caller see only its own
starts.
"""

from __future__ import annotations

import functools
import pickle
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _fork
from .model import (
    HALF_PI,
    _XDIM,
    _angle_derivative,
    ControlSignal,
    FRAME_GENERATOR,
    SystemParams,
    _matrix_powers,
    _frame_rotation_x,
    _checked_count,
    _uniform_grid,
    default_max_step,
    interval_steps,
    optical_pumping_control,
    rk4_step_matrix,
    system_matrix,
)

__all__ = [
    "OptimizationConfig",
    "StartRecord",
    "OptimizationResult",
    "objective",
    "objective_and_gradient",
    "optimize",
    "pumping_baseline",
    "default_starts",
]


@dataclass(frozen=True)
class OptimizationConfig:
    n_intervals: int = 100
    max_iters: int = 300
    n_starts: int = 6
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_intervals", 2), ("max_iters", 0),
                            ("n_starts", 1), ("seed", 0)):
            _checked_count(getattr(self, name), name, least)


@dataclass(frozen=True)
class StartRecord:
    label: str
    initial_objective: float
    objective: float
    iterations: int
    nfev: int
    converged: bool
    total_variation: float
    # Why the ascent stopped: "converged" (the stop test held at the last
    # iterate), "max_iters" or "line_search" (no trial step improved).
    stop: str


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    control: ControlSignal
    objective: float
    iterations: int
    converged: bool
    start_label: str
    history: np.ndarray
    starts: tuple[StartRecord, ...]


# ---------------------------------------------------------------------------
# Interval propagators (x block only)
# ---------------------------------------------------------------------------

def _pair_product(P, dP, Q, dQ):
    """(P, dP)(Q, dQ) = (P Q, P dQ + dP Q), the product rule."""
    d = P @ dQ
    d += dP @ Q
    return P @ Q, d


def _pair_power(M: np.ndarray, dM: np.ndarray, n: int):
    """The pair (M^n, d(M^n)) for n >= 1, by ``_pair_product``.

    M^n is multiplied as ``np.linalg.matrix_power`` multiplies it: (M M) M
    for n = 3, and otherwise the binary decomposition of n from its lowest
    bit, multiplying result @ z and squaring z.
    """
    if n == 3:
        return _pair_product(*_pair_product(M, dM, M, dM), M, dM)
    z = result = None
    while n > 0:
        z = (M, dM) if z is None else _pair_product(*z, *z)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else _pair_product(*result, *z)
    return result


def _rk4_pair_propagators(thetas: np.ndarray, steps: np.ndarray,
                          h: np.ndarray, params: SystemParams):
    """P_k and dP_k/dtheta_k from per-interval RK4 steps of A(theta_k).

    Valid for any decay.  Interval k takes steps[k] RK4 steps of size h[k]
    (``_grid_plan``).  (P_k, dP_k) is the pair (M, dM) of the module
    docstring raised to the interval's step count.
    """
    # The generator is block diagonal, so the x block evolves on its own.
    A = system_matrix(thetas, params)[:, :_XDIM, :_XDIM]
    # The RK4 polynomial of (B, dB) = h (A, dA), with
    # d(B^j) = B^(j-1) dB + d(B^(j-1)) B.
    B = h[:, None, None] * A
    dB = h[:, None, None] * _angle_derivative(A, params)
    B2, dB2 = _pair_product(B, dB, B, dB)
    B3, dB3 = _pair_product(B2, dB2, B, dB)
    B4, dB4 = _pair_product(B3, dB3, B, dB)
    M = B + B2 / 2.0 + B3 / 6.0 + B4 / 24.0
    idx = np.arange(_XDIM)
    M[:, idx, idx] += 1.0
    dM = dB + dB2 / 2.0 + dB3 / 6.0 + dB4 / 24.0
    if steps.min() == steps.max():  # a uniform grid: no masked copies
        return _pair_power(M, dM, int(steps[0]))
    P, dP = np.empty_like(M), np.empty_like(dM)
    for m in np.unique(steps):
        sel = steps == m
        P[sel], dP[sel] = _pair_power(M[sel], dM[sel], int(m))
    return P, dP


# The x block of the frame generator K (K is block diagonal, like A).
_K = FRAME_GENERATOR[:_XDIM, :_XDIM]


@functools.lru_cache(maxsize=8)
def _grid_plan(durations_key: bytes, params: SystemParams):
    """(steps, h, P0) of a grid, keyed by its float64 duration bytes.

    steps and h are the RK4 step counts and sizes of ``interval_steps``.
    P0 is each interval's RK4 propagator at theta = 0, built with that
    interval's steps and h, for symmetric decay only (None otherwise).
    The grid and the parameters stay fixed over a whole ascent, so each
    ascent makes its plan once.  The cached arrays are shared by every
    caller, so they are read-only.
    """
    steps, h = interval_steps(np.frombuffer(durations_key),
                              default_max_step(params))
    P0 = None
    if params.is_symmetric:
        A0 = system_matrix(0.0, params)[:_XDIM, :_XDIM]
        P0 = _matrix_powers(rk4_step_matrix(A0, h), steps)
        P0.flags.writeable = False
    steps.flags.writeable = h.flags.writeable = False
    return steps, h, P0


def _interval_propagators(thetas: np.ndarray, durations: np.ndarray,
                          params: SystemParams):
    """Per-interval RK4 propagators P_k, with dP_k/dtheta_k or None.

    Symmetric decay rotates each interval's theta = 0 propagator P0
    (``_grid_plan``) into its frame, P_k = R(theta_k) P0 R(-theta_k): a
    polynomial of a conjugated matrix is the conjugated polynomial.  It
    returns no dP_k: its gradient is taken from the switching function
    instead (see ``objective_and_gradient``).  Asymmetric decay breaks
    that identity and keeps the per-interval RK4 step and power of the
    (A, dA/dtheta) pair (``_rk4_pair_propagators``).  Both give the same
    fixed-step dynamics to roundoff.
    """
    steps, h, P0 = _grid_plan(
        np.asarray(durations, dtype=float).tobytes(), params)
    if P0 is None:
        return _rk4_pair_propagators(thetas, steps, h, params)
    R, R_inv = _frame_rotation_x(thetas)
    return R @ P0 @ R_inv, None


def _prefix_products(C: np.ndarray) -> np.ndarray:
    """Inclusive products C[k] @ ... @ C[0] along axis -3.

    A Hillis-Steele scan: after the step with shift s every entry holds the
    product of the last 2s factors up to it, so ceil(log2 N) batched matmuls
    replace N sequential ones.  Leading axes are independent batches.  Each
    step writes into the other of C and one spare array of its shape, so C
    may be overwritten; the result is whichever of the two holds it.
    """
    n = C.shape[-3]
    spare = np.empty_like(C)
    shift = 1
    while shift < n:
        np.matmul(C[..., shift:, :, :], C[..., :n - shift, :, :],
                  out=spare[..., shift:, :, :])
        spare[..., :shift, :, :] = C[..., :shift, :, :]
        C, spare = spare, C
        shift *= 2
    return C


def objective(control: ControlSignal, params: SystemParams) -> float:
    """Final target population rho33(T), T = ``control.duration``, under
    the fixed-step dynamics: the value of ``objective_and_gradient``."""
    return objective_and_gradient(control, params)[0]


def objective_and_gradient(control: ControlSignal, params: SystemParams):
    """Objective together with its exact per-interval gradient.

    The gradient is the derivative of the discretized objective, so it
    agrees with central finite differences of ``objective`` to roundoff.
    """
    P, dP = _interval_propagators(control.theta, control.durations, params)
    # Row 0: prefix products P_k ... P_0.  Row 1: prefix products of the
    # reversed, transposed stack, (P_{N-1} ... P_{N-1-j})^T.  The transpose
    # is copied: a matmul on the transposed view changes the last bits.
    scan = np.empty((2,) + P.shape)
    scan[0] = P
    scan[1] = P[::-1].transpose(0, 2, 1)
    forward, backward = _prefix_products(scan)
    # states[j] = x_j is the state before interval j (x_N the final state)
    # and adjoints[j] = lambda_j is row 2 of P_{N-1} ... P_j (lambda_N = e3).
    unit = np.eye(_XDIM)
    states = np.concatenate([unit[:1], forward[:, :, 0]])
    adjoints = np.concatenate([backward[::-1, :, 2], unit[2:3]])
    if dP is None:
        # Symmetric decay: dP_k/dtheta_k = K P_k - P_k K, so the gradient
        # is g_k = Phi_{k+1} - Phi_k with Phi_j = lambda_j^T K x_j.
        grad = np.diff(np.einsum("ki,ki->k", adjoints @ _K, states))
    else:
        grad = np.einsum("ki,kij,kj->k", adjoints[1:], dP, states[:-1])
    return float(forward[-1, 2, 0]), grad


# ---------------------------------------------------------------------------
# Projected L-BFGS ascent
# ---------------------------------------------------------------------------

# The ascent policy.  The direction keeps _LBFGS_MEMORY curvature pairs.
# A start has converged when no projected-gradient entry exceeds _GRAD_TOL.
# A line search tries step 1 along a quasi-Newton direction, or the restart
# step along the projected gradient, shrinks it by _SHRINK for at most
# _MAX_BACKTRACKS trials and accepts the Armijo increase _ARMIJO.  The
# restart step is _INITIAL_STEP at the start of an ascent; a restart that
# accepts its first trial doubles it (1 / _SHRINK), any other sets it to the
# step accepted, and each restart caps it at HALF_PI / max|pg|.  Where rho33
# is convex along the path every curvature pair is rejected, and a fixed
# restart step would crawl (Barzilai and Borwein, IMA J. Numer. Anal. 8,
# 141 (1988)).  Starts within _TIE_TOL of the best go to the smallest total
# variation.
_LBFGS_MEMORY = 10
_GRAD_TOL = 1e-6
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40
_TIE_TOL = 1e-6

# What one iteration of one start costs per interval, for the serial time
# that _fork.split weighs: 0.8-2.9 us at 8-50 intervals and 100-300
# iterations, where a split starts to pay (2-vCPU host).
_ITERATION_SECONDS_PER_INTERVAL = 1e-6


def _projected_gradient(theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Zero out components that push against an active bound."""
    pg = grad.copy()
    pg[(theta <= 1e-12) & (grad < 0.0)] = 0.0
    pg[(theta >= HALF_PI - 1e-12) & (grad > 0.0)] = 0.0
    return pg


def _lbfgs_direction(pg: np.ndarray, pairs) -> np.ndarray:
    """Two-loop recursion H pg over the curvature pairs (s, y, 1/s^T y).

    H approximates the inverse Hessian of -rho33; H0 is scaled by s^T y /
    y^T y of the newest pair.  The result is zeroed where pg is, i.e. on
    the active set.
    """
    q = pg.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    s, y, rho = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    q[pg == 0.0] = 0.0
    return q


def _ascend(theta0: np.ndarray, grid: np.ndarray, params: SystemParams,
            config: OptimizationConfig):
    """Single-start projected L-BFGS ascent; accepted steps never decrease.

    Every evaluated point, the start and each line-search trial, goes
    through the public ``objective_and_gradient``, so traced runs count
    every evaluation made in their process, and an accepted trial's
    gradient is the next iterate's.  The grid is fixed, so every
    evaluation reads one grid plan (``_grid_plan``): the step counts and
    sizes, and for symmetric decay each interval's P0, are made once per
    ascent.

    Returns theta, its objective, the iterations, the stop reason of
    ``StartRecord``, the objective history and nfev, the number of
    evaluated points.
    """
    theta = np.clip(theta0, 0.0, HALF_PI)
    control = ControlSignal(grid, theta)
    value, grad = objective_and_gradient(control, params)
    nfev = 1
    history = [value]
    pairs = deque(maxlen=_LBFGS_MEMORY)
    iterations = 0
    restart_step = _INITIAL_STEP
    stop = "max_iters"

    for _ in range(config.max_iters):
        pg = _projected_gradient(theta, grad)
        pg_max = float(np.max(np.abs(pg), initial=0.0))
        if pg_max <= _GRAD_TOL:
            break
        direction = _lbfgs_direction(pg, pairs) if pairs else pg
        restart = not (pairs and float(grad @ direction) > 0.0)
        if restart:
            # No memory yet, or no ascent: restart from the projected
            # gradient.  At HALF_PI / pg_max the largest entry of pg already
            # crosses the whole box; past it, doubling would only add
            # clipped trials.
            pairs.clear()
            direction, step = pg, min(restart_step, HALF_PI / pg_max)
        else:
            step = 1.0
        accepted = False
        rejected = None  # the last trial this search rejected
        for attempt in range(_MAX_BACKTRACKS):
            trial = np.clip(theta + step * direction, 0.0, HALF_PI)
            move = trial - theta
            slope = float(grad @ move)
            # The clip can map a shorter step onto the trial just rejected;
            # its value, and so its rejection, would repeat.
            if slope <= 0.0 or np.array_equal(trial, rejected):
                step *= _SHRINK
                continue
            trial_value, new_grad = objective_and_gradient(
                control.with_theta(trial), params)
            nfev += 1
            if trial_value >= value + _ARMIJO * slope and trial_value > value:
                theta = trial
                value = trial_value
                # Curvature of -rho33 along the move.
                y = grad - new_grad
                sy = float(move @ y)
                if sy > 1e-12 * np.linalg.norm(move) * np.linalg.norm(y):
                    pairs.append((move, y, 1.0 / sy))
                grad = new_grad
                history.append(value)
                if restart:
                    # Expand along a steepest-ascent path, else keep the
                    # step the search settled on.
                    restart_step = step / _SHRINK if attempt == 0 else step
                accepted = True
                break
            rejected = trial
            step *= _SHRINK
        if not accepted:
            # Line search exhausted: no improving step at this resolution.
            stop = "line_search"
            break
        iterations += 1

    # The stop test at the last iterate, also when the iterations ran out.
    pg = _projected_gradient(theta, grad)
    if float(np.max(np.abs(pg), initial=0.0)) <= _GRAD_TOL:
        stop = "converged"
    return theta, value, iterations, stop, np.asarray(history), nfev


def _ascend_all(thetas, grid: np.ndarray, params: SystemParams,
                config: OptimizationConfig) -> list:
    """``_ascend`` of every start, in start order, as the serial loop
    returns or raises it.

    Through ``_fork.split``, a forked child ascends the odd-indexed starts
    and pickles their outcomes, while this process ascends the even-indexed
    ones; ``_ascend`` is deterministic, so the outcomes are the serial
    loop's bit for bit.  Where the split does not run or fails (a start
    here raises an ``Exception``, the child exits non-zero, its payload
    does not unpickle), the serial loop runs.
    """
    def ascend(share):
        return [_ascend(theta0, grid, params, config) for theta0 in share]

    def here(pipe):
        outcomes = [None] * len(thetas)
        outcomes[::2] = ascend(thetas[::2])
        outcomes[1::2] = pickle.loads(pipe.read())
        return outcomes

    # max_iters bounds the iterations of each start.
    seconds = (len(thetas) * config.n_intervals * config.max_iters
               * _ITERATION_SECONDS_PER_INTERVAL)
    outcomes = _fork.split(len(thetas), seconds,
                           lambda: pickle.dumps(ascend(thetas[1::2])), here)
    return ascend(thetas) if outcomes is _fork.NOT_SPLIT else outcomes


def default_starts(config: OptimizationConfig,
                   rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """Deterministic start set plus seeded random draws.

    The first three starts are pumping (theta = pi/2 throughout), the
    counterintuitive linear ramp 0 -> pi/2 (Stokes before pump) and the
    intuitive reversed ramp; any remaining budget is uniform random.
    """
    n = config.n_intervals
    mid = (np.arange(n) + 0.5) / n
    deterministic = [
        ("pumping", np.full(n, HALF_PI)),
        ("counterintuitive_ramp", HALF_PI * mid),
        ("intuitive_ramp", HALF_PI * (1.0 - mid)),
    ]
    starts = deterministic[: min(3, config.n_starts)]
    for j in range(config.n_starts - len(starts)):
        starts.append((f"random_{j + 1}", rng.uniform(0.0, HALF_PI, n)))
    return starts


def optimize(config: OptimizationConfig, params: SystemParams, T: float, *,
             starts: list[tuple[str, np.ndarray]] | None = None
             ) -> OptimizationResult:
    """Multi-start projected L-BFGS ascent over theta schedules on [0, T].

    Returns the best start after the tie-break (equal objectives within
    _TIE_TOL resolve to the schedule with smaller total variation).
    The winner's objective is never below any start's initial objective.
    """
    grid = _uniform_grid(T, config.n_intervals, "T")
    if starts is None:
        rng = np.random.default_rng(config.seed)
        starts = default_starts(config, rng)

    starts = list(starts)
    if not starts:
        raise ValueError("starts must hold at least one (label, theta) pair")
    thetas = []
    for label, theta0 in starts:
        theta0 = np.asarray(theta0, dtype=float)
        if theta0.shape != (config.n_intervals,):
            raise ValueError(
                f"start {label!r} has shape {theta0.shape}, expected "
                f"({config.n_intervals},)"
            )
        if not np.isfinite(theta0).all():
            raise ValueError(f"start {label!r} has non-finite values")
        thetas.append(theta0)

    records = []
    solved = []
    outcomes = _ascend_all(thetas, grid, params, config)
    for (label, _), outcome in zip(starts, outcomes):
        theta, value, iters, stop, history, nfev = outcome
        control = ControlSignal(grid, theta)
        records.append(StartRecord(
            label=label,
            # objective_and_gradient at the clipped start.
            initial_objective=float(history[0]),
            objective=value,
            iterations=iters,
            nfev=nfev,
            converged=stop == "converged",
            total_variation=control.total_variation(),
            stop=stop,
        ))
        solved.append((control, history))

    best_value = max(r.objective for r in records)
    # Tie-break within _TIE_TOL by smoothness, but never pick a candidate
    # below some start's initial objective (the argmax always qualifies).
    floor = max(r.initial_objective for r in records) - 1e-12
    candidates = [i for i, r in enumerate(records)
                  if r.objective >= best_value - _TIE_TOL
                  and r.objective >= floor]
    winner = min(candidates, key=lambda i: (records[i].total_variation, i))

    rec = records[winner]
    control, history = solved[winner]
    value = rec.objective
    if not (-1e-9 <= value <= 1.0 + 1e-9):
        raise FloatingPointError(
            f"objective {value!r} escaped [0, 1]; integration is unreliable"
        )
    return OptimizationResult(
        control=control,
        objective=min(max(value, 0.0), 1.0),
        iterations=rec.iterations,
        converged=rec.converged,
        start_label=rec.label,
        history=history,
        starts=tuple(records),
    )


def pumping_baseline(params: SystemParams, T: float) -> float:
    """rho33(T) under pure pumping (theta = pi/2 for the whole window)."""
    return objective(optical_pumping_control(T), params)

