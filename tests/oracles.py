"""Reference implementations that the tests compare the package against.

The package runs one generator per model (``model.system_matrix``,
``reduced._adiabatic_generator``, ``reduced._reduced_generator``) and folds
bang-singular sequences with ``analytic._fold``.  The stage-form
right-hand sides, the dark/bright transform and the closed-form sums below
are independent copies of the same equations: nothing in the package calls
them.  ``rhs_full``, ``rhs_adiabatic``, ``rhs_reduced`` and
``closed_form_sequence`` do not use the kernels they check (test_oracles.py
parses this file to keep it so), since a copy built on a kernel agrees with
any mutant of it.  ``frame_rotation`` and ``system_matrix_dtheta`` assemble
the full 9x9 forms of the optimizer's x-block kernels, which the tests check
against ``expm`` and central differences.  ``propagated_rho33`` multiplies
out the optimizer's interval propagators one at a time, so that central
differences of rho33(T) may step past the angle bounds.

The serial loop is the reference for a loop that ``_fork.split`` runs in
two processes: ``fork_paths`` keeps every part in this process or forks
for any number of parts, and ``assert_no_child`` checks that no child is
left unreaped.
"""

from __future__ import annotations

import math
import os
from unittest import mock

import numpy as np
import pytest

from lambda_control import _fork
from lambda_control.analytic import _SEQUENCE_TOL, BangSingularSequence
from lambda_control.model import (
    HALF_PI,
    STATE_DIM,
    ControlSignal,
    SystemParams,
    _angle_derivative,
    _frame_rotation_x,
    _initial_array,
    system_matrix,
)
from lambda_control.optimizer import _interval_propagators
from lambda_control.reduced import ReducedState, _require_symmetric


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

def rhs_full(state, theta: float, params: SystemParams) -> np.ndarray:
    """Time derivative of the 9-component state at mixing angle theta.

    The population derivatives sum to zero for every state, angle and decay
    asymmetry, so the trace is conserved exactly by the dynamics.
    """
    x1, x2, x3, x4, x5, x6, y1, y2, y3 = _initial_array(state, "state")
    op = math.sin(theta)
    os_ = math.cos(theta)
    g = params.gamma_total
    g1 = params.gamma1
    g3 = params.gamma3
    return np.array([
        -op * x4 + g1 * x2,
        op * x4 - os_ * x5 - g * x2,
        os_ * x5 + g3 * x2,
        0.5 * op * (x1 - x2) + 0.5 * os_ * x6 - 0.5 * g * x4,
        0.5 * os_ * (x2 - x3) - 0.5 * op * x6 - 0.5 * g * x5,
        0.5 * (op * x5 - os_ * x4),
        -0.5 * os_ * y3 - 0.5 * g * y1,
        0.5 * op * y3 - 0.5 * g * y2,
        0.5 * (os_ * y1 - op * y2),
    ])


def system_matrix_dtheta(theta, params: SystemParams) -> np.ndarray:
    """dA/dtheta of the 9x9 generator, batched like ``system_matrix``."""
    return _angle_derivative(system_matrix(theta, params), params)


def frame_rotation(theta):
    """R(theta) = exp(theta K) and its inverse R(-theta) on all 9
    components, batched over theta: shapes S + (9, 9) each."""
    R_x, R_x_inv = _frame_rotation_x(theta)
    R = np.zeros(R_x.shape[:-2] + (STATE_DIM, STATE_DIM))
    R_inv = np.zeros_like(R)
    R[..., :6, :6] = R_x
    R_inv[..., :6, :6] = R_x_inv
    # K on (y1, y2) is minus K on (x4, x5), so (y1, y2) turn as (x4, x5)
    # do at -theta.
    R[..., 6:8, 6:8] = R_x_inv[..., 3:5, 3:5]
    R_inv[..., 6:8, 6:8] = R_x[..., 3:5, 3:5]
    R[..., 8, 8] = R_inv[..., 8, 8] = 1.0
    return R, R_inv


def propagated_rho33(thetas, durations, params: SystemParams) -> float:
    """rho33(T) from ``_interval_propagators`` applied one interval at a
    time to the initial state; the angles are not range-checked."""
    state = np.eye(6)[0]
    for P in _interval_propagators(thetas, durations, params)[0]:
        state = P @ state
    return float(state[2])


def reconstruct_density(state) -> np.ndarray:
    """3x3 complex density matrix from the real encoding (Hermitian by construction)."""
    x1, x2, x3, x4, x5, x6, y1, y2, y3 = _initial_array(state, "state")
    r12 = y1 + 1j * x4
    r23 = y2 + 1j * x5
    r13 = x6 + 1j * y3
    return np.array([
        [x1, r12, r13],
        [np.conj(r12), x2, r23],
        [np.conj(r13), np.conj(r23), x3],
    ])


def from_function(fn, duration: float, n_intervals: int) -> ControlSignal:
    """Midpoint samples of a callable theta(t) on a uniform grid, clipped to
    [0, pi/2]."""
    grid = np.linspace(0.0, duration, n_intervals + 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    return ControlSignal(grid, np.clip([float(fn(t)) for t in mids], 0.0,
                                       HALF_PI))


# ---------------------------------------------------------------------------
# Adiabatic elimination and the dark/bright frame
# ---------------------------------------------------------------------------

def eliminated_coherences(rho11: float, rho33: float, rho13_real: float,
                          theta: float, params: SystemParams):
    """Quasi-steady values of the fast matrix elements.

    Returns (rho22, Im rho12, Im rho23) obtained by zeroing the fast
    derivatives and dropping the small rho22 feedback in the coherences:

        rho22    = [op^2 rho11 + os^2 rho33 + 2 op os Re(rho13)] / Gamma^2
        Im rho12 = (op rho11 + os Re rho13) / Gamma
        Im rho23 = -(op Re rho13 + os rho33) / Gamma
    """
    _require_symmetric(params)
    op = math.sin(theta)
    os_ = math.cos(theta)
    g = params.gamma_total
    rho22 = (op * op * rho11 + os_ * os_ * rho33
             + 2.0 * op * os_ * rho13_real) / (g * g)
    im12 = (op * rho11 + os_ * rho13_real) / g
    im23 = -(op * rho13_real + os_ * rho33) / g
    return rho22, im12, im23


def rhs_adiabatic(rho11, rho33, rho13, theta: float, params: SystemParams):
    """Slow derivatives (drho11, drho33, drho13) after eliminating the fast block.

    rho13 may be real or complex; the population sum rho11 + rho33 is
    conserved exactly.
    """
    _require_symmetric(params)
    nu = 1.0 / (2.0 * params.gamma_total)
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    sc = math.sin(theta) * math.cos(theta)
    d11 = nu * (-sin2 * rho11 + cos2 * rho33)
    d33 = -d11
    d13 = -nu * (rho13 + sc * (rho11 + rho33))
    return d11, d33, d13


def _rotation(theta: float) -> np.ndarray:
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([[c, -s], [s, c]])


def dark_bright_transform(rho11, rho13, rho33, theta: float):
    """Map the {|1>, |3>} block to (x, y) in the dark/bright basis at angle theta.

    The dark and bright states are cos(theta)|1> - sin(theta)|3> and
    sin(theta)|1> + cos(theta)|3>; the block transforms by conjugation with
    the corresponding rotation.  Returns (x, y) with x = rho_bb - rho_dd and
    y = 2 Re(rho_db).
    """
    R = _rotation(theta)
    block = np.array([[rho11, rho13], [np.conj(rho13), rho33]])
    rotated = R @ block @ R.T
    x = float(rotated[1, 1].real - rotated[0, 0].real)
    y = float(2.0 * rotated[0, 1].real)
    return x, y


def dark_bright_inverse(x: float, y: float, theta: float, *,
                        trace: float = 1.0, im_db: float = 0.0):
    """Inverse of dark_bright_transform: back to (rho11, rho13, rho33).

    The (x, y) pair does not fix the block alone; the block trace and the
    imaginary part of the dark-bright coherence (both invariant under the
    rotation) complete it.  Round-trips with dark_bright_transform are exact
    up to roundoff.
    """
    R = _rotation(theta)
    rho_dd = 0.5 * (trace - x)
    rho_bb = 0.5 * (trace + x)
    rho_db = 0.5 * y + 1j * im_db
    tilde = np.array([[rho_dd, rho_db], [np.conj(rho_db), rho_bb]])
    block = R.T @ tilde @ R
    return block[0, 0].real, block[0, 1], block[1, 1].real


def rhs_reduced(state, u: float) -> np.ndarray:
    """Derivative of (x, y, theta) in normalized time t' for angle velocity u."""
    if isinstance(state, ReducedState):
        x, y, theta = state.x, state.y, state.theta
    else:
        x, y, theta = (float(v) for v in np.asarray(state, dtype=float))
    del theta  # cyclic: the derivative does not depend on it
    return np.array([
        -(x + 1.0) + 2.0 * u * y,
        -2.0 * u * x - y,
        u,
    ])


def denormalize_time(tprime: float, params: SystemParams) -> float:
    """Normalized time t' -> model time t = 2 Gamma t'."""
    return 2.0 * params.gamma_total * tprime


# ---------------------------------------------------------------------------
# Bang-singular sequences
# ---------------------------------------------------------------------------

def closed_form_sequence(seq: BangSingularSequence):
    """Explicit final (x, y) for a sequence started at (-1, 0).

    With suffix sums S_k = jumps[k] + ... + jumps[n-1] (S_n = 0) and
    R_k = arcs[k] + ... + arcs[n-1]:

        x = sum_k exp(-R_k) [cos 2 S_{k+1} - cos 2 S_k] - 1
        y = sum_k exp(-R_k) [sin 2 S_k - sin 2 S_{k+1}]

    Must agree with propagate_sequence to roundoff.
    """
    theta_suffix = np.append(np.cumsum(seq.jumps[::-1])[::-1], 0.0)
    arc_suffix = np.cumsum(seq.arcs[::-1])[::-1]
    decay = np.exp(-arc_suffix)
    cos_terms = np.cos(2.0 * theta_suffix)
    sin_terms = np.sin(2.0 * theta_suffix)
    x = float(np.dot(decay, cos_terms[1:] - cos_terms[:-1]) - 1.0)
    y = float(np.dot(decay, sin_terms[:-1] - sin_terms[1:]))
    return x, y


def is_pumping_equivalent(seq: BangSingularSequence) -> bool:
    """True if the schedule collapses to a single pi/2 jump at t' = 0.

    Jumps separated only by (numerically) zero-duration arcs merge; the
    merged initial jump must be pi/2 and everything after it zero.
    """
    first_block = 0.0
    i = 0
    while i < seq.n:
        first_block += seq.jumps[i]
        if seq.arcs[i] > _SEQUENCE_TOL:
            break
        i += 1
    rest = seq.total_angle - first_block
    return (abs(first_block - HALF_PI) <= _SEQUENCE_TOL
            and abs(rest) <= _SEQUENCE_TOL)


def fork_paths():
    """Patches that keep every part in this process, or fork for any
    number of parts and any estimated time."""
    return {"serial": mock.patch.object(_fork, "_two_processes",
                                        lambda n_parts, seconds: False),
            "forked": mock.patch.object(_fork, "_two_processes",
                                        lambda n_parts, seconds: True)}


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
