"""Adiabatically reduced dynamics on the {|1>, |3>} subspace.

For decay rates large compared to the drive (Gamma >> omega0) the matrix
elements involving the lossy intermediate level relax fast and can be
eliminated by setting their time derivatives to zero.  What remains is a
closed system for (rho11, rho33, rho13), and, after rotating to the basis of
the instantaneous dark and bright superpositions of |1> and |3>, a two-
variable control system for

    x = rho_bb - rho_dd      (bright/dark population difference)
    y = 2 Re(rho_db)         (real part of the dark-bright coherence)

driven only by the angle velocity u = dtheta/dt'.  Time is normalized as
t' = omega0**2 * t / (2 * Gamma), the natural clock of the slow dynamics:

    dx/dt' = -(x + 1) + 2 u y
    dy/dt' = -2 u x - y
    dtheta/dt' = u

Both systems are linear, (x, y, theta) in (x, y, theta, 1), so their
integrators step a batched generator of each through the full model's RK4
transition-matrix sampler.  They check their duration and step count with
the model's argument checks, which raise a ValueError naming the argument,
and raise IntegrationError at the first non-finite sample.

This reduction is valid for symmetric decay only (gamma_diff = 0); the
asymmetric system is handled exclusively by the full model.  Validity
improves with Gamma/omega0 (use >= 10 as a practical guide); nothing is
enforced beyond symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SystemParams, _checked_count, _checked_duration,
                    _initial_array, _sample_transitions)

__all__ = [
    "ReducedState",
    "eliminated_coherences",
    "rhs_adiabatic",
    "dark_bright_transform",
    "dark_bright_inverse",
    "rhs_reduced",
    "normalize_time",
    "denormalize_time",
    "integrate_adiabatic",
    "integrate_reduced",
]


@dataclass(frozen=True)
class ReducedState:
    """Point of the reduced control system (all population dark at the start)."""

    x: float
    y: float
    theta: float

    @classmethod
    def initial(cls) -> "ReducedState":
        return cls(x=-1.0, y=0.0, theta=0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


def _require_symmetric(params: SystemParams):
    if not params.is_symmetric:
        raise ValueError(
            "the reduced model is defined for symmetric decay only "
            f"(gamma_diff = 0), got gamma_diff={params.gamma_diff!r}"
        )


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
    op = params.omega0 * math.sin(theta)
    os_ = params.omega0 * math.cos(theta)
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
    nu = params.omega0 ** 2 / (2.0 * params.gamma_total)
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    sc = math.sin(theta) * math.cos(theta)
    d11 = nu * (-sin2 * rho11 + cos2 * rho33)
    d33 = -d11
    d13 = -nu * (rho13 + sc * (rho11 + rho33))
    return d11, d33, d13


def _adiabatic_generator(theta, params: SystemParams) -> np.ndarray:
    """G(theta) with G @ (rho11, rho33, rho13) == rhs_adiabatic, batched
    over theta like ``model.system_matrix``: shape S + (3, 3)."""
    theta = np.asarray(theta, dtype=float)
    nu = params.omega0 ** 2 / (2.0 * params.gamma_total)
    sin, cos = np.sin(theta), np.cos(theta)
    G = np.zeros(theta.shape + (3, 3))
    G[..., 0, 0] = -nu * sin * sin
    G[..., 0, 1] = nu * cos * cos
    G[..., 1, :2] = -G[..., 0, :2]
    G[..., 2, 0] = G[..., 2, 1] = -nu * sin * cos
    G[..., 2, 2] = -nu
    return G


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


def _reduced_generator(u) -> np.ndarray:
    """Generator of (x, y, theta, 1) for angle velocity u, batched over u:
    its first three rows applied to (x, y, theta, 1) give rhs_reduced, and
    its last row is zero, so the homogeneous coordinate stays 1."""
    u = np.asarray(u, dtype=float)
    G = np.zeros(u.shape + (4, 4))
    G[..., 0, 0] = G[..., 0, 3] = G[..., 1, 1] = -1.0
    G[..., 0, 1] = 2.0 * u
    G[..., 1, 0] = -2.0 * u
    G[..., 2, 3] = u
    return G


def normalize_time(t: float, params: SystemParams) -> float:
    """Physical time -> normalized time t' = omega0**2 t / (2 Gamma)."""
    return params.omega0 ** 2 * t / (2.0 * params.gamma_total)


def denormalize_time(tprime: float, params: SystemParams) -> float:
    """Normalized time t' -> physical time t = 2 Gamma t' / omega0**2."""
    return 2.0 * params.gamma_total * tprime / params.omega0 ** 2


def integrate_adiabatic(theta_fn, params: SystemParams, T: float,
                        n_steps: int):
    """RK4 integration of the eliminated (rho11, rho33, Re rho13) system.

    Starts with all population in |1>; theta_fn maps physical time to the
    mixing angle.  Each of the n_steps steps of size T / n_steps applies
    the RK4 transition matrix of ``_adiabatic_generator``, with theta at
    the step's start, middle and end.  Returns (times, states): times equal
    np.linspace(0, T, n_steps + 1), and states of shape (n_steps + 1, 3)
    are ordered (rho11, rho33, rho13).

    Raises ValueError unless T is finite and positive, and IntegrationError
    at the first non-finite state.
    """
    n_steps = _checked_count(n_steps, "n_steps", 1)
    T = _checked_duration(T, "T")
    _require_symmetric(params)
    return _sample_transitions(
        lambda thetas: _adiabatic_generator(thetas, params), theta_fn, T,
        n_steps, 1, np.array([1.0, 0.0, 0.0]))


def integrate_reduced(u_fn, tprime: float, n_steps: int,
                      state0=(-1.0, 0.0, 0.0)):
    """RK4 integration of the (x, y, theta) system in normalized time.

    u_fn maps normalized time to the angle velocity u.  Each of the n_steps
    steps applies the RK4 transition matrix of ``_reduced_generator`` to
    (x, y, theta, 1), with u at the step's start, middle and end.  Returns
    (times, states): times equal np.linspace(0, tprime, n_steps + 1), and
    states have shape (n_steps + 1, 3).

    state0 is a ReducedState or an (x, y, theta) sequence.
    Raises ValueError unless tprime is finite and positive and state0 has
    three finite components, and IntegrationError at the first non-finite
    state.
    """
    n_steps = _checked_count(n_steps, "n_steps", 1)
    tprime = _checked_duration(tprime, "tprime")
    if isinstance(state0, ReducedState):
        state0 = state0.as_array()
    x0 = np.append(_initial_array(state0, "state0", 3), 1.0)
    times, states = _sample_transitions(_reduced_generator, u_fn, tprime,
                                        n_steps, 1, x0)
    return times, states[:, :3].copy()
