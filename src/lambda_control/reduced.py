"""Adiabatically reduced dynamics on the {|1>, |3>} subspace.

For decay rates large compared to the drive (Gamma/omega0 >> 1) the matrix
elements involving the lossy intermediate level relax fast and can be
eliminated by setting their time derivatives to zero.  What remains is a
closed system for (rho11, rho33, rho13), and, after rotating to the basis of
the instantaneous dark and bright superpositions of |1> and |3>, a two-
variable control system for

    x = rho_bb - rho_dd      (bright/dark population difference)
    y = 2 Re(rho_db)         (real part of the dark-bright coherence)

driven only by the angle velocity u = dtheta/dt'.  Time is normalized as
t' = t / (2 * Gamma) in the units of ``lambda_control.model``, the natural
clock of the slow dynamics:

    dx/dt' = -(x + 1) + 2 u y
    dy/dt' = -2 u x - y
    dtheta/dt' = u

Both systems are linear, (x, y, theta) in (x, y, theta, 1), so their
integrators step a batched generator of each through the full model's RK4
transition-matrix sampler.  The dark/bright transform that links the two,
and stage-form copies of both right-hand sides, live with the tests
(tests/oracles.py), which check the integrators against them.  The
integrators check their duration and step count with the model's argument
checks, which raise a ValueError naming the argument, and raise
IntegrationError at the first non-finite sample.

This reduction is valid for symmetric decay only (gamma_diff = 0); the
asymmetric system is handled exclusively by the full model.  Validity
improves with Gamma/omega0 (use >= 10 as a practical guide); nothing is
enforced beyond symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (SystemParams, _checked_count, _checked_duration,
                    _initial_array, _sample_transitions)

__all__ = [
    "ReducedState",
    "normalize_time",
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


def _adiabatic_generator(theta, params: SystemParams) -> np.ndarray:
    """Generator G(theta) of (rho11, rho33, rho13), batched over theta like
    ``model.system_matrix``: shape S + (3, 3).  With nu = 1 / (2 Gamma),
    the slow derivatives after eliminating the fast block are

        drho11/dt = nu (-sin^2 theta rho11 + cos^2 theta rho33) = -drho33/dt
        drho13/dt = -nu (rho13 + sin theta cos theta (rho11 + rho33))

    so rho11 + rho33 is conserved exactly."""
    theta = np.asarray(theta, dtype=float)
    nu = 1.0 / (2.0 * params.gamma_total)
    sin, cos = np.sin(theta), np.cos(theta)
    G = np.zeros(theta.shape + (3, 3))
    G[..., 0, 0] = -nu * sin * sin
    G[..., 0, 1] = nu * cos * cos
    G[..., 1, :2] = -G[..., 0, :2]
    G[..., 2, 0] = G[..., 2, 1] = -nu * sin * cos
    G[..., 2, 2] = -nu
    return G


def _reduced_generator(u) -> np.ndarray:
    """Generator of (x, y, theta, 1) for angle velocity u, batched over u:
    its first three rows applied to (x, y, theta, 1) give the derivatives of
    the module docstring, and its last row is zero, so the homogeneous
    coordinate stays 1."""
    u = np.asarray(u, dtype=float)
    G = np.zeros(u.shape + (4, 4))
    G[..., 0, 0] = G[..., 0, 3] = G[..., 1, 1] = -1.0
    G[..., 0, 1] = 2.0 * u
    G[..., 1, 0] = -2.0 * u
    G[..., 2, 3] = u
    return G


def normalize_time(t: float, params: SystemParams) -> float:
    """Model time -> normalized time t' = t / (2 Gamma)."""
    return t / (2.0 * params.gamma_total)


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
