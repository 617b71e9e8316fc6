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

This reduction is valid for symmetric decay only (gamma_diff = 0); the
asymmetric system is handled exclusively by the full model.  Validity
improves with Gamma/omega0 (use >= 10 as a practical guide); nothing is
enforced beyond symmetry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import SystemParams

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


def _require_steps(n_steps):
    if (isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral)
            or n_steps < 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")


def _rk4_march(f, state: np.ndarray, h: float, n: int):
    """Classical RK4 for ds/dt = f(t, s): yields the state after each step.

    Step i (0 <= i < n) starts at t = i * h.
    """
    for i in range(n):
        t = i * h
        k1 = f(t, state)
        k2 = f(t + 0.5 * h, state + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, state + 0.5 * h * k2)
        k4 = f(t + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield state


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
    mixing angle.  Returns (times, states) with states of shape
    (n_steps + 1, 3) ordered (rho11, rho33, rho13).
    """
    _require_steps(n_steps)
    _require_symmetric(params)

    def f(t, s):
        return np.array(rhs_adiabatic(s[0], s[1], s[2], float(theta_fn(t)),
                                      params))

    times = np.linspace(0.0, T, n_steps + 1)
    states = np.empty((n_steps + 1, 3))
    states[0] = (1.0, 0.0, 0.0)
    march = _rk4_march(f, states[0], T / n_steps, n_steps)
    for i, s in enumerate(march, 1):
        states[i] = s
    return times, states


def integrate_reduced(u_fn, tprime: float, n_steps: int,
                      state0=(-1.0, 0.0, 0.0)):
    """RK4 integration of the (x, y, theta) system in normalized time.

    u_fn maps normalized time to the angle velocity u.  Returns
    (times, states) with states of shape (n_steps + 1, 3).
    """
    _require_steps(n_steps)

    def f(t, s):
        return rhs_reduced(s, float(u_fn(t)))

    times = np.linspace(0.0, tprime, n_steps + 1)
    states = np.empty((n_steps + 1, 3))
    states[0] = state0
    march = _rk4_march(f, states[0], tprime / n_steps, n_steps)
    for i, s in enumerate(march, 1):
        states[i] = s
    return times, states
