"""Simulation, analytic optimal control and pulse optimization for a
dissipative three-level lambda system under a shared pump/Stokes amplitude
budget.

The package root re-exports the names of the README's library example;
everything else is imported from its module (model, reduced, analytic,
optimizer, cli)."""

from .analytic import pumping_efficiency
from .model import SystemParams, integrate_full, optical_pumping_control
from .optimizer import OptimizationConfig, optimize

__version__ = "0.1.0"

__all__ = [
    "OptimizationConfig",
    "SystemParams",
    "integrate_full",
    "optical_pumping_control",
    "optimize",
    "pumping_efficiency",
]
