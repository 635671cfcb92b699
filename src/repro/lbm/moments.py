"""Macroscopic moments, conserved-quantity accounting, and the analytic
profiles used to validate the solver's physics."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import ConfigError
from ..core.lattice import Lattice

__all__ = [
    "density",
    "velocity",
    "total_momentum",
    "poiseuille_pipe_profile",
    "poiseuille_pipe_max_velocity",
]


def density(f: np.ndarray) -> np.ndarray:
    """Per-node density: zeroth moment."""
    return f.sum(axis=0)


def velocity(
    lattice: Lattice,
    f: np.ndarray,
    force: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-node velocity ``(n, 3)``; force-shifted under Guo forcing."""
    rho = f.sum(axis=0)
    mom = np.tensordot(lattice.cf, f, axes=(0, 0)).T
    if force is not None:
        mom = mom + 0.5 * np.asarray(force, dtype=np.float64)[None, :]
    return mom / rho[:, None]


def total_momentum(lattice: Lattice, f: np.ndarray) -> np.ndarray:
    """Domain momentum 3-vector (bare, without force shift)."""
    return np.tensordot(lattice.cf, f, axes=(0, 0)).sum(
        axis=1
    )


def poiseuille_pipe_max_velocity(
    force: float, radius: float, viscosity: float, rho: float = 1.0
) -> float:
    """Centreline velocity of force-driven pipe flow: ``g R^2 / (4 nu)``
    with acceleration ``g = force / rho``."""
    if radius <= 0 or viscosity <= 0 or rho <= 0:
        raise ConfigError("radius, viscosity and rho must be positive")
    return force / rho * radius**2 / (4.0 * viscosity)


def poiseuille_pipe_profile(
    r: np.ndarray,
    force: float,
    radius: float,
    viscosity: float,
    rho: float = 1.0,
) -> np.ndarray:
    """Axial velocity at radial positions ``r`` of steady pipe flow driven
    by a uniform body force: ``u(r) = g (R^2 - r^2) / (4 nu)``."""
    umax = poiseuille_pipe_max_velocity(force, radius, viscosity, rho)
    r = np.asarray(r, dtype=np.float64)
    prof = umax * (1.0 - (r / radius) ** 2)
    return np.where(np.abs(r) <= radius, prof, 0.0)

