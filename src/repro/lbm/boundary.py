"""Boundary conditions.

Walls use half-way bounce-back, folded into the streaming plan (the
"nodal bounce" applied to the channel wall points — Section 3.2, ref. [2]
of the paper).  Open boundaries use the robust equilibrium scheme: after
streaming, inlet nodes are reset to equilibrium at a prescribed (possibly
time-dependent, e.g. pulsatile) velocity, and outlet nodes to equilibrium
at a reference density with the locally observed velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..core.errors import ConfigError
from ..core.lattice import Lattice

__all__ = ["VelocityInlet", "PressureOutlet", "outlet_equilibrium"]

VelocityProvider = Union[
    np.ndarray, Callable[[float], np.ndarray]
]


@dataclass
class VelocityInlet:
    """Equilibrium velocity inlet.

    ``velocity`` is either a constant 3-vector or a callable of the
    simulation time (in steps) returning one — the pulsatile waveform of
    the aorta workload plugs in here.
    """

    nodes: np.ndarray
    velocity: VelocityProvider
    rho0: float = 1.0

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        if self.rho0 <= 0:
            raise ConfigError("inlet reference density must be positive")
        if not callable(self.velocity):
            vel = np.asarray(self.velocity, dtype=np.float64)
            if vel.shape != (3,):
                raise ConfigError("inlet velocity must be a 3-vector")
            self.velocity = vel
        # every inlet node shares one velocity, so the equilibrium is one
        # (q, 1) column broadcast over the nodes — bit-identical to the
        # (q, m) block (pinned in tests/lbm/test_components.py);
        # under a constant velocity it is computed once, per lattice
        self._rho = np.full(1, float(self.rho0))
        self._feq: Optional[Tuple[Lattice, np.ndarray]] = None

    def velocity_at(self, time: float) -> np.ndarray:
        if callable(self.velocity):
            vel = np.asarray(self.velocity(time), dtype=np.float64)
            if vel.shape != (3,):
                raise ConfigError(
                    "inlet velocity provider must return a 3-vector"
                )
            return vel
        return self.velocity

    def apply(self, lattice: Lattice, f: np.ndarray, time: float) -> None:
        if self.nodes.size == 0:
            return
        if callable(self.velocity):
            f[:, self.nodes] = self._equilibrium(lattice, time)
            return
        if self._feq is None or self._feq[0] is not lattice:
            self._feq = (lattice, self._equilibrium(lattice, time))
        f[:, self.nodes] = self._feq[1]

    def _equilibrium(self, lattice: Lattice, time: float) -> np.ndarray:
        """The ``(q, 1)`` equilibrium every inlet node is reset to."""
        return lattice.equilibrium(self._rho, self.velocity_at(time)[None, :])


def outlet_equilibrium(
    lattice: Lattice, f: np.ndarray, nodes: np.ndarray, rho0: float
) -> None:
    """Reset the columns ``nodes`` of ``f`` to the equilibrium at density
    ``rho0`` and each node's own velocity: the one NumPy outlet body."""
    if nodes.size == 0:
        return
    fi = f[:, nodes]
    rho = fi.sum(axis=0)
    u = np.tensordot(lattice.cf, fi, axes=(0, 0)).T / rho[:, None]
    f[:, nodes] = lattice.equilibrium(np.full(nodes.size, float(rho0)), u)


@dataclass
class PressureOutlet:
    """Equilibrium pressure (density) outlet.

    Resets outlet nodes to equilibrium at ``rho0`` using the local
    velocity, which lets momentum leave the domain without reflecting.
    """

    nodes: np.ndarray
    rho0: float = 1.0

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        if self.rho0 <= 0:
            raise ConfigError("outlet reference density must be positive")

    def apply(self, lattice: Lattice, f: np.ndarray, time: float) -> None:
        outlet_equilibrium(lattice, f, self.nodes, self.rho0)
