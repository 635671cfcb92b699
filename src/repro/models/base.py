"""The programming-model interface and the generic LBM model engine.

Every backend (CUDA, HIP, SYCL, Kokkos, Kokkos-OpenACC) implements the
narrow :class:`ProgrammingModel` surface — allocate device storage, copy
between host and device, launch a data-parallel kernel — using its own
idioms.  The :class:`ModelEngine` then runs the *same* collide/stream
kernel bodies (from :mod:`repro.core.kernels`) through any backend, which
is precisely the porting structure the paper evaluates: one algorithm,
five programming surfaces, identical physics.

The engine validates against :class:`repro.lbm.solver.Solver` exactly
(same floating-point operations in the same order per node).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.errors import ConfigError, ModelError
from ..core.kernels import (
    Workspace,
    bgk_collide_kernel,
    fused_stream_body_kernel,
)
from ..core.lattice import Lattice
from ..core.views import View
from ..geometry.voxel import VoxelGrid
from ..lbm.boundary import PressureOutlet, VelocityInlet
from ..lbm.solver import SolverConfig
from ..lbm.stream import Connectivity
from ..geometry.flags import INLET, OUTLET
from .device import SimulatedDevice

__all__ = ["ProgrammingModel", "ModelEngine"]

KernelBody = Callable[[np.ndarray], None]


class ProgrammingModel(abc.ABC):
    """Abstract programming model over a simulated device."""

    #: short identifier, e.g. ``"cuda"`` or ``"kokkos-sycl"``
    name: str = "abstract"
    #: name shown in reports, e.g. ``"Kokkos OpenACC"``
    display_name: str = "abstract"
    #: True when a porting tool (DPCT/HIPify) produced the port
    tool_assisted: bool = False

    def __init__(self, device: Optional[SimulatedDevice] = None) -> None:
        self.device = device if device is not None else SimulatedDevice()

    # -- backend surface ----------------------------------------------------
    @abc.abstractmethod
    def alloc(self, label: str, shape: Tuple[int, ...], dtype=np.float64) -> View:
        """Allocate device storage."""

    @abc.abstractmethod
    def to_device(self, dst: View, host: np.ndarray) -> None:
        """Copy host data into a device allocation."""

    @abc.abstractmethod
    def to_host(self, host: np.ndarray, src: View) -> None:
        """Copy a device allocation back to host memory."""

    @abc.abstractmethod
    def launch(self, label: str, n: int, body: KernelBody) -> None:
        """Execute ``body`` data-parallel over ``range(n)``."""

    @abc.abstractmethod
    def synchronize(self) -> None:
        """Wait for outstanding device work."""

    # -- conveniences ----------------------------------------------------------
    def upload(self, label: str, host: np.ndarray) -> View:
        """Allocate-and-copy in one call."""
        view = self.alloc(label, tuple(host.shape), host.dtype)
        self.to_device(view, host)
        return view

    def download(self, src: View) -> np.ndarray:
        host = np.empty(src.shape, dtype=src.dtype)
        self.to_host(host, src)
        return host

    @property
    def launch_count(self) -> int:
        """Number of kernel launches issued (backend-specific counter)."""
        return getattr(self, "_launches", 0)

    def _count_launch(self) -> None:
        self._launches = getattr(self, "_launches", 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} on {self.device.name}>"


class ModelEngine:
    """A single-domain LBM run driven through a programming model.

    Mirrors :class:`repro.lbm.solver.Solver` step for step, but every array
    lives in the backend's device space and every phase goes through the
    backend's launch API.
    """

    def __init__(
        self,
        grid: VoxelGrid,
        config: SolverConfig,
        model: ProgrammingModel,
    ) -> None:
        self.grid = grid
        self.config = config
        self.model = model
        self.lattice: Lattice = config.make_lattice()
        self.collision = config.make_collision()
        self.connectivity = Connectivity(
            grid, self.lattice, periodic=config.periodic
        )
        n = self.connectivity.num_nodes
        self.num_nodes = n
        coords = self.connectivity.coords
        flags_at = grid.flags[coords[:, 0], coords[:, 1], coords[:, 2]]
        all_ids = np.arange(n, dtype=np.int64)
        inlet_nodes = all_ids[flags_at == INLET]
        outlet_nodes = all_ids[flags_at == OUTLET]
        self.inlet = None
        self.outlet = None
        if inlet_nodes.size:
            if config.inlet_velocity is None:
                raise ConfigError(
                    "grid has inlet nodes but no inlet_velocity configured"
                )
            self.inlet = VelocityInlet(
                inlet_nodes, config.inlet_velocity, config.rho0
            )
        if outlet_nodes.size:
            self.outlet = PressureOutlet(outlet_nodes, config.rho0)
        # constant-density vectors for the open-boundary kernels,
        # hoisted out of the per-step launch bodies
        self._rho_open = np.full(
            max(inlet_nodes.size, outlet_nodes.size, 1), config.rho0
        )

        # device state: distributions (double buffered) + plan indices
        host_f = self.lattice.equilibrium(
            np.full(n, config.rho0), np.zeros((n, 3))
        )
        self.d_f = model.upload("f", host_f)
        self.d_f_tmp = model.alloc("f_tmp", host_f.shape, host_f.dtype)
        # the fused step plan: every (population, node) link as one
        # flat gather index — a single stream launch per step, the
        # same body the reference solver executes
        plan = self.connectivity.step_plan()
        self.d_flat_src = model.upload(
            "stream_flat_src", plan.flat_src.reshape(-1)
        )
        self._workspace = Workspace()
        self.time = 0
        self.fluid_updates = 0
        # launch accounting for the profiling layer, cached once
        from ..telemetry.metrics import get_registry

        self._launch_counter = get_registry().counter("model.launches")

    # -- phases ---------------------------------------------------------------
    def _collide_phase(self) -> None:
        lat = self.lattice
        omega = self.collision.omega
        force = self.collision.force
        f = self.d_f.data()
        ws = self._workspace

        def body(idx: np.ndarray) -> None:
            bgk_collide_kernel(lat, f, idx, omega, force, workspace=ws)

        self.model.launch("collide", self.num_nodes, body)

    def _stream_phase(self) -> None:
        # fused streaming + bounce-back: one launch over all links
        src_flat = self.d_flat_src.data()
        fsrc = self.d_f.data().reshape(-1)
        fdst = self.d_f_tmp.data().reshape(-1)

        def fused(idx: np.ndarray) -> None:
            fused_stream_body_kernel(fsrc, fdst, src_flat, idx)

        self.model.launch("stream_fused", src_flat.size, fused)
        self.d_f, self.d_f_tmp = self.d_f_tmp, self.d_f

    def _boundary_phase(self) -> None:
        f = self.d_f.data()
        rho_open = self._rho_open
        if self.inlet is not None:
            nodes = self.inlet.nodes
            u = np.broadcast_to(
                self.inlet.velocity_at(self.time), (nodes.size, 3)
            )
            lat = self.lattice

            def inlet_body(idx: np.ndarray) -> None:
                sel = nodes[idx]
                f[:, sel] = lat.equilibrium(rho_open[: idx.size], u[idx])

            self.model.launch("inlet", nodes.size, inlet_body)
        if self.outlet is not None:
            nodes = self.outlet.nodes
            lat = self.lattice

            def outlet_body(idx: np.ndarray) -> None:
                sel = nodes[idx]
                fi = f[:, sel]
                rho = fi.sum(axis=0)
                u_loc = np.tensordot(
                    lat.cf, fi, axes=(0, 0)
                ).T / rho[:, None]
                f[:, sel] = lat.equilibrium(rho_open[: idx.size], u_loc)

            self.model.launch("outlet", nodes.size, outlet_body)

    # -- public API ---------------------------------------------------------
    def step(self, num_steps: int = 1) -> None:
        if num_steps < 0:
            raise ModelError("num_steps must be non-negative")
        launches_before = self.model.launch_count
        for _ in range(num_steps):
            self._collide_phase()
            self._stream_phase()
            self.time += 1
            self._boundary_phase()
            self.model.synchronize()
            self.fluid_updates += self.num_nodes
        launched = self.model.launch_count - launches_before
        if launched > 0:
            self._launch_counter.inc(launched)

    def distributions(self) -> np.ndarray:
        """Download the distribution array from the device."""
        return self.model.download(self.d_f)

    def velocity(self) -> np.ndarray:
        from ..lbm.moments import velocity as _velocity

        return _velocity(
            self.lattice, self.distributions(), self.collision.force
        )

    def mass(self) -> float:
        return float(self.distributions().sum())
