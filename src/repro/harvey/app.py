"""The HARVEY application: the paper's full-scale blood-flow solver.

Mirrors HARVEY's structure (Sections 3 and 10): complex voxelised
geometry, the load-bisection balancer for domain decomposition, pulsatile
velocity inlets, pressure outlets, bounce-back walls, one MPI rank per
logical GPU, and MFLUPS reporting.  The functional run uses the real
distributed LBM; :meth:`HarveyApp.performance_on` prices the same
configuration on a simulated machine at any scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import ConfigError
from ..decomp.bisection import bisection_decompose
from ..decomp.partition import Partition
from ..geometry.registry import build_geometry
from ..geometry.voxel import VoxelGrid
from ..hardware.machine import Machine
from ..lbm.distributed import DistributedSolver
from ..lbm.solver import SolverConfig
from ..perf.simulate import RunCost, price_run
from ..perf.trace import aorta_trace, cylinder_trace
from ..telemetry.spans import get_tracer
from .config import HarveyConfig
from .pulsatile import PulsatileWaveform

__all__ = ["HarveyRunReport", "HarveyApp"]


@dataclass(frozen=True)
class HarveyRunReport:
    """What a HARVEY run reports."""

    workload: str
    num_ranks: int
    steps: int
    fluid_nodes: int
    wall_seconds: float
    mass_drift: float
    max_velocity: float
    comm_bytes: int

    @property
    def mflups(self) -> float:
        if self.wall_seconds <= 0:
            raise ConfigError("run reported no elapsed time")
        return self.fluid_nodes * self.steps / self.wall_seconds / 1e6


class HarveyApp:
    """A configured HARVEY instance."""

    def __init__(self, config: HarveyConfig, tracer=None) -> None:
        self.config = config
        self.tracer = get_tracer() if tracer is None else tracer
        with self.tracer.span("harvey.setup", workload=config.workload):
            self.grid = self._build_grid()
            self.partition = self._decompose()
            self.solver = self._build_solver()

    # -- setup ----------------------------------------------------------------
    def _build_grid(self) -> VoxelGrid:
        cfg = self.config
        return build_geometry(
            cfg.workload, resolution=cfg.resolution, periodic=False
        )

    def _decompose(self) -> Partition:
        return bisection_decompose(self.grid, self.config.num_ranks)

    def _inlet_velocity(self):
        cfg = self.config
        if cfg.waveform is not None:
            return cfg.waveform
        if cfg.workload == "aorta":
            return PulsatileWaveform(peak_velocity=cfg.steady_inlet_speed * 2)
        # steady axial inflow for the axis-aligned capped geometries
        # (cylinder, stenosis, bifurcation, aneurysm all flow along x)
        return (cfg.steady_inlet_speed, 0.0, 0.0)

    def _build_solver(self) -> DistributedSolver:
        solver_cfg = SolverConfig(
            tau=self.config.tau,
            inlet_velocity=self._inlet_velocity(),
            periodic=(False, False, False),
            overlap=self.config.overlap,
            executor=self.config.executor,
            sanitize=self.config.sanitize,
            backend=self.config.backend,
            stall_timeout_s=self.config.stall_timeout_s,
            postmortem_out=self.config.postmortem_out,
        )
        return DistributedSolver(self.partition, solver_cfg, tracer=self.tracer)

    # -- execution ---------------------------------------------------------------
    def run(self, steps: int) -> HarveyRunReport:
        """Advance the simulation and report throughput and health."""
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        mass_before = self.solver.mass()
        t0 = time.perf_counter()
        with self.tracer.span(
            "harvey.run", steps=steps, ranks=self.config.num_ranks
        ):
            self.solver.step(steps)
        wall = time.perf_counter() - t0
        mass_after = self.solver.mass()
        import numpy as np

        vel = self.solver.velocity()
        return HarveyRunReport(
            workload=self.config.workload,
            num_ranks=self.config.num_ranks,
            steps=steps,
            fluid_nodes=self.solver.num_nodes,
            wall_seconds=wall,
            mass_drift=abs(mass_after - mass_before) / mass_before,
            max_velocity=float(np.linalg.norm(vel, axis=1).max()),
            comm_bytes=self.solver.comm.log.total_bytes(),
        )

    def write_postmortem(
        self, path: Optional[str] = None, reason: str = "requested"
    ) -> Optional[str]:
        """Dump the telemetry plane's postmortem bundle (process tier).

        Returns the path written, or None when no plane is attached
        (in-process executors, or ``REPRO_TELEMETRY_PLANE=off``) or no
        path is configured.
        """
        plane = self.solver.plane
        if plane is None:
            return None
        # a plane exists under the process executor only
        bundle = plane.postmortem_bundle(
            reason, rank_states=self.solver.executor.rank_states()
        )
        return plane.save_bundle(bundle, path=path)

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Release solver resources (worker processes, shared segments).

        A no-op for in-process executors; idempotent."""
        self.solver.close()

    def __enter__(self) -> "HarveyApp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- performance projection ---------------------------------------------------
    def performance_on(
        self,
        machine: Machine,
        model_name: Optional[str] = None,
        n_gpus: Optional[int] = None,
        resolution: Optional[float] = None,
    ) -> RunCost:
        """Price this workload on a simulated machine.

        Defaults to the machine's native model and this config's rank
        count/resolution; override to sweep.
        """
        model = model_name or machine.native_model
        ranks = n_gpus or self.config.num_ranks
        res = resolution or self.config.resolution
        if self.config.workload == "aorta":
            trace = aorta_trace(res, ranks, scheme="bisection")
        elif self.config.workload == "cylinder":
            trace = cylinder_trace(
                res, ranks, scheme="bisection", with_caps=True
            )
        else:
            raise ConfigError(
                "the trace layer models the paper's workloads only; "
                f"cannot project {self.config.workload!r} performance"
            )
        return price_run(trace, machine, model, "harvey")

    def load_balance(self) -> Dict[str, float]:
        """Decomposition quality metrics."""
        return {
            "imbalance": self.partition.imbalance,
            "max_halo": float(self.partition.max_halo()),
            "ranks": float(self.partition.num_ranks),
        }
