"""The run shell: HARVEY, and its proxy as one more workload.

Mirrors HARVEY's structure (Sections 3 and 10): complex voxelised
geometry, the load-bisection balancer for domain decomposition, pulsatile
velocity inlets, pressure outlets, bounce-back walls, one MPI rank per
logical GPU, and MFLUPS reporting.  What the proxy changes about that is
a row of :func:`repro.workloads.workload_table`, so this is the only code
that turns a config into a distributed solver.  The functional run uses
the real LBM; :meth:`HarveyApp.performance_on` prices the same
configuration on a simulated machine at any scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.errors import ConfigError
from ..decomp import decompose
from ..geometry.registry import build_geometry
from ..hardware.machine import Machine
from ..lbm.distributed import DistributedSolver
from ..perf.efficiency import mflups
from ..perf.simulate import RunCost, price_run
from ..perf.trace import trace_for
from ..telemetry.spans import get_tracer
from ..workloads import workload_table
from .config import HarveyConfig

__all__ = ["RunReport", "HarveyApp"]


@dataclass(frozen=True)
class RunReport:
    """What a run of the shell reports, whatever the workload."""

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
        return mflups(self.fluid_nodes * self.steps, self.wall_seconds)


class HarveyApp:
    """A configured run: grid, partition and solver of one workload."""

    def __init__(self, config: HarveyConfig, tracer=None) -> None:
        self.config = config
        self.preset = workload_table()[config.workload]
        self.tracer = get_tracer() if tracer is None else tracer
        with self.tracer.span(
            f"{self.preset.app}.setup", workload=config.workload
        ):
            self.grid = build_geometry(
                self.preset.geometry,
                resolution=config.resolution,
                periodic=self.preset.periodic,
            )
            self.partition = decompose(
                self.grid, config.num_ranks, self.preset.scheme
            )
            self.solver = DistributedSolver(
                self.partition, config.solver_config(), tracer=self.tracer
            )

    # -- execution ---------------------------------------------------------------
    def run(self, steps: int) -> RunReport:
        """Advance the simulation and report throughput and health."""
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        mass_before = self.solver.mass()
        t0 = time.perf_counter()
        with self.tracer.span(
            f"{self.preset.app}.run", steps=steps, ranks=self.config.num_ranks
        ):
            self.solver.step(steps)
        wall = time.perf_counter() - t0
        mass_after = self.solver.mass()
        vel = self.solver.velocity()
        return RunReport(
            workload=self.config.workload,
            num_ranks=self.config.num_ranks,
            steps=steps,
            fluid_nodes=self.solver.num_nodes,
            wall_seconds=wall,
            mass_drift=abs(mass_after - mass_before) / mass_before,
            max_velocity=float(np.linalg.norm(vel, axis=1).max()),
            comm_bytes=self.solver.comm.log.total_bytes(),
        )

    def write_postmortem(self, reason: str = "requested") -> Optional[str]:
        """Dump the telemetry plane's postmortem bundle (process tier).

        Returns the path written, or None when no plane is attached
        (in-process executors, or ``REPRO_TELEMETRY_PLANE=off``) or no
        ``postmortem_out`` path is configured.
        """
        plane = self.solver.plane
        if plane is None:
            return None
        # a plane exists under the process executor only
        bundle = plane.postmortem_bundle(
            reason, rank_states=self.solver.executor.rank_states()
        )
        return plane.save_bundle(bundle)

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
        count/resolution; override to sweep.  The trace layer models the
        paper's workloads only (``PerfModelError`` for the rest).
        """
        model = model_name or machine.native_model
        ranks = n_gpus or self.config.num_ranks
        res = resolution or self.config.resolution
        app = self.preset.app
        trace = trace_for(self.preset.geometry, app, res, ranks)
        return price_run(trace, machine, model, app)

    def load_balance(self) -> Dict[str, float]:
        """Decomposition quality metrics."""
        return {
            "imbalance": self.partition.imbalance,
            "max_halo": float(self.partition.max_halo()),
            "ranks": float(self.partition.num_ranks),
        }
