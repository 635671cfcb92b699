"""HARVEY application configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigError
from ..lbm.solver import SolverConfig
from ..telemetry.plane import DEFAULT_STALL_TIMEOUT_S
from ..workloads import workload_table
from .pulsatile import PulsatileWaveform

__all__ = ["HarveyConfig"]


@dataclass
class HarveyConfig:
    """Configuration of a HARVEY run.

    Attributes
    ----------
    workload:
        A row of :func:`repro.workloads.workload_table`: any
        geometry-zoo name (``"aorta"``, ``"cylinder"``, ``"stenosis"``,
        ...) run as HARVEY runs it, or ``"proxy"`` — the paper's periodic
        body-force cylinder, which has no inlet and ignores ``waveform``
        / ``steady_inlet_speed``.
    resolution:
        Aorta: grid spacing in mm.  Other geometries: the refinement
        scale factor (the proxy's ``x``).
    num_ranks:
        MPI ranks (one per logical GPU).
    tau:
        BGK relaxation time.
    waveform:
        Pulsatile inlet waveform (aorta); a steady inlet is synthesised
        for the axis-aligned geometries when none is given.
    steady_inlet_speed:
        Inlet speed when no waveform is supplied.
    overlap:
        Run the distributed step as the overlapped interior/frontier
        pipeline.
    executor:
        Rank-phase executor: ``"lockstep"`` or ``"process"`` (forked
        workers over shared-memory segments; NumPy or compiled-serial).
    sanitize:
        Run with the runtime sanitizer (NaN canaries, epoch tracking —
        see :mod:`repro.lbm.sanitize`) enabled.
    backend:
        Kernel execution backend passed through to
        :class:`~repro.lbm.solver.SolverConfig`: ``"numpy"`` or one of
        the compiled tiers (``"compiled"``, ``"compiled-serial"``,
        ``"compiled-parallel"``); :func:`~repro.lbm.solver.validate_tier`
        names the cells it rejects.
    stall_timeout_s:
        Process-executor heartbeat timeout passed through to
        :class:`~repro.lbm.solver.SolverConfig`.
    postmortem_out:
        Optional path for the telemetry plane's postmortem JSON bundle
        (written on worker death, sanitizer failure, or stall; the CLI
        also writes it on request at end of run).
    """

    workload: str = "aorta"
    resolution: float = 1.0
    num_ranks: int = 4
    tau: float = 0.8
    waveform: Optional[PulsatileWaveform] = None
    steady_inlet_speed: float = 0.02
    overlap: bool = False
    executor: str = "lockstep"
    sanitize: bool = False
    backend: str = "numpy"
    stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S
    postmortem_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in workload_table():
            raise ConfigError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{', '.join(workload_table())}"
            )
        # NaN passes the bound below silently
        if not math.isfinite(self.resolution):
            raise ConfigError(
                f"resolution must be finite, got {self.resolution}"
            )
        if self.resolution <= 0:
            raise ConfigError("resolution must be positive")
        if self.num_ranks < 1:
            raise ConfigError("num_ranks must be >= 1")
        if not 0 < self.steady_inlet_speed <= 0.3:
            raise ConfigError("steady inlet speed must be in (0, 0.3]")
        # the solver's own checks (tau, stall_timeout_s, the tier table)
        # fail here, before HarveyApp builds geometry and decomposes it
        self.solver_config()

    def solver_config(self) -> SolverConfig:
        """The :class:`~repro.lbm.solver.SolverConfig` this run steps
        under: the workload's force, walls and inlet, and the fields the
        two configs share."""
        preset = workload_table()[self.workload]
        if preset.periodic:
            inlet = None  # no caps: the preset's body force drives the flow
        elif self.waveform is not None:
            inlet = self.waveform
        elif self.workload == "aorta":
            inlet = PulsatileWaveform(peak_velocity=self.steady_inlet_speed * 2)
        else:
            # steady axial inflow for the axis-aligned capped geometries
            # (cylinder, stenosis, bifurcation, aneurysm all flow along x)
            inlet = (self.steady_inlet_speed, 0.0, 0.0)
        return SolverConfig(
            tau=self.tau,
            force=preset.force,
            inlet_velocity=inlet,
            periodic=(preset.periodic, False, False),
            overlap=self.overlap,
            executor=self.executor,
            sanitize=self.sanitize,
            backend=self.backend,
            stall_timeout_s=self.stall_timeout_s,
            postmortem_out=self.postmortem_out,
        )
