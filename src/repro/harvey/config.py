"""HARVEY application configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigError
from ..lbm.solver import validate_tier
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
    stall_timeout_s: float = 60.0
    postmortem_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in workload_table():
            raise ConfigError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{', '.join(workload_table())}"
            )
        # every bound below is a comparison, which NaN passes silently
        for name in ("resolution", "tau", "stall_timeout_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if self.resolution <= 0:
            raise ConfigError("resolution must be positive")
        if self.num_ranks < 1:
            raise ConfigError("num_ranks must be >= 1")
        if self.tau <= 0.5:
            raise ConfigError("tau must exceed 0.5")
        if not 0 < self.steady_inlet_speed <= 0.3:
            raise ConfigError("steady inlet speed must be in (0, 0.3]")
        # fail before HarveyApp builds geometry and decomposes it
        validate_tier(self.executor, self.sanitize, self.backend)
        if self.stall_timeout_s <= 0:
            raise ConfigError("stall_timeout_s must be positive")
