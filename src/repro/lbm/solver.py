"""Single-domain LBM solver.

Implements the two-step algorithm the paper describes (Section 3): a local
BGK collision and a streaming step that moves populations between
neighbouring lattice nodes, with half-way bounce-back at walls and
equilibrium inlet/outlet conditions.  The distributed solver
(:mod:`repro.lbm.distributed`) reproduces this solver's results exactly
across ranks — that equivalence is a core validation test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from ..core.errors import ConfigError
from ..core.kernels import Workspace, collide_prefix
from ..core.lattice import Lattice, get_lattice
from ..geometry.flags import INLET, OUTLET
from ..geometry.voxel import VoxelGrid
from ..runtime.executor import EXECUTOR_KINDS
from ..telemetry.metrics import get_registry
from .bgk import BGKCollision
from .boundary import PressureOutlet, VelocityInlet
from .moments import density as _density
from .moments import velocity as _velocity
from .stream import Connectivity, StepPlan

__all__ = ["SolverConfig", "Solver", "validate_tier", "validate_model_tier"]

_BACKENDS = ("numpy", "compiled", "compiled-serial", "compiled-parallel")


def validate_tier(executor: str, sanitize: bool, backend: str) -> None:
    """Reject an execution-tier cell no solver can run.

    The one check :class:`SolverConfig` and
    :class:`~repro.harvey.config.HarveyConfig` share, so a bad cell
    fails at config construction, before any geometry or plan is built.
    """
    if executor not in EXECUTOR_KINDS:
        raise ConfigError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTOR_KINDS)}"
        )
    if backend not in _BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(_BACKENDS)}"
        )
    if backend != "numpy" and sanitize:
        raise ConfigError(
            "sanitize=True requires backend='numpy': fast-math code "
            "generation breaks the NaN-canary protocol"
        )


def validate_model_tier(config: "SolverConfig") -> None:
    """Reject a configuration a programming-model provider cannot run.

    The solvers' ``model`` / ``models`` keyword *is* the kernel provider,
    so it excludes a compiled ``backend`` (two providers) and
    ``sanitize`` (a model may hand out compiled kernels, which break the
    NaN-canary protocol)."""
    if config.backend != "numpy":
        raise ConfigError(
            f"backend={config.backend!r} and a programming model are two "
            "kernel providers; a model-driven solver needs backend='numpy'"
        )
    if config.sanitize:
        raise ConfigError(
            "sanitize=True requires the inline NumPy kernels; it cannot "
            "run with a programming model as the kernel provider"
        )


@dataclass
class SolverConfig:
    """Physical and numerical parameters of a run.

    Attributes
    ----------
    tau:
        BGK relaxation time (> 0.5).
    force:
        Optional uniform body force (drives periodic channel flow).
    rho0:
        Reference density for initialisation and open boundaries.
    inlet_velocity:
        Constant 3-vector or callable ``t -> 3-vector`` for inlet nodes.
    periodic:
        Per-axis periodicity of the lattice.
    lattice:
        Velocity-set name (default D3Q19, as in HARVEY).
    executor:
        How the distributed solver runs rank phases, one of
        :data:`~repro.runtime.executor.EXECUTOR_KINDS`: ``"lockstep"``
        (serial, the default) or ``"process"`` (persistent forked worker
        processes over shared-memory buffers and ring transports — true
        multicore rank parallelism; requires a platform with the POSIX
        fork start method).  Ignored by the single-domain solver.
    overlap:
        Run the distributed step as the interior/frontier pipeline with
        a packed cross-link halo exchange posted before interior
        streaming (bit-identical to the barrier schedule).  Ignored by
        the single-domain solver.
    sanitize:
        Run the runtime sanitizer (:mod:`repro.lbm.sanitize`): NaN
        canaries in ghost columns and ghost/payload epoch tracking.
        Costly; intended for tests and debugging.
    backend:
        Kernel execution tier: ``"numpy"`` (default, the reference
        vectorised kernels) or a compiled variant — ``"compiled"``
        (parallel when the provider can thread, serial otherwise),
        ``"compiled-serial"``, ``"compiled-parallel"`` — executing the
        StepPlan IR through :mod:`repro.models.compiled` (numba or
        generated C).  Compiled backends are incompatible with
        ``sanitize`` (fastmath code generation assumes no NaNs, which
        breaks the sanitizer's NaN-canary protocol).
    fastmath:
        Allow fast-math code generation in compiled backends
        (``-ffast-math`` / numba ``fastmath=True``).  Reassociation
        breaks bit-for-bit reproducibility against the NumPy kernels;
        disable for the exact-mode equivalence band.  Ignored by the
        NumPy backend.
    stall_timeout_s:
        Heartbeat age (seconds) past which the process executor's
        telemetry plane declares a silent worker rank stalled and
        raises a rank-attributed :class:`~repro.core.errors.StallError`
        instead of hanging.  Ignored by in-process executors.
    postmortem_out:
        Optional path the telemetry plane writes a postmortem JSON
        bundle to on worker death, sanitizer failure, or stall
        (rendered by ``repro telemetry postmortem``).  Ignored by
        in-process executors.
    """

    tau: float = 0.8
    force: Optional[Union[Tuple[float, float, float], np.ndarray]] = None
    rho0: float = 1.0
    inlet_velocity: Optional[
        Union[Tuple[float, float, float], Callable[[float], np.ndarray]]
    ] = None
    periodic: Tuple[bool, bool, bool] = (False, False, False)
    lattice: str = "D3Q19"
    collision: str = "bgk"
    mrt_ghost_rate: float = 1.2
    executor: str = "lockstep"
    overlap: bool = False
    sanitize: bool = False
    backend: str = "numpy"
    fastmath: bool = True
    stall_timeout_s: float = 60.0
    postmortem_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.stall_timeout_s <= 0:
            raise ConfigError(
                "stall_timeout_s must be positive (seconds before the "
                "telemetry plane declares a silent worker stalled)"
            )
        if self.collision not in ("bgk", "trt", "mrt"):
            raise ConfigError(
                f"unknown collision {self.collision!r}; "
                "expected 'bgk', 'trt' or 'mrt'"
            )
        validate_tier(self.executor, self.sanitize, self.backend)
        if self.collision == "mrt" and self.lattice != "D3Q19":
            raise ConfigError("MRT collision is implemented for D3Q19")
        if self.tau <= 0.5:
            raise ConfigError(
                f"tau must exceed 0.5 for stability, got {self.tau}"
            )
        if self.rho0 <= 0:
            raise ConfigError("rho0 must be positive")
        if self.force is not None:
            self.force = np.asarray(self.force, dtype=np.float64)
            if self.force.shape != (3,):
                raise ConfigError("force must be a 3-vector")

    def make_lattice(self) -> Lattice:
        return get_lattice(self.lattice)

    def make_collision(self):
        if self.collision == "mrt":
            from .mrt import MRTCollision

            return MRTCollision(
                self.tau, ghost_rate=self.mrt_ghost_rate, force=self.force
            )
        if self.collision == "trt":
            from .trt import TRTCollision

            return TRTCollision(self.tau, force=self.force)
        return BGKCollision(self.tau, self.force)


class Solver:
    """Single-domain solver over a flagged voxel grid.

    Kernels come from one of three providers: the inline NumPy bodies
    (default), :class:`~repro.models.compiled.CompiledKernels`
    (``config.backend``), or a programming model passed as ``model``
    (:meth:`~repro.models.base.ProgrammingModel.make_kernels`), in which
    case ``f`` lives in the model's device space."""

    def __init__(
        self, grid: VoxelGrid, config: SolverConfig, model=None
    ) -> None:
        if model is not None:
            validate_model_tier(config)
        self.model = model
        self.grid = grid
        self.config = config
        self.lattice = config.make_lattice()
        self.collision = config.make_collision()
        self.connectivity = Connectivity(
            grid, self.lattice, periodic=config.periodic
        )
        self.coords = self.connectivity.coords
        self.index_map = self.connectivity.index_map
        n = self.connectivity.num_nodes
        self.all_ids = np.arange(n, dtype=np.int64)
        self._setup_boundaries()
        u0 = np.zeros((n, 3))
        rho = np.full(n, config.rho0)
        self.f = self.lattice.equilibrium(rho, u0)
        self._f_tmp = np.empty_like(self.f)
        self.step_plan: StepPlan = self.connectivity.step_plan()
        self._workspace = Workspace()
        self._sanitize = bool(config.sanitize)
        if self._sanitize:
            # pre-flight the plan IR (K401/K402) before the first apply
            from ..lint.plancheck import verify_plan

            verify_plan(self.step_plan, context="single-domain plan")
        # kernel provider; None = the inline NumPy bodies
        self._kern: Any = None
        # the compiled provider also runs the pressure outlet; a model
        # launches collide and stream only
        self._compiled_outlet = False
        if model is not None:
            self._kern = model.make_kernels(self.lattice, self.collision)
            # the double buffer is the storage behind two device Views
            self._views = (
                model.upload("f", self.f),
                model.alloc("f_tmp", self.f.shape, self.f.dtype),
            )
            self.f, self._f_tmp = (view.data() for view in self._views)
        elif config.backend != "numpy":
            # deferred import: the compiled tier is optional and the
            # models package imports this module
            from ..models.compiled import CompiledKernels

            self._kern = CompiledKernels(
                self.lattice,
                self.collision,
                backend=config.backend,
                fastmath=config.fastmath,
            )
            self._compiled_outlet = True
        if self._kern is not None:
            self._kern_tables = self._kern.tables(self.step_plan)
        self.time = 0
        self.fluid_updates = 0
        # byte/update counters for the profiling layer, cached once and
        # bumped per step() call (not per iteration) to keep the
        # telemetry-on overhead negligible
        registry = get_registry()
        self._flups_counter = registry.counter("lbm.collide.flups")
        self._stream_bytes_counter = registry.counter(
            "lbm.stream.bytes_gathered"
        )
        self._stream_bytes_per_step = self.step_plan.bytes_per_apply

    def _setup_boundaries(self) -> None:
        cfg = self.config
        flags_at = self.grid.flags[
            self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]
        ]
        inlet_nodes = self.all_ids[flags_at == INLET]
        outlet_nodes = self.all_ids[flags_at == OUTLET]
        self.inlet: Optional[VelocityInlet] = None
        self.outlet: Optional[PressureOutlet] = None
        if inlet_nodes.size:
            if cfg.inlet_velocity is None:
                raise ConfigError(
                    "grid has inlet nodes but no inlet_velocity configured"
                )
            self.inlet = VelocityInlet(
                inlet_nodes, cfg.inlet_velocity, cfg.rho0
            )
        if outlet_nodes.size:
            self.outlet = PressureOutlet(outlet_nodes, cfg.rho0)

    # -- time stepping -----------------------------------------------------
    def step(self, num_steps: int = 1) -> None:
        """Advance ``num_steps`` iterations of collide-stream-boundary.

        A provider runs collide then stream through its kernels; the pair
        beats the one-pass ``fused_step`` on CPU hosts from 16 k nodes up
        (EXPERIMENTS.md), so closed-boundary grids take the same loop as
        open ones."""
        if num_steps < 0:
            raise ConfigError("num_steps must be non-negative")
        kern = self._kern
        n = self.num_nodes
        for _ in range(num_steps):
            if kern is not None:
                kern.collide(self.f, n)
                kern.stream(self.f, self._f_tmp, *self._kern_tables)
            else:
                collide_prefix(
                    self.collision, self.lattice, self.f, n, self._workspace
                )
                self.step_plan.apply(self.f, self._f_tmp)
            self.f, self._f_tmp = self._f_tmp, self.f
            self.time += 1
            if self.inlet is not None:
                self.inlet.apply(self.lattice, self.f, self.time)
            if self.outlet is not None:
                if self._compiled_outlet:
                    kern.outlet(self.f, self.outlet.nodes, self.outlet.rho0)
                else:
                    self.outlet.apply(self.lattice, self.f, self.time)
            if self._sanitize:
                from .sanitize import check_finite

                check_finite(
                    self.f, self.num_nodes, f"step {self.time}"
                )
        if num_steps:
            self.fluid_updates += num_steps * n
            self._flups_counter.inc(num_steps * n)
            self._stream_bytes_counter.inc(
                num_steps * self._stream_bytes_per_step
            )

    # -- observables ---------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.connectivity.num_nodes

    def density(self) -> np.ndarray:
        return _density(self.f)

    def velocity(self) -> np.ndarray:
        force = self.collision.force
        return _velocity(self.lattice, self.f, force)

    def mass(self) -> float:
        return float(self.f.sum())

    def velocity_grid(self) -> np.ndarray:
        """Velocity on the full voxel grid, zeros at solid voxels."""
        out = np.zeros(self.grid.shape + (3,), dtype=np.float64)
        u = self.velocity()
        out[self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]] = u
        return out

    def density_grid(self) -> np.ndarray:
        out = np.zeros(self.grid.shape, dtype=np.float64)
        out[
            self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]
        ] = self.density()
        return out

    def max_velocity(self) -> float:
        return float(np.linalg.norm(self.velocity(), axis=1).max())
