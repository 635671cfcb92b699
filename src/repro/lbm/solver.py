"""Run configuration, the tier table, kernel providers, and the
single-domain solver.

The paper's algorithm (Section 3) is a local BGK collision and a
streaming step that moves populations between neighbouring lattice
nodes, with half-way bounce-back at walls and equilibrium inlet/outlet
conditions.  :class:`SolverConfig` holds its parameters and execution
tier, :func:`validate_tier` rejects the cells no solver can run, and
:func:`make_kernels` picks a domain's kernel provider.  HARVEY runs one
MPI rank per GPU, so a single-GPU run is one rank: :class:`Solver` is
the :class:`~repro.lbm.distributed.DistributedSolver` over a one-rank
partition, and every rank count steps through the one declared schedule
of :mod:`repro.lbm.distributed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..core.errors import ConfigError
from ..core.kernels import Workspace, collide_prefix
from ..core.lattice import Lattice, get_lattice
from ..decomp.block import axis_decompose
from ..geometry.voxel import VoxelGrid
from ..runtime.executor import EXECUTOR_KINDS
from ..telemetry.plane import DEFAULT_STALL_TIMEOUT_S
from .bgk import BGKCollision
from .boundary import PressureOutlet, outlet_equilibrium
from .distributed import DistributedSolver
from .stream import StepPlan

__all__ = [
    "SolverConfig",
    "Solver",
    "COMPILED_BACKENDS",
    "validate_tier",
    "NumpyKernels",
    "make_kernels",
]

#: Backend names beyond the NumPy default; ``compiled`` resolves to the
#: parallel variant when the provider can thread, the serial one otherwise.
COMPILED_BACKENDS = ("compiled", "compiled-serial", "compiled-parallel")
_BACKENDS = ("numpy", *COMPILED_BACKENDS)


def validate_tier(
    executor: str, sanitize: bool, backend: str, model: bool = False
) -> None:
    """The tier table: reject an execution cell no solver can run.

    The one check :class:`SolverConfig`,
    :class:`~repro.harvey.config.HarveyConfig` and the solvers' ``model``
    / ``models`` keyword (``model=True``: a programming model is the
    kernel provider) share, so a bad cell fails before any geometry,
    plan or shared segment is built.  Each message names its reason.
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
    if model and backend != "numpy":
        raise ConfigError(
            f"backend={backend!r} and a programming model are two "
            "kernel providers; a model-driven solver needs backend='numpy'"
        )
    if model and sanitize:
        raise ConfigError(
            "sanitize=True requires the inline NumPy kernels; it cannot "
            "run with a programming model as the kernel provider"
        )
    if model and executor == "process":
        raise ConfigError(
            "programming models run under executor='lockstep' only: "
            "their device Views are process-private"
        )
    if backend != "numpy" and sanitize:
        raise ConfigError(
            "sanitize=True requires backend='numpy': fast-math code "
            "generation breaks the NaN-canary protocol"
        )
    if executor == "process" and backend in ("compiled", "compiled-parallel"):
        raise ConfigError(
            f"executor='process' runs backend='compiled-serial', not "
            f"{backend!r}: the forked ranks are its parallelism, and an "
            "OpenMP runtime does not survive the fork"
        )


class NumpyKernels:
    """The reference kernel provider: the NumPy bodies of
    :mod:`repro.core.kernels`.

    Every provider has this surface — ``tables(plan)`` once, then
    ``collide(f, n_nodes)`` on the column prefix ``[0, n_nodes)``,
    ``stream(f_src, f_dst, *tables)``, ``collide_stream(f, f_dst,
    n_nodes, *tables)`` (the two as one step, where nothing runs between
    them) and ``outlet(f, nodes, rho0)`` every step — so the solvers
    never ask which one they hold."""

    def __init__(self, lattice: Lattice, collision) -> None:
        self.lattice = lattice
        self.collision = collision
        self.workspace = Workspace()  # collide scratch, reused every step

    def tables(self, plan: StepPlan) -> Tuple[StepPlan]:
        return (plan,)

    def collide(self, f: np.ndarray, n_nodes: int) -> None:
        collide_prefix(self.collision, self.lattice, f, n_nodes, self.workspace)

    def stream(self, f_src: np.ndarray, f_dst: np.ndarray, plan: StepPlan) -> None:
        plan.apply(f_src, f_dst)

    def collide_stream(
        self, f: np.ndarray, f_dst: np.ndarray, n_nodes: int, *tables
    ) -> None:
        """The reference one-pass step: :meth:`collide`, then
        :meth:`stream` (each provider's own, so a model launches both)."""
        self.collide(f, n_nodes)
        self.stream(f, f_dst, *tables)

    def outlet(self, f: np.ndarray, nodes: np.ndarray, rho0: float) -> None:
        outlet_equilibrium(self.lattice, f, nodes, rho0)


def make_kernels(config: "SolverConfig", lattice: Lattice, collision, model=None):
    """The kernel provider of one domain: the NumPy bodies launched
    through ``model`` (:class:`~repro.models.base.LaunchedKernels`), the
    compiled tier's for a compiled ``config.backend``, or the NumPy one."""
    # deferred imports: the models package imports this module, and the
    # compiled tier is optional
    if model is not None:
        from ..models.base import LaunchedKernels

        return LaunchedKernels(model, lattice, collision)
    if config.backend != "numpy":
        from ..models.compiled import CompiledKernels

        return CompiledKernels(
            lattice, collision, backend=config.backend, fastmath=config.fastmath
        )
    return NumpyKernels(lattice, collision)


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
        multicore rank parallelism; needs the POSIX fork start method,
        NumPy or ``compiled-serial`` kernels and no programming model).
        The single-domain :class:`Solver` is one rank and runs it as
        given.
    overlap:
        Run the distributed step as the interior/frontier pipeline: the
        full-plan gather runs while the packed cross-link exchange is in
        flight, not after it completes (bit-identical to the barrier
        schedule, same payload).  A one-rank
        partition, the single-domain :class:`Solver` included, exchanges
        nothing and runs the one-pass schedule under either setting.
    sanitize:
        Run the runtime sanitizer (:mod:`repro.lbm.sanitize`): NaN
        canaries on the provisional frontier destinations and payload
        epoch tracking.
        Costly; intended for tests and debugging.
    backend:
        Kernel execution tier: ``"numpy"`` (default, the reference
        vectorised kernels) or a compiled variant — ``"compiled"``
        (parallel when the C kernels can thread, serial otherwise),
        ``"compiled-serial"``, ``"compiled-parallel"`` — executing the
        StepPlan IR through :mod:`repro.models.compiled` (generated C
        built by the host compiler).  :func:`validate_tier` rejects
        compiled backends with ``sanitize`` and the OpenMP ones
        (``compiled``, ``compiled-parallel``) with
        ``executor="process"``.
    fastmath:
        Allow fast-math code generation in compiled backends
        (``-ffast-math``).  Reassociation breaks bit-for-bit
        reproducibility against the NumPy kernels; disable for the
        exact-mode equivalence band.  Ignored by the NumPy backend.
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
    executor: str = "lockstep"
    overlap: bool = False
    sanitize: bool = False
    backend: str = "numpy"
    fastmath: bool = True
    stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S
    postmortem_out: Optional[str] = None

    def __post_init__(self) -> None:
        # every bound below is a comparison, which NaN passes silently
        for name in ("tau", "rho0", "stall_timeout_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
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
            if not np.isfinite(self.force).all():
                raise ConfigError(f"force must be finite, got {self.force}")

    def make_lattice(self) -> Lattice:
        return get_lattice(self.lattice)

    def make_collision(self):
        if self.collision == "mrt":
            from .mrt import MRTCollision

            return MRTCollision(self.tau, force=self.force)
        if self.collision == "trt":
            from .trt import TRTCollision

            return TRTCollision(self.tau, force=self.force)
        return BGKCollision(self.tau, self.force)


class Solver(DistributedSolver):
    """The single-domain solver: the
    :class:`~repro.lbm.distributed.DistributedSolver` over a one-rank
    partition.  It runs the one-pass schedule under either ``overlap``,
    ``config.executor`` as given (``"process"`` forks one worker), and
    ``model``, when given, as its kernel provider.  ``f``, ``step_plan``,
    ``all_ids`` and ``outlet`` are views of its rank, whose local
    numbering is the global compact one."""

    def __init__(
        self, grid: VoxelGrid, config: SolverConfig, model=None
    ) -> None:
        super().__init__(
            axis_decompose(grid, 1),
            config,
            models=None if model is None else [model],
        )

    @property
    def f(self) -> np.ndarray:
        """The live ``(q, n)`` distributions (swapped by every step)."""
        self._require_open("its distributions are released")
        return self.ranks[0].f

    @property
    def step_plan(self) -> StepPlan:
        return self.ranks[0].plan.step_plan

    @cached_property
    def all_ids(self) -> np.ndarray:
        return np.arange(self.num_nodes, dtype=np.int64)

    @property
    def outlet(self) -> Optional[PressureOutlet]:
        return self.ranks[0].outlet
