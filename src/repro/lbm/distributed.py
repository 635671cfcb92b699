"""The LBM solver: ranks over a simulated MPI communicator.

One rank per logical GPU, as in the paper, and a single-GPU run is one
rank: the single-domain :class:`~repro.lbm.solver.Solver` is this solver
over a one-rank partition, so every rank count runs the one step loop
below.  The decomposition arrives as
frozen :class:`~repro.lbm.rankplan.RankPlan` tables (ownership, gather
table, exchange pair); this module verifies them,
*instantiates* them — buffers, boundary objects, kernel providers,
transport — and runs them.  An iteration is a fixed sequence of
phases **declared as data** — :class:`Phase` records (span, body method,
rank buffers read and written, whether it ends in the double-buffer swap)
in :data:`BARRIER_SCHEDULE` / :data:`OVERLAP_SCHEDULE` /
:data:`ONE_PASS_SCHEDULE`, picked by :func:`schedule_for` — and executed
by the one loop behind :meth:`DistributedSolver.step`.  The
bulk-synchronous barrier schedule:

1. collide on owned nodes;
2. post the halo exchange — every rank packs and sends only the
   post-collision populations its neighbours' halo-reading links stream
   across the boundary (the "5 of 19 directions" exchange the paper's
   performance model prices);
3. complete it into per-neighbour staging buffers;
4. pull-stream the full plan into the double buffer — interior columns
   are final, frontier columns are provisional where their halo-sourced
   links gather a placeholder (a rank's buffers hold its owned nodes
   only);
5. scatter the frontier — the staged payloads land on ``recv_flat``, the
   halo-sourced link destinations, finalising exactly the provisional
   values; then swap the double buffer;
6. inlet/outlet boundary conditions on owned nodes.

The result is *identical* at every rank count — the conformance matrix
asserts exact agreement with a per-population reference stepper — while
the communicator's event log captures the halo-exchange traffic the
performance layer prices.
The declaration is the single source the other encoders read: the K405
phase-order walk (:func:`repro.lint.plancheck.check_phase_order`)
checks it, both executors run it through their one ``run_step``
contract, and :meth:`DistributedSolver.phase_bytes_per_step` is keyed by
its span names.

A one-rank partition has no halo links and nothing to exchange, so
nothing runs between collide and stream: it declares one phase doing
both, then the boundary phase (under either ``overlap`` setting).  A
compiled provider runs that phase as the one-pass kernel over the plan's
tile table; ranks that exchange keep the pair, because the exchange post
reads the collided ``f``.

Overlapped pipeline
-------------------
``SolverConfig(overlap=True)`` runs the same bodies in the
interior/frontier order production LBM codes (HARVEY included) use to
hide halo exchange behind interior compute: the full-plan gather moves
between the exchange post and its completion, under the ``interior``
span.  ``overlap`` decides nothing else — the exchange format, its
payload bytes and the frontier scatter are the same on both schedules.

Phases from the post through the completion run inside an
``overlap_window`` span, derived from the declaration (exchange post
through completion, when compute is scheduled between them) and rebuilt
on both tiers from the per-rank phase intervals ``run_step`` returns:
first post begun to last completion done.  Because pull-streaming writes
the double buffer and never reads what the frontier scatter writes, the
two schedules are bit-for-bit identical — pinned by
``tests/lbm/test_conformance.py``.

Executors and the halo transport
--------------------------------
``SolverConfig.executor`` picks how ranks run the schedule:
``"lockstep"`` serially, phase-major with a barrier after every phase —
an in-process ``SimComm`` receive raises on an empty queue, so it must;
``"process"`` on persistent forked workers
(:mod:`repro.runtime.procexec`) for true multicore parallelism.  That
choice never reaches the phase bodies: the exchange bodies stage through
preallocated per-neighbour buffers and talk to one halo transport, chosen
once at construction, through ``send(src, dst, buf, tag)`` /
``recv_into(dst, src, out, tag)`` only — the
:class:`~repro.runtime.simmpi.SimComm` queues in-process, the per-pair
shared-memory :class:`~repro.runtime.shmem.RingTransport` under
``"process"`` (:class:`~repro.runtime.mpicomm.MPIComm` offers the same two
calls).  The kernels come from one provider per rank the same way
(:func:`~repro.lbm.solver.make_kernels`: NumPy,
:class:`~repro.models.compiled.CompiledKernels`, or per-rank programming
``models``, whose host-staged variant wraps the transport) — neither
choice changes the schedule.

:meth:`DistributedSolver.step` is one loop that calls ``run_step`` once
per iteration on either tier.  The process tier is **rank-resident**, as
the paper's one-MPI-rank-per-GPU code is: one iteration is one dispatch —
one pipe message and one ack per rank — and each worker runs its rank
through the whole declared schedule, meeting its neighbours only in the
halo exchange.  The ordering is per-rank program order plus the rings'
happens-before (``pop_into`` blocks on an empty ring, ``push`` on a full
one); ranks skew by at most one step, inside the ring capacity of 2, and
every other buffer is rank-private.  The ``f`` double buffer lives in
:mod:`repro.runtime.shmem` segments so workers mutate the pages the
parent observes.  The parent keeps the per-iteration loop — ``step``
span, SimComm for collectives and the event log (ring traffic is logged
per step from the static wiring), sanitizer brackets — ships the step
number with the dispatch, and after the ack mirrors the workers' buffer
swap.  ``time`` advances once per step on both tiers.  Physics stays
bit-for-bit equal to lockstep — pinned by
``tests/lbm/test_conformance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigError, RuntimeSimError
from ..decomp.partition import Partition
from .boundary import PressureOutlet, VelocityInlet
from .moments import density as _density
from .moments import velocity as _velocity
from .rankplan import RankPlan, build_rank_plans
from ..runtime.events import CommEvent
from ..runtime.executor import Timings, make_executor
from ..runtime.shmem import RingTransport, SegmentRegistry
from ..runtime.simmpi import SimComm
from ..telemetry.metrics import get_registry
from ..telemetry.spans import SpanRecord, get_tracer

if TYPE_CHECKING:
    from .solver import SolverConfig

__all__ = [
    "Phase",
    "BARRIER_SCHEDULE",
    "OVERLAP_SCHEDULE",
    "ONE_PASS_SCHEDULE",
    "schedule_for",
    "RankState",
    "DistributedSolver",
]

#: Message tag of the halo exchange (the tag the S301-S305 schedule
#: pre-flight checks).
HALO_TAG = 1


@dataclass(frozen=True)
class Phase:
    """One phase of the distributed step.

    ``reads`` / ``writes`` name the :class:`RankState` buffers the body
    touches **on its own rank** — no body touches another rank's buffers;
    the halo transport is the only cross-rank channel.  What orders two
    phases depends on the tier:

    * the in-process lockstep executor puts a barrier after every
      phase: every rank finishes a phase before any rank starts the
      next, so accesses in different phases are ordered globally;
    * the process tier runs the schedule rank-resident: each rank
      executes its phases in program order, and the only inter-rank
      edges are the halo rings' happens-before (a completion returns
      after the peer's post; a post waits for a free slot).  Ranks skew
      by at most one step, within the ring capacity of 2.  Because every
      declared buffer is rank-private, that is all the ordering the
      declaration needs — the results are bit-for-bit the same.
    """

    span: str  # telemetry span name (both exchange halves share one)
    body: str  # name of the DistributedSolver method run per rank
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    swaps: bool = False  # ends in the f / f_tmp double-buffer swap


_COLLIDE = Phase("collide", "_phase_collide", ("f",), ("f",))
_POST = Phase("exchange", "_phase_exchange_post", ("f",), ("send_bufs",))
_COMPLETE = Phase("exchange", "_phase_exchange_complete", (), ("recv_bufs",))
_FRONTIER = Phase(
    "frontier", "_phase_stream_frontier", ("recv_bufs",), ("f_tmp",), True
)
_BOUNDARY = Phase("boundary", "_phase_boundary", ("f",), ("f",))

#: Bulk-synchronous schedule: the exchange completes before the
#: full-plan gather starts; the frontier scatter then finalises the
#: halo-sourced destinations from the staged payloads.
BARRIER_SCHEDULE: Tuple[Phase, ...] = (
    _COLLIDE,
    _POST,
    _COMPLETE,
    Phase("stream", "_phase_stream", ("f",), ("f_tmp",)),
    _FRONTIER,
    _BOUNDARY,
)

#: Interior/frontier schedule: the same bodies, with the full-plan gather
#: between the exchange post and its completion.
OVERLAP_SCHEDULE: Tuple[Phase, ...] = (
    _COLLIDE,
    _POST,
    Phase("interior", "_phase_stream", ("f",), ("f_tmp",)),
    _COMPLETE,
    _FRONTIER,
    _BOUNDARY,
)

#: A one-rank partition exchanges nothing, so nothing runs between
#: collide and stream: one phase does both and swaps (a compiled
#: provider runs the one-pass kernel), under the ``stream`` span.
ONE_PASS_SCHEDULE: Tuple[Phase, ...] = (
    Phase("stream", "_phase_collide_stream", ("f",), ("f_tmp",), True),
    _BOUNDARY,
)


def schedule_for(num_ranks: int, overlap: bool) -> Tuple[Phase, ...]:
    """The declared schedule of a ``num_ranks`` partition: the one pass
    for one rank (under either ``overlap`` setting), else the overlapped
    or barrier order of the one exchange.  The solver and the K405 walk
    both ask here."""
    if num_ranks == 1:
        return ONE_PASS_SCHEDULE
    return OVERLAP_SCHEDULE if overlap else BARRIER_SCHEDULE


def _overlap_window(schedule: Sequence[Phase]) -> Optional[Tuple[int, int]]:
    """Indices of the first and last phase of the overlap window.

    The window runs from the exchange post through its completion when
    the declaration schedules compute between them — the phases during
    which communication is hidden; None when the two exchange halves are
    adjacent or the schedule exchanges nothing.
    """
    halves = [i for i, p in enumerate(schedule) if p.span == "exchange"]
    if not halves:
        return None
    first, last = halves[0], halves[-1]
    if last - first + 1 == len(halves):
        return None
    return first, last


def _table_bytes(table: Any) -> int:
    """Bytes of one stream table a provider launches over: an index
    array, or a :class:`~repro.lbm.stream.StepPlan`'s gather table."""
    if isinstance(table, np.ndarray):
        return int(table.nbytes)
    return 8 * table.q * table.num_update


@dataclass
class RankState:
    """One instantiated rank: its frozen plan, its kernel provider and
    the mutable buffers."""

    plan: RankPlan
    f: np.ndarray  # (q, n_owned)
    f_tmp: np.ndarray
    inlet: Optional[VelocityInlet]
    outlet: Optional[PressureOutlet]
    kernels: Any  # the rank's kernel provider (make_kernels)
    tables: Tuple[Any, ...]  # its stream tables for plan.step_plan
    # halo staging, per neighbour: the send buffer ``plan.send_flat``
    # gathers into, the receive buffer ``plan.recv_flat`` scatters from
    send_bufs: Dict[int, np.ndarray]
    recv_bufs: Dict[int, np.ndarray]

    @property
    def rank(self) -> int:
        return self.plan.rank

    @property
    def num_owned(self) -> int:
        return self.plan.num_owned


class DistributedSolver:
    """The solver at any rank count (one rank is
    :class:`repro.lbm.solver.Solver`).

    ``models`` (one programming model per rank) makes the models the
    kernel providers: each rank's ``f`` lives in its model's device space
    and its kernels launch through it.  With ``gpu_aware=False`` the halo
    transport stages every message through the host, recorded on the
    rank's device ledger (:class:`~repro.models.base.HostStagedHalo`).
    """

    def __init__(
        self,
        partition: Partition,
        config: SolverConfig,
        comm: Optional[SimComm] = None,
        tracer=None,
        validate_schedule: bool = True,
        validate_plan: bool = True,
        models: Optional[Sequence[Any]] = None,
        gpu_aware: bool = True,
    ) -> None:
        # deferred: repro.lbm.solver subclasses this solver
        from .solver import make_kernels, validate_tier

        if models is None:
            if not gpu_aware:
                raise ConfigError("gpu_aware=False needs per-rank models")
        else:
            validate_tier(config.executor, config.sanitize, config.backend, model=True)
            if len(models) != partition.num_ranks:
                raise ConfigError(
                    f"{len(models)} model(s) for {partition.num_ranks} rank(s)"
                )
        self.models = models
        self.gpu_aware = bool(gpu_aware)
        self.partition = partition
        self.grid = partition.grid
        self.config = config
        self.lattice = config.make_lattice()
        self.collision = config.make_collision()
        self.comm = comm if comm is not None else SimComm(partition.num_ranks)
        if self.comm.num_ranks != partition.num_ranks:
            raise RuntimeSimError(
                "communicator size does not match partition rank count"
            )
        self.tracer = get_tracer() if tracer is None else tracer
        self.time = 0
        self.fluid_updates = 0
        self._schedule = schedule_for(partition.num_ranks, config.overlap)
        self._one_pass = self._schedule is ONE_PASS_SCHEDULE
        self._window = _overlap_window(self._schedule)
        self._procmode = config.executor == "process"
        self._closed = False
        self._shm: Optional[SegmentRegistry] = None
        self.executor: Any = None
        # halo transport: the rings under procmode, host-staged for models
        # without GPU-aware MPI
        self._halo: Any = self.comm
        self.plane = None  # TelemetryPlane (procmode)
        self._san = None  # StepSanitizer
        registry = get_registry()
        self._halo_packed = registry.counter("lbm.halo.bytes_packed")
        self._halo_unpacked = registry.counter("lbm.halo.bytes_unpacked")
        self._flups_counter = registry.counter("lbm.collide.flups")
        self._stream_bytes_counter = registry.counter("lbm.stream.bytes_gathered")

        # everything that can reject the run happens before the first
        # allocation: plans, both pre-flights, kernel providers
        plans = build_rank_plans(
            self.grid, partition, self.lattice, config.periodic
        )
        if config.inlet_velocity is None and any(
            plan.inlet_nodes.size for plan in plans
        ):
            raise ConfigError(
                "grid has inlet nodes but no inlet_velocity configured"
            )
        if config.backend != "numpy":
            # the compiled step launches over the one-pass tile table or
            # the stream's run table: build it now so K406/K407 verify it
            # with the rest of the plan
            for plan in plans:
                if self._one_pass:
                    plan.step_plan.tile_tables()
                else:
                    plan.step_plan.kernel_tables()
        context = f"partition over {partition.num_ranks} rank(s)"
        if validate_schedule:
            # pre-flight: statically verify the halo-exchange plan the
            # decomposition produced before any step executes (opt out
            # with validate_schedule=False)
            from ..lint.commcheck import schedule_from_rank_states, verify_schedule

            sched = schedule_from_rank_states(
                plans, partition.num_ranks, tag=HALO_TAG, overlap=config.overlap
            )
            verify_schedule(sched, context=context)
        if validate_plan:
            # pre-flight: verify the compiled plan IR itself (the K4xx
            # invariants — race-free destinations, in-bounds sources,
            # covered cross-links, hazard-free phase order, run tables
            # equal to the link tables) before the first apply executes
            from ..lint.plancheck import verify_rank_plans

            verify_rank_plans(plans, overlap=config.overlap, context=context)
        if config.backend != "numpy":
            # verified: the compiled step reads its table alone, so the
            # dense gather table goes (flat_src re-expands on demand)
            for plan in plans:
                plan.step_plan.release_links()
        kernels = [
            make_kernels(config, self.lattice, self.collision, model)
            for model in models or [None] * partition.num_ranks
        ]
        try:
            self._instantiate(plans, kernels)
        except BaseException:
            # segments, rings and the plane must not outlive a failed
            # constructor (nobody holds the object to close it)
            self.close()
            raise

    # -- setup ---------------------------------------------------------------
    def _instantiate(self, plans: Sequence[RankPlan], kernels: Sequence[Any]) -> None:
        """Allocate the ranks' mutable state over ``plans`` and their
        kernel providers, and wire the transport, the telemetry plane and
        the sanitizer to it."""
        config, lattice = self.config, self.lattice
        num_ranks = len(plans)
        self.executor = make_executor(
            config.executor, num_ranks, tracer=self.tracer
        )
        if self._procmode:
            self._shm = SegmentRegistry()
        # the initial state is the equilibrium at rest, w ⊗ ρ0: with u = 0
        # every other term of lattice.equilibrium is exactly zero, so this
        # is its value bit for bit, written once into the final buffer
        rest = (lattice.w * float(config.rho0))[:, None]
        self.ranks: List[RankState] = []
        for plan in plans:
            r = plan.rank
            shape = (lattice.q, plan.step_plan.num_local)
            if self._shm is not None:
                # process tier: the double buffer must live in shared
                # segments so forked workers mutate the pages the parent
                # observes (everything else is inherited copy-on-write)
                f = self._shm.ndarray(f"rank{r}.f", shape)
                f[...] = rest
                f_tmp = self._shm.ndarray(f"rank{r}.f_tmp", shape)
            elif self.models is not None:
                # the double buffer is the storage behind two device Views
                model = self.models[r]
                f = model.upload("f", np.broadcast_to(rest, shape)).data()
                f_tmp = model.alloc("f_tmp", shape).data()
            else:
                f = np.empty(shape)
                f[...] = rest
                f_tmp = np.empty_like(f)
            inlet = outlet = None
            if plan.inlet_nodes.size:
                inlet = VelocityInlet(
                    plan.inlet_nodes, config.inlet_velocity, config.rho0
                )
            if plan.outlet_nodes.size:
                outlet = PressureOutlet(plan.outlet_nodes, config.rho0)
            # preallocated halo staging (both transports copy on send, so
            # the buffers are reusable; process-tier workers inherit them
            # copy-on-write and stage worker-locally)
            self.ranks.append(
                RankState(
                    plan,
                    f,
                    f_tmp,
                    inlet,
                    outlet,
                    kernels[r],
                    kernels[r].tables(plan.step_plan),
                    send_bufs={
                        dst: np.empty(flat.shape)
                        for dst, flat in plan.send_flat.items()
                    },
                    recv_bufs={
                        src: np.empty(flat.shape)
                        for src, flat in plan.recv_flat.items()
                    },
                )
            )
        # one message per wired (src, dst) pair per step — the same send
        # lists the S301-S305 schedule pre-flight verifies
        self._wire = [
            (st.rank, dst, int(buf.nbytes))
            for st in self.ranks
            for dst, buf in st.send_bufs.items()
        ]
        self._halo_step_bytes = sum(nbytes for _, _, nbytes in self._wire)

        if self._shm is not None:
            # one SPSC ring per wired pair, sized to its payload
            self._halo = RingTransport(
                self._shm, [(s, d, nbytes // 8) for s, d, nbytes in self._wire]
            )
            # telemetry plane: the heartbeat board, the stall watchdog
            # and postmortem bundles (spans and metric deltas ride the
            # executor's acks either way).  Allocated from the same
            # registry (before the lazy fork) so workers inherit the
            # board; REPRO_TELEMETRY_PLANE=off yields the dormant
            # baseline the overhead benchmark times.
            from ..telemetry.plane import TelemetryPlane, plane_enabled

            if plane_enabled():
                self.plane = TelemetryPlane(
                    self._shm,
                    num_ranks,
                    stall_timeout_s=config.stall_timeout_s,
                    postmortem_out=config.postmortem_out,
                )
                self.executor.plane = self.plane

        if self.models is not None:
            if not self.gpu_aware:
                from ..models.base import HostStagedHalo

                self._halo = HostStagedHalo(self._halo, self.models)
            # setup uploads (initial state, tables) are not exchange
            # traffic: zero the ledgers so they report per-step staging only
            for model in self.models:
                model.device.reset_ledger()

        self._owned_total = sum(plan.num_owned for plan in plans)
        # gather traffic of one streaming pass across all ranks, for the
        # per-step() counter bump (both schedules apply the full plan)
        self._gather_bytes_per_step = sum(
            int(plan.step_plan.bytes_per_apply) for plan in plans
        )
        self._mass_contribs = np.empty(num_ranks, dtype=np.float64)

        if config.sanitize:
            from .sanitize import StepSanitizer

            self._san = StepSanitizer(self.ranks)

    # -- phase bodies ------------------------------------------------------
    # Each body is a per-rank function the step loop dispatches through
    # the executor, which emits one span per rank per phase when a tracer
    # is attached (the functional source of the Fig. 7 breakdown).  The
    # schedules above declare their order and buffer accesses.

    def _phase_collide(self, rank: int) -> None:
        # owned nodes are the prefix of the local numbering
        st = self.ranks[rank]
        st.kernels.collide(st.f, st.num_owned)

    def _phase_exchange_post(self, rank: int) -> None:
        # allocation-free pack into the preallocated per-neighbour send
        # buffers: only the values some neighbour's frontier link reads
        # (the ~5-of-19 directions the paper's halo model prices).  Both
        # transports copy eagerly on send.
        st = self.ranks[rank]
        f_flat = st.f.reshape(-1)
        send_flat = st.plan.send_flat
        for dst, buf in st.send_bufs.items():
            np.take(f_flat, send_flat[dst], out=buf, mode="clip")
            self._halo.send(rank, dst, buf, tag=HALO_TAG)

    def _phase_exchange_complete(self, rank: int) -> None:
        # staged for the frontier scatter
        st = self.ranks[rank]
        san = self._san
        for src, buf in st.recv_bufs.items():
            self._halo.recv_into(rank, src, buf, tag=HALO_TAG)
            if san is not None:
                san.on_payload(st, src)

    def _phase_collide_stream(self, rank: int) -> None:
        # one rank: no halo links, no exchange post reading collided f
        st = self.ranks[rank]
        st.kernels.collide_stream(st.f, st.f_tmp, st.num_owned, *st.tables)
        st.f, st.f_tmp = st.f_tmp, st.f

    def _phase_stream(self, rank: int) -> None:
        # the full-plan gather (under overlap while the exchange is in
        # flight): interior columns are final; frontier columns are
        # provisional exactly on their halo-sourced links, which gather a
        # placeholder here and are overwritten by the frontier scatter
        st = self.ranks[rank]
        st.kernels.stream(st.f, st.f_tmp, *st.tables)
        if self._san is not None:
            self._san.on_stream(st)

    def _phase_stream_frontier(self, rank: int) -> None:
        # finalize the frontier: scatter each staged payload straight
        # onto the halo-sourced link destinations in the double buffer,
        # then swap
        st = self.ranks[rank]
        san = self._san
        tmp_flat = st.f_tmp.reshape(-1)
        for src, written in st.plan.recv_flat.items():
            if san is not None:
                san.on_scatter(st, src, written)
            tmp_flat[written] = st.recv_bufs[src]
        if san is not None:
            san.end_frontier(st)
        st.f, st.f_tmp = st.f_tmp, st.f

    def _phase_boundary(self, rank: int) -> None:
        # acts on the level streaming just produced, time + 1 (time
        # advances once per step, after run_step).  fluid_updates is
        # accumulated in the driver, not here: under the process tier
        # this body runs in a forked worker whose writes to solver
        # attributes the parent never sees
        st = self.ranks[rank]
        if st.inlet is not None:
            st.inlet.apply(self.lattice, st.f, self.time + 1)
        if st.outlet is not None:
            st.kernels.outlet(st.f, st.outlet.nodes, st.outlet.rho0)

    # -- process-tier support ----------------------------------------------
    def _apply_phase_context(self, ctx: Dict[str, int]) -> None:
        """Worker-side hook: apply the parent's step number at the top of
        a dispatch (plain attribute writes made in the parent after the
        fork are invisible here); ``time`` equals it there."""
        self.time = int(ctx["step"])
        if self._san is not None:
            self._san.begin_worker_step(self.ranks, self.time)

    def _log_ring_step(self, step: int) -> None:
        """The rings bypass SimComm, so the parent's event log is fed
        from the static wiring — the exact bytes each ring carried."""
        log = self.comm.log
        for src, dst, nbytes in self._wire:
            log.record(CommEvent(src, dst, nbytes, HALO_TAG, step))

    def close(self) -> None:
        """Release executor workers and shared-memory segments.

        Idempotent.  Required for the process tier (worker processes and
        ``/dev/shm`` segments are freed here, though atexit hooks cover
        abandoned solvers); a no-op for lockstep.  After closing, the
        solver cannot step, and ``gather_f`` / ``mass`` / ``velocity``
        (so checkpoints too) raise :class:`RuntimeSimError`."""
        self._closed = True
        if self._procmode and self.executor is not None:
            self.executor.close()
        if self._shm is not None:
            self._shm.close()

    def _require_open(self, what: str) -> None:
        # after close() a process-tier f points into unmapped segments:
        # reading it would crash the interpreter, not raise
        if self._closed:
            raise RuntimeSimError(f"solver is closed; {what}")

    def __enter__(self) -> "DistributedSolver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the step loop -----------------------------------------------------
    def step(self, num_steps: int = 1) -> None:
        """Advance ``num_steps`` iterations of the declared schedule.

        Both executors run one iteration per ``run_step`` call.  After it
        the parent rebuilds the ``overlap_window`` span from the returned
        phase intervals, mirrors the workers' double-buffer swap (process
        tier) and advances ``time``.  Forked workers cannot see
        parent-side attribute writes, so the step number travels with
        the dispatch.
        """
        if num_steps < 0:
            raise ConfigError("num_steps must be non-negative")
        self._require_open("it cannot step again")
        san = self._san
        bodies = [getattr(self, phase.body) for phase in self._schedule]
        names = [phase.span for phase in self._schedule]
        for _ in range(num_steps):
            step_id = self.time
            self.comm.set_step(step_id)
            if san is not None:
                san.begin_step(self.ranks, step_id)
            with self.tracer.span("step", step=step_id):
                timings = self.executor.run_step(
                    bodies, names, ctx={"step": step_id}
                )
                self._trace_window(timings)
                self.fluid_updates += self._owned_total
            if self._procmode:
                # each worker swapped its own rank's double buffer once
                # (one phase per schedule swaps); mirror it on the
                # parent's states so observables read live data
                for st in self.ranks:
                    st.f, st.f_tmp = st.f_tmp, st.f
                self._log_ring_step(step_id)
            self.time += 1
            if san is not None:
                san.end_step(self.ranks, step_id)
        self._count_step_work(num_steps)

    def _trace_window(self, timings: Sequence[Timings]) -> None:
        """Append the ``overlap_window`` span, rebuilt from the per-rank
        phase intervals: first exchange post begun to last completion
        done."""
        tracer = self.tracer
        if self._window is None or not tracer.enabled:
            return
        first, last = self._window
        start = min(acked[first][0] for acked in timings)
        end = max(acked[last][0] + acked[last][1] for acked in timings)
        tracer.spans.append(
            SpanRecord("overlap_window", start, end - start, tracer.depth())
        )

    def _count_step_work(self, num_steps: int) -> None:
        # one counter bump per step() call, not per iteration or message:
        # the profiling layer reads deltas, and finer increments would
        # put lock traffic on the hot path
        if num_steps > 0:
            self._flups_counter.inc(num_steps * self._owned_total)
            self._stream_bytes_counter.inc(
                num_steps * self._gather_bytes_per_step
            )
            self._halo_packed.inc(num_steps * self._halo_step_bytes)
            self._halo_unpacked.inc(num_steps * self._halo_step_bytes)

    # -- observables -----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._owned_total

    @cached_property
    def coords(self) -> np.ndarray:
        """Global voxel coordinates of the compact fluid numbering."""
        return self.grid.compact_ids()[0]

    def gather_f(self) -> np.ndarray:
        """Assemble the global (q, n) distribution array from all ranks.

        Returns a fresh array on every call, owned by the caller: a
        result taken before :meth:`step` keeps its values after it, and
        the solver holds no third copy of ``f`` between calls.
        """
        self._require_open("its distributions are released")
        out = np.empty((self.lattice.q, self._owned_total))
        for st in self.ranks:
            out[:, st.plan.owned_global] = st.f
        return out

    def mass(self) -> float:
        self._require_open("its distributions are released")
        contribs = self._mass_contribs
        for i, st in enumerate(self.ranks):
            contribs[i] = st.f.sum()
        return self.comm.allreduce(contribs)

    def velocity(self) -> np.ndarray:
        return _velocity(self.lattice, self.gather_f(), self.collision.force)

    def density(self) -> np.ndarray:
        return _density(self.gather_f())

    def max_velocity(self) -> float:
        return float(np.linalg.norm(self.velocity(), axis=1).max())

    def on_grid(self, values: np.ndarray) -> np.ndarray:
        """Per-node ``values`` (compact order) placed on the full voxel
        grid, zeros at solid voxels."""
        out = np.zeros(self.grid.shape + values.shape[1:])
        x, y, z = self.coords.T
        out[x, y, z] = values
        return out

    def velocity_grid(self) -> np.ndarray:
        return self.on_grid(self.velocity())

    def density_grid(self) -> np.ndarray:
        return self.on_grid(self.density())

    def phase_bytes_per_step(self) -> Dict[str, int]:
        """Memory traffic each phase moves in one iteration, by span name.

        The profiling layer divides these by measured phase times to get
        achieved bandwidth, and by the host STREAM bound to get the
        phase's model floor (Eq. 1 applied per phase).  Accounting:

        * ``collide`` reads and writes all ``q`` populations of every
          owned node;
        * ``stream`` / ``interior`` is one fused gather over the full
          plan (frontier columns provisionally, on either schedule);
        * under the one-rank schedule, ``stream`` is collide and stream
          in one sweep: Eq. 1's price, ``lattice.bytes_per_update()``
          per owned node, plus the bytes of the tables it reads;
        * ``exchange`` moves the halo payload twice (pack at the sender,
          staging at the receiver);
        * ``frontier`` re-scatters the packed payload onto the link
          destinations; ``boundary`` traffic is negligible and carries
          no byte model.
        """
        halo = self._halo_step_bytes
        sweep = self.lattice.bytes_per_update() * self._owned_total
        stream = self._gather_bytes_per_step
        if self._one_pass:
            stream = sweep + sum(
                _table_bytes(t) for st in self.ranks for t in st.tables
            )
        model = {
            "collide": sweep,
            "exchange": 2 * halo,
            "stream": stream,
            "interior": self._gather_bytes_per_step,
            "frontier": 2 * halo,
            "boundary": 0,
        }
        return {phase.span: model[phase.span] for phase in self._schedule}

    def halo_bytes_per_step(self) -> int:
        """Bytes exchanged in one iteration (from the wired send buffers).

        The packed cross-link exchange ships only the population values
        the receiver's frontier links read — 8 bytes per cross link, the
        accounting the paper's ``HALO_BYTES_PER_SITE`` model prices —
        so the figure is the same under either schedule.
        """
        return self._halo_step_bytes
