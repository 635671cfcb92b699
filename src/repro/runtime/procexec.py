"""Process-based rank executor: true multicore rank parallelism.

:class:`ProcessExecutor` keeps one persistent worker process per rank
and runs the same per-rank phase bodies the lockstep executor runs,
without the GIL: each rank's collide/stream/boundary kernels run on
their own core.  ``run_step`` is one message per rank per *iteration*:
each worker runs its rank through the whole declared schedule back to
back and acks once; the parent never sits between two phases.  The
ordering guarantee is the one MPI ranks have: **per-rank program order
plus the happens-before edges of the halo rings** (a ``pop_into``
returns only after the peer's ``push``; a ``push`` waits for a free
slot).  Ranks therefore skew by at most one step, which the ring
capacity (2) covers, and every other buffer a phase body touches must be
rank-private.  Results stay bit-for-bit equal to lockstep by
construction.  ``run_phase`` is a one-phase ``run_step``.

How state crosses the process boundary
--------------------------------------
Workers are forked (POSIX ``fork`` start method) lazily on the *first*
dispatch, after the owning solver is fully built.  Everything
the phase bodies read — plans, index tables, boundary objects — is
inherited copy-on-write; the arrays the phases *mutate* (the ``f``
double buffer, halo pack buffers, ring transports) must live in
:mod:`repro.runtime.shmem` segments allocated before the fork, so the
parent and every worker address the same physical pages.

Each rank has two raw pipes, one per direction, and both carry one
frame layout: a fixed :mod:`struct` header, then an optional pickled
blob.  A *dispatch* frame's header holds the kind (run or stop), a
has-step flag and the step number; its blob carries the phase program
only when it differs from the last one sent, and a ``ctx`` only when it
is neither ``None`` nor exactly ``{"step": int}``.  A steady-state step
is therefore one 14-byte header per rank and nothing is pickled.  The
worker keeps the program and resolves its bodies once per program: a
bound method of the registered target travels as its name (resolved on
the worker's copy of the target, so instance overrides dispatch); any
other callable must pickle by reference (the W504 lint rule bans
closure-captured phase callables for exactly this reason).  An *ack*
frame's header holds the kind (ok or error) and the per-phase
``(start, duration)`` doubles; a pickled blob rides along only on an
error ack or when the worker has telemetry records to hand over.  The
parent waits for acks on one ``select.poll`` registered when the
workers fork.

Telemetry and errors keep the lockstep executor's contract.  The ack is
the one channel from worker to parent: each worker times its own phase
intervals (``time.perf_counter`` is the system-wide ``CLOCK_MONOTONIC``
on Linux, so intervals are comparable across processes) and acks them
together with the records (if any) of its
:class:`~repro.telemetry.plane.WorkerAgent` — one worker-origin span per
phase when the parent traces, and the worker's metric deltas.  The
parent merges every ack it received, in rank order, before it returns
or raises, so a survivor's spans and counters reach the tracer and the
postmortem bundle even when a peer failed.  The first worker exception
is re-raised in the caller with a
``[rank N phase ...]`` prefix (the worker names the failing phase in
its ack) — picklable exceptions cross as themselves, others as
:class:`~repro.core.errors.RuntimeSimError` carrying the worker
traceback.  A worker that dies (crash, kill) surfaces as a
``RuntimeSimError`` naming the phase it had entered.  Either failure
gives the other ranks — possibly blocked on the failed rank's rings — a
grace window of ``min(5 s, stall timeout)`` to ack, never the 60 s ring
timeout, then terminates the stragglers and closes the executor.

The ``ctx`` dict of a dispatch carries the controlling process's mutable
scalars (the step counter) to the workers; the target applies it
through its ``_apply_phase_context`` hook before the first body runs,
since plain attribute writes in the parent are invisible after the fork.

When a :class:`~repro.telemetry.plane.TelemetryPlane` is attached (the
distributed solver wires one whenever the plane is enabled), the agents
also publish a heartbeat at each phase entry and an idle one at the end
of each dispatch — shared memory the parent can read when no ack comes.
A heartbeat's phase column is the phase's index in the dispatched
tuple, so the parent names the phase from the labels it sent.  The
parent watches the heartbeats for stalls and, on a stall, worker death
or a sanitizer failure, attaches a postmortem bundle to the raised
error.

Each worker closes the parent-side pipe ends it inherited (its own and
those of the ranks forked before it), so the parent is the only holder
of every command pipe's write end: when the parent dies — even by
``SIGKILL`` — an idle worker reads end-of-file and a busy one fails its
ack, and both exit; the resource tracker then unlinks the segments.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import struct
import time
import traceback
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    BackendUnavailableError,
    RuntimeSimError,
    SanitizeError,
    StallError,
)
from ..telemetry.plane import WorkerAgent, merge_records
from ..telemetry.spans import get_tracer, set_tracer
from .executor import Timings, check_step_names

__all__ = ["ProcessExecutor", "fork_available"]

PhaseFn = Callable[[int], None]

#: how long the parent keeps waiting for the other ranks' acks once one
#: rank has died or raised (they may be blocked on its halo rings)
_FAILURE_GRACE_S = 5.0

#: dispatch frame header: kind, flags, step, blob length
_DISPATCH = struct.Struct("<BBqI")
_STOP, _RUN = 0, 1
_HAS_STEP, _HAS_BLOB = 1, 2
#: ack frame header: kind, phase count ``n``, blob length; then the
#: ``(start, duration)`` doubles of the ``n`` phases, then the blob
_ACK = struct.Struct("<BxxxII")
_OK, _ERR = 0, 1
#: the parent's first read of an ack: the whole frame unless it carries
#: a blob or hundreds of phases
_ACK_READ = 4096


@lru_cache(maxsize=16)
def _ack_frame(num_phases: int) -> struct.Struct:
    """Header plus doubles of an ack for ``num_phases`` phases."""
    return struct.Struct(_ACK.format + f"{2 * num_phases}d")


def _read_exact(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``; :class:`EOFError` if the writer is
    gone first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError("pipe closed")
        data += chunk
    return data


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _dispatch_frame(
    program: Optional[tuple], ctx: Optional[Dict[str, Any]]
) -> bytes:
    """The dispatch frame of one iteration: a bare header unless the
    program changed or ``ctx`` is more than a step number."""
    flags, step = 0, 0
    if ctx is not None:
        value = ctx.get("step")
        if len(ctx) == 1 and type(value) is int:
            flags, step = _HAS_STEP, value
            ctx = None
    blob = b""
    if program is not None or ctx is not None:
        blob = pickle.dumps((program, ctx))
        flags |= _HAS_BLOB
    return _DISPATCH.pack(_RUN, flags, step, len(blob)) + blob


def _read_ack(fd: int) -> Optional[Tuple]:
    """One ack frame from ``fd`` as ``("ok", timings, records)`` or
    ``("err", exc blob, traceback, phase label, records)``; ``None`` at
    end-of-file (the worker is gone)."""
    buf = os.read(fd, _ACK_READ)
    if not buf:
        return None
    if len(buf) < _ACK.size:
        buf += _read_exact(fd, _ACK.size - len(buf))
    kind, num_phases, blob_len = _ACK.unpack_from(buf)
    frame = _ack_frame(num_phases)
    size = frame.size + blob_len
    if len(buf) < size:
        buf += _read_exact(fd, size - len(buf))
    blob = pickle.loads(buf[frame.size:size]) if blob_len else []
    if kind == _ERR:
        return ("err",) + tuple(blob)
    times = frame.unpack_from(buf)
    return ("ok", list(zip(times[3::2], times[4::2])), blob)


def fork_available() -> bool:
    """True when the POSIX ``fork`` start method exists on this host."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _resolve(target: Optional[object], spec: Tuple[str, Any]) -> PhaseFn:
    kind, payload = spec
    if kind == "method":
        return getattr(target, payload)
    return pickle.loads(payload)


def _worker_main(
    rank: int,
    cmd_fd: int,
    ack_fd: int,
    inherited: Sequence[int],
    target: Optional[object],
    plane: Optional[object],
    trace: bool,
) -> None:
    """Worker loop: receive dispatch frames, run them, ack with timings.

    A dispatch runs the kept phase program (replaced when the frame's
    blob carries a new one) after applying the frame's ctx through the
    target's ``_apply_phase_context`` hook; a stop frame or end-of-file
    ends the loop.  The phases run back to back on this rank (no parent
    round trip in between) and the worker acks once: an ok frame with
    the per-phase ``(start, duration)`` doubles, or an error frame whose
    blob is ``(exc blob, traceback, phase label, records)``.

    ``records`` come from the worker's
    :class:`~repro.telemetry.plane.WorkerAgent`: its metric deltas and,
    when ``trace``, one worker-origin span per phase — the process-wide
    tracer (and the target's ``tracer`` attribute, if any) rebind to the
    agent's tracer so phase bodies' sub-spans are captured too.  An ok
    ack pickles them only when there are some.  With a ``plane`` the
    agent also publishes heartbeats.

    ``inherited`` are the parent-side pipe ends this fork copied; they
    are closed first, so the parent's death reaches the worker as
    end-of-file.  Exits through ``os._exit`` so the parent's inherited
    atexit hooks (segment unlink, executor shutdown) never run in a
    child.
    """
    for fd in inherited:
        os.close(fd)
    agent = WorkerAgent(rank, plane, trace)
    if agent.tracer is not None:
        set_tracer(agent.tracer)
        if target is not None and hasattr(target, "tracer"):
            target.tracer = agent.tracer
    hook = getattr(target, "_apply_phase_context", None)
    program: List[Tuple[str, PhaseFn]] = []
    frame = _ack_frame(0)
    try:
        while True:
            try:
                head = _read_exact(cmd_fd, _DISPATCH.size)
                kind, flags, step, blob_len = _DISPATCH.unpack(head)
                if kind == _STOP:
                    break
                blob = _read_exact(cmd_fd, blob_len) if blob_len else b""
            except (EOFError, OSError):
                break
            label = "phase"
            try:
                ctx = {"step": step} if flags & _HAS_STEP else None
                if flags & _HAS_BLOB:
                    specs, blob_ctx = pickle.loads(blob)
                    if blob_ctx is not None:
                        ctx = blob_ctx
                    if specs is not None:
                        program = []
                        for label, spec in specs:
                            program.append((label, _resolve(target, spec)))
                        frame = _ack_frame(len(program))
                        label = "phase"
                if ctx is not None and hook is not None:
                    hook(ctx)
                agent.begin_dispatch(ctx)
                times: List[float] = []
                for index, (label, fn) in enumerate(program):
                    # the interval brackets the agent's own span, so a
                    # container rebuilt from the acks encloses it
                    t0 = time.perf_counter()
                    agent.begin_phase(index, label)
                    fn(rank)
                    agent.end_phase()
                    times += (t0, time.perf_counter() - t0)
                agent.end_dispatch()
                records = agent.records()
                blob = pickle.dumps(records) if records else b""
                ack = frame.pack(_OK, len(program), len(blob), *times) + blob
            except BaseException as exc:
                records = []
                try:
                    agent.record_error()
                    records = agent.records()
                except Exception:
                    pass
                try:
                    exc_blob: Optional[bytes] = pickle.dumps(exc)
                except Exception:
                    exc_blob = None
                blob = pickle.dumps(
                    (exc_blob, traceback.format_exc(), label, records)
                )
                ack = _ACK.pack(_ERR, 0, len(blob)) + blob
            try:
                _write_all(ack_fd, ack)
            except OSError:
                break
    finally:
        for fd in (cmd_fd, ack_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        os._exit(0)


class ProcessExecutor:
    """Runs per-rank phase bodies on persistent worker processes.

    Same ``run_step`` contract as the lockstep executor plus
    ``close()``; ``ctx`` is applied worker-side.  ``run_step`` is one
    dispatch per *iteration* — the ranks free-run through the phases and
    meet only where the bodies themselves synchronise (the halo rings).
    Construction only checks the platform; workers fork on first use so
    they inherit the fully-built solver.
    """

    def __init__(self, num_ranks: int, tracer=None) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("executor needs at least one rank")
        if not fork_available():
            raise BackendUnavailableError(
                "the process executor needs the POSIX 'fork' start "
                "method (workers inherit the solver's shared-memory "
                "segments); this platform does not provide it — use "
                "executor='lockstep'"
            )
        import multiprocessing

        self.num_ranks = num_ranks
        self.phases_run = 0
        self._dispatches = 0
        self.tracer = get_tracer() if tracer is None else tracer
        #: optional :class:`~repro.telemetry.plane.TelemetryPlane`; set it
        #: before the first dispatch (workers fork with it) to get
        #: heartbeats, the stall watchdog and postmortem bundles.
        self.plane: Optional[Any] = None
        self._mp = multiprocessing.get_context("fork")
        self._creator_pid = os.getpid()
        self._target: Optional[object] = None
        #: (Process, command pipe write fd, ack pipe read fd) per rank
        self._workers: List[Tuple[Any, int, int]] = []
        self._poll = select.poll()
        self._rank_of: Dict[int, int] = {}  # ack fd -> rank
        #: the (callables, names) of the phase program the workers hold,
        #: and its labels
        self._sent: Optional[Tuple[tuple, tuple]] = None
        self._labels: Tuple[str, ...] = ()
        self._started = False
        self._closed = False
        atexit.register(self.close)

    @property
    def dispatches(self) -> int:
        """Messages sent to each rank so far: one per ``run_step``
        (``phases_run`` counts the phases)."""
        return self._dispatches

    # -- lifecycle -------------------------------------------------------
    def start(self, target: Optional[object] = None) -> None:
        """Fork the workers (idempotent).  ``target`` is the object whose
        bound methods dispatch by name — normally the owning solver."""
        if self._started:
            return
        if self._closed:
            raise RuntimeSimError("process executor already closed")
        self._target = target
        parent_fds: List[int] = []
        for rank in range(self.num_ranks):
            cmd_r, cmd_w = os.pipe()
            ack_r, ack_w = os.pipe()
            parent_fds += (cmd_w, ack_r)
            proc = self._mp.Process(
                target=_worker_main,
                args=(
                    rank, cmd_r, ack_w, tuple(parent_fds), target,
                    self.plane, self.tracer.enabled,
                ),
                daemon=True,
                name=f"repro-rank-{rank}",
            )
            proc.start()
            os.close(cmd_r)
            os.close(ack_w)
            self._workers.append((proc, cmd_w, ack_r))
            self._poll.register(ack_r, select.POLLIN)
            self._rank_of[ack_r] = rank
        self._started = True

    def close(self) -> None:
        """Stop the workers and release the pipes (idempotent).

        Runs only in the creating process; forked children inherit the
        executor object (and the parent's atexit stack is skipped by the
        worker's ``os._exit``), but a pid guard keeps any stray call
        harmless.
        """
        if self._closed or os.getpid() != self._creator_pid:
            return
        self._closed = True
        stop = _DISPATCH.pack(_STOP, 0, 0, 0)
        for _, cmd_fd, _ in self._workers:
            try:
                _write_all(cmd_fd, stop)
            except OSError:
                pass
        for proc, cmd_fd, ack_fd in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            for fd in (cmd_fd, ack_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._workers = []

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def _abort(self, ranks: Sequence[int]) -> None:
        """Terminate ``ranks`` (blocked on a failed peer's rings, they
        would never read the stop command), then :meth:`close`."""
        for rank in ranks:
            self._workers[rank][0].terminate()
        self.close()

    # -- dispatch --------------------------------------------------------
    def _spec_for(self, fn: PhaseFn) -> Tuple[str, Any]:
        bound_to = getattr(fn, "__self__", None)
        if self._target is not None and bound_to is self._target:
            return ("method", fn.__name__)
        try:
            return ("pickle", pickle.dumps(fn))
        except Exception as exc:
            raise RuntimeSimError(
                f"phase callable {getattr(fn, '__name__', fn)!r} cannot "
                "cross the process boundary: it is neither a method of "
                "the executor's target nor picklable by reference "
                f"({exc}); see lint rule W504"
            ) from None

    def run_phase(
        self,
        fn: PhaseFn,
        name: Optional[str] = None,
        ctx: Optional[Dict[str, Any]] = None,
    ) -> List[Timings]:
        """A one-phase :meth:`run_step`: ``fn(rank)`` on every worker."""
        return self.run_step([fn], [name], ctx)

    def run_step(
        self,
        phases: Sequence[PhaseFn],
        names: Sequence[Optional[str]],
        ctx: Optional[Dict[str, Any]] = None,
    ) -> List[Timings]:
        """Run one iteration rank-resident: a single message per rank.

        Each worker applies ``ctx`` once, then runs its rank through
        ``phases`` back to back — no barrier between them.  Inter-rank
        ordering is whatever the bodies themselves enforce: a ring
        ``pop_into`` waits for the peer's ``push`` and a ``push`` waits
        for a free slot, so ranks skew by at most the ring capacity and
        meet only in the halo exchange, as MPI ranks do.  Every other
        buffer a body touches must be rank-private.

        Returns each rank's acked per-phase ``(start, duration)`` list
        so the caller can rebuild container spans.  A rank that raises
        ends the iteration for everyone: the others get a short grace to
        ack, the executor closes, and the first exception is re-raised.
        """
        check_step_names(phases, names)
        if self._closed:
            raise RuntimeSimError(
                "process executor is closed; its workers are gone"
            )
        if not phases:
            return [[] for _ in range(self.num_ranks)]
        if not self._started:
            self.start(getattr(phases[0], "__self__", None))
        program = None
        sent = (tuple(phases), tuple(names))
        if sent != self._sent:
            # every phase travels under its label, so the worker's spans
            # and error acks and the parent's heartbeat reading name it
            # alike
            program = tuple(
                (name or getattr(fn, "__name__", "phase"), self._spec_for(fn))
                for fn, name in zip(phases, names)
            )
            self._sent = sent
            self._labels = tuple(label for label, _ in program)
        return self._dispatch(program, ctx)

    def _dispatch(
        self, program: Optional[tuple], ctx: Optional[Dict[str, Any]]
    ) -> List[Timings]:
        """Send one frame per rank, gather one ack per rank."""
        dispatch_t0 = time.perf_counter()
        step = ctx.get("step") if ctx else None
        if self.plane is not None:
            self.plane.phase_names = self._labels

        def where(rank: int) -> str:
            return self._where(rank, step, dispatch_t0)

        frame = _dispatch_frame(program, ctx)
        for rank, (_, cmd_fd, _) in enumerate(self._workers):
            try:
                _write_all(cmd_fd, frame)
            except OSError:
                self.close()
                raise RuntimeSimError(
                    f"rank {rank} worker process is gone; cannot "
                    f"dispatch {where(rank)}"
                ) from None

        acks, dead_ranks, stall = self._collect_acks(dispatch_t0, where)
        first_err: Optional[Tuple] = None
        first_rank = -1
        timings: List[Timings] = []
        for rank in range(self.num_ranks):
            ack = acks.get(rank)
            if ack is None:
                timings.append([])
                continue
            # every ack that came is merged before any failure is raised,
            # so a survivor's spans and counters still reach the tracer
            # and the postmortem bundle
            if ack[-1]:
                merge_records(ack[-1], self.tracer)
            if ack[0] == "ok":
                timings.append(ack[1])
                continue
            timings.append([])
            if first_err is None:
                first_err, first_rank = ack, rank
        if stall is not None:
            self._raise_stall(*stall)
        missing = [r for r in range(self.num_ranks) if r not in acks]
        if dead_ranks:
            self._raise_worker_death(dead_ranks[0], where, missing)
        self.phases_run += len(self._labels)
        self._dispatches += 1
        if first_err is not None:
            # a failed iteration is not resumable: rings may hold the
            # survivors' messages
            exc = self._worker_error(first_rank, first_err)
            self._abort(missing)
            raise exc
        return timings

    def _worker_error(self, rank: int, ack: Tuple) -> BaseException:
        """A worker's acked exception, its origin prefixed."""
        _, blob, tb, label, _ = ack
        exc: Optional[BaseException] = None
        if blob is not None:
            try:
                exc = pickle.loads(blob)
            except Exception:
                exc = None
        if exc is None:
            exc = RuntimeSimError(f"worker failed:\n{tb.rstrip()}")
        origin = f"[rank {rank} phase {label!r}]"
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{origin} {exc.args[0]}",) + exc.args[1:]
        else:
            exc.args = (origin,) + tuple(exc.args)
        plane = self.plane
        if plane is not None and isinstance(exc, SanitizeError):
            bundle = plane.postmortem_bundle(
                reason=f"sanitizer failure in phase {label!r}",
                rank_states=self.rank_states(),
                error=str(exc),
            )
            plane.save_bundle(bundle)
            exc.postmortem = bundle
        return exc

    def _where(self, rank: int, step: Optional[int], since: float) -> str:
        """Where ``rank`` is in the current dispatch, for error messages.

        A whole heartbeat the rank published since the dispatch names the
        last phase it entered; without one only the step is known.
        """
        if self.plane is not None:
            hb = self.plane.heartbeat(rank)
            if not hb["torn"] and hb["ts"] >= since and hb["phase"]:
                return f"phase {hb['phase']!r} of step {hb['step']}"
        return "a step" if step is None else f"step {step}"

    def _collect_acks(
        self,
        dispatch_t0: float,
        where: Callable[[int], str],
    ) -> Tuple[Dict[int, Tuple], List[int], Optional[Tuple[StallError, str]]]:
        """Gather one ack per rank.

        While waiting, the attached telemetry plane's (if any) heartbeat
        watchdog checks the still-pending ranks, so a hung worker comes
        back as a rank-attributed :class:`StallError` (with where the
        rank was) for the caller to raise instead of a silent hang.  Once
        a rank has died or acked an error, the ranks still pending may be
        blocked on its halo rings: they get a short grace window, then
        the caller reports the failure rather than wait out the ring
        timeout.
        """
        pending = set(range(len(self._workers)))
        acks: Dict[int, Tuple] = {}
        dead_ranks: List[int] = []
        failed_ts: Optional[float] = None
        plane = self.plane
        grace = _FAILURE_GRACE_S
        if plane is not None:
            grace = min(grace, plane.stall_timeout_s)
        while pending:
            timeout = None if plane is None and failed_ts is None else 50
            for fd, _ in self._poll.poll(timeout):
                rank = self._rank_of[fd]
                if rank not in pending:
                    # ready though acked: the worker hung up since
                    self._poll.unregister(fd)
                    continue
                pending.discard(rank)
                try:
                    ack = _read_ack(fd)
                except (EOFError, OSError):
                    ack = None
                if ack is None:
                    dead_ranks.append(rank)
                else:
                    acks[rank] = ack
                if failed_ts is None and (ack is None or ack[0] == "err"):
                    failed_ts = time.perf_counter()
            if plane is not None and failed_ts is None:
                for rank in sorted(pending):
                    try:
                        plane.check_stalls(
                            [rank],
                            since=dispatch_t0,
                            alive=lambda r: self._workers[r][0].is_alive(),
                        )
                    except StallError as exc:
                        return acks, sorted(dead_ranks), (exc, where(rank))
            if (
                failed_ts is not None
                and time.perf_counter() - failed_ts > grace
            ):
                break
        dead_ranks.sort()
        return acks, dead_ranks, None

    def rank_states(self) -> Dict[int, Dict[str, Any]]:
        """Liveness of every worker (``state`` / ``pid`` / ``exitcode``),
        as a postmortem bundle records it."""
        states: Dict[int, Dict[str, Any]] = {}
        for rank, (proc, _, _) in enumerate(self._workers):
            states[rank] = {
                "state": "alive" if proc.is_alive() else "dead",
                "pid": proc.pid,
                "exitcode": proc.exitcode,
            }
        return states

    def _raise_stall(self, exc: StallError, where: str) -> None:
        """Postmortem-decorate and re-raise a heartbeat stall."""
        plane = self.plane
        bundle = None
        if plane is not None:
            bundle = plane.postmortem_bundle(
                reason=f"stall during {where}",
                rank_states=self.rank_states(),
                error=str(exc),
            )
            plane.save_bundle(bundle)
        self.close()
        if bundle is not None:
            exc.postmortem = bundle
        raise exc

    def _raise_worker_death(
        self, dead: int, where: Callable[[int], str], missing: Sequence[int]
    ) -> None:
        """A worker died mid-dispatch: capture the postmortem bundle
        while the survivors are still alive, then shut down (terminating
        the ``missing`` ranks still blocked on the dead one) and raise
        with the bundle attached."""
        plane = self.plane
        bundle = None
        # reap the dead worker first: its pipe closes (the EOF we saw)
        # during process exit, a moment before it becomes joinable, so an
        # immediate is_alive() can still say "alive" with no exitcode
        try:
            self._workers[dead][0].join(timeout=1.0)
        except Exception:
            pass
        died = f"rank {dead} worker process died during {where(dead)}"
        if plane is not None:
            bundle = plane.postmortem_bundle(
                reason=died, rank_states=self.rank_states()
            )
            plane.save_bundle(bundle)
        self._abort(missing)
        exc = RuntimeSimError(
            f"{died}; executor shut down and shared segments remain "
            "owned (and unlinked) by the parent"
        )
        if bundle is not None:
            exc.postmortem = bundle
        raise exc
