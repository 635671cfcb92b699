"""Rank execution: lockstep (serial, in-process) phases.

Ranks run in-process; an iteration is a sequence of *phases* (collide,
exchange-post, exchange-complete, stream, boundaries) and every rank
finishes a phase before any rank starts the next — the bulk-synchronous
structure of a distributed LBM step.  The executors exist so application
code reads like rank-parallel code and so tests can interpose on phases.
``run_phase`` runs one phase; ``run_step`` runs one iteration and leaves
the interleaving to the executor: phase-major with a barrier per phase
here, rank-resident (one dispatch, ranks meeting only in the halo rings)
on :class:`~repro.runtime.procexec.ProcessExecutor`.

:class:`LockstepExecutor` runs the ranks of each phase serially in rank
order; :data:`EXECUTOR_KINDS` names it and the process tier, the only
values ``SolverConfig.executor`` takes.

Passing a :class:`~repro.telemetry.spans.Tracer` (and a ``name`` to
``run_phase``) emits one span per rank per phase — the raw material of
the Fig. 7 runtime-composition breakdown.  With the default null tracer
the instrumentation is a single attribute check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeSimError
from ..telemetry.spans import get_tracer

__all__ = [
    "EXECUTOR_KINDS",
    "AccessConflict",
    "AccessRecord",
    "LockstepExecutor",
    "PhaseAccessLog",
    "make_executor",
]

PhaseFn = Callable[[int], None]

#: Every value ``SolverConfig.executor`` / ``--executor`` accepts.
EXECUTOR_KINDS: Tuple[str, ...] = ("lockstep", "process")


@dataclass(frozen=True)
class AccessRecord:
    """One shared-buffer access noted by a rank phase body."""

    epoch: int  # barrier epoch (phases_run ordinal at record time)
    phase: str
    rank: int
    buffer: str  # stable buffer identity, e.g. "rank2.f"
    mode: str  # "read" or "write"
    locked: bool = False  # taken under the owning service's lock


@dataclass(frozen=True)
class AccessConflict:
    """Two accesses with no happens-before edge and at least one write."""

    phase: str
    buffer: str
    ranks: Tuple[int, ...]
    modes: Tuple[str, ...]

    def describe(self) -> str:
        pairs = ", ".join(
            f"rank {r} {m}" for r, m in zip(self.ranks, self.modes)
        )
        return (
            f"phase {self.phase!r}: unsynchronized accesses to "
            f"{self.buffer} ({pairs})"
        )


class PhaseAccessLog:
    """Per-phase shared-buffer access log with a happens-before check.

    The executors' per-phase barrier is the only ordering between rank
    phase bodies: accesses in *different* phases are ordered by the
    barrier, accesses in the *same* phase by nothing at all.  Phase
    bodies (and lock-owning services such as
    :class:`~repro.runtime.simmpi.SimComm`) note their shared-buffer
    reads and writes here; :meth:`conflicts` then reports every
    same-epoch, cross-rank write/write or write/read pair that was not
    protected by a service lock — the data-race shape the W50x lint
    rules guard statically.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = -1
        self._phase = ""
        self.records: List[AccessRecord] = []

    def begin_phase(self, name: str) -> None:
        """Advance the barrier epoch (called from the controlling thread)."""
        with self._lock:
            self._epoch += 1
            self._phase = name

    def record(
        self, rank: int, buffer: str, mode: str, locked: bool = False
    ) -> None:
        """Note one access (thread-safe; called from rank phase bodies)."""
        if mode not in ("read", "write"):
            raise RuntimeSimError(
                f"access mode must be 'read' or 'write', got {mode!r}"
            )
        with self._lock:
            self.records.append(
                AccessRecord(
                    epoch=self._epoch,
                    phase=self._phase,
                    rank=rank,
                    buffer=buffer,
                    mode=mode,
                    locked=locked,
                )
            )

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def conflicts(self) -> List[AccessConflict]:
        """Same-epoch cross-rank conflicting access groups, in log order."""
        with self._lock:
            records = list(self.records)
        groups: Dict[Tuple[int, str], List[AccessRecord]] = {}
        for rec in records:
            groups.setdefault((rec.epoch, rec.buffer), []).append(rec)
        out: List[AccessConflict] = []
        for (_, buffer), recs in sorted(groups.items()):
            unlocked = [r for r in recs if not r.locked]
            writers = {r.rank for r in unlocked if r.mode == "write"}
            if not writers:
                continue
            ranks = {r.rank for r in unlocked}
            if len(ranks) < 2:
                continue
            involved = [
                r
                for r in unlocked
                if r.mode == "write" or r.rank not in writers
            ]
            out.append(
                AccessConflict(
                    phase=recs[0].phase,
                    buffer=buffer,
                    ranks=tuple(r.rank for r in involved),
                    modes=tuple(r.mode for r in involved),
                )
            )
        return out


def step_span_names(
    phases: Sequence[PhaseFn], names: Optional[Sequence[Optional[str]]]
) -> Sequence[Optional[str]]:
    """``run_step``'s span names: one per phase, or none at all."""
    if names is None:
        return [None] * len(phases)
    if len(names) != len(phases):
        raise RuntimeSimError("run_step needs one span name per phase")
    return names


class LockstepExecutor:
    """Runs per-rank phase functions in lockstep."""

    def __init__(self, num_ranks: int, tracer=None) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("executor needs at least one rank")
        self.num_ranks = num_ranks
        self.phases_run = 0
        self.tracer = get_tracer() if tracer is None else tracer
        #: optional PhaseAccessLog advanced once per phase (sanitize mode)
        self.access_log: Optional[PhaseAccessLog] = None

    def run_phase(
        self,
        fn: PhaseFn,
        ranks: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
        ctx: Optional[dict] = None,
    ) -> None:
        """Invoke ``fn(rank)`` for every rank (or a subset, in order).

        With an enabled tracer and a ``name``, each rank's call is
        wrapped in a span of that name tagged with the rank.  ``ctx``
        exists for signature parity with the process executor (which
        ships it to the workers); in-process the phase bodies read the
        owning object's attributes directly, so it is ignored.
        """
        targets: Iterable[int] = (
            range(self.num_ranks) if ranks is None else ranks
        )
        if self.access_log is not None:
            self.access_log.begin_phase(name or f"phase{self.phases_run}")
        tracer = self.tracer
        traced = name is not None and tracer.enabled
        for rank in targets:
            if not 0 <= rank < self.num_ranks:
                raise RuntimeSimError(f"phase rank {rank} out of range")
            if traced:
                with tracer.span(name, rank=rank):
                    fn(rank)
            else:
                fn(rank)
        self.phases_run += 1

    def run_step(
        self,
        phases: Sequence[PhaseFn],
        names: Optional[Sequence[Optional[str]]] = None,
        ctx: Optional[dict] = None,
    ) -> None:
        """Run one iteration phase-major: a barrier after every phase.

        In-process ranks share one :class:`~repro.runtime.simmpi.SimComm`
        whose receive raises on an empty queue instead of waiting, so the
        only safe order is every rank finishing phase ``i`` before any
        rank starts ``i + 1`` — through :meth:`run_phase`, so spans and
        the access-log epoch advance exactly as for per-phase callers.
        """
        for fn, name in zip(phases, step_span_names(phases, names)):
            self.run_phase(fn, name=name, ctx=ctx)


def make_executor(kind: str, num_ranks: int, tracer=None):
    """Build the executor ``SolverConfig.executor`` names."""
    if kind == "lockstep":
        return LockstepExecutor(num_ranks, tracer=tracer)
    if kind == "process":
        # deferred import: the process tier pulls in multiprocessing and
        # the shared-memory substrate, which lockstep users never need
        from .procexec import ProcessExecutor

        return ProcessExecutor(num_ranks, tracer=tracer)
    raise RuntimeSimError(
        f"unknown executor {kind!r}; expected one of "
        f"{', '.join(EXECUTOR_KINDS)}"
    )
