"""Rank execution: lockstep (serial, in-process) phases.

Ranks run in-process; an iteration is a sequence of *phases* (collide,
exchange-post, exchange-complete, stream, boundaries).  ``run_step`` is
the one executor contract: it runs one iteration of per-rank phase
bodies and returns each rank's ``(start, duration)`` per phase, and it
leaves the interleaving to the executor — phase-major with a barrier per
phase here, rank-resident (one dispatch, ranks meeting only in the halo
rings) on :class:`~repro.runtime.procexec.ProcessExecutor`.

:class:`LockstepExecutor` runs the ranks of each phase serially in rank
order, through its own ``run_phase``; :data:`EXECUTOR_KINDS` names it
and the process tier, the only values ``SolverConfig.executor`` takes.

Passing a :class:`~repro.telemetry.spans.Tracer` emits one span per
rank per named phase — the raw material of the Fig. 7
runtime-composition breakdown.  With the default null tracer the
instrumentation is a single attribute check.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeSimError
from ..telemetry.spans import get_tracer

__all__ = ["EXECUTOR_KINDS", "LockstepExecutor", "make_executor"]

PhaseFn = Callable[[int], None]

#: one rank's ``(start, duration)`` per phase of a ``run_step``
Timings = List[Tuple[float, float]]

#: Every value ``SolverConfig.executor`` / ``--executor`` accepts.
EXECUTOR_KINDS: Tuple[str, ...] = ("lockstep", "process")


def check_step_names(
    phases: Sequence[PhaseFn], names: Sequence[Optional[str]]
) -> None:
    """``run_step`` takes one span name (or None) per phase."""
    if len(names) != len(phases):
        raise RuntimeSimError("run_step needs one span name per phase")


class LockstepExecutor:
    """Runs per-rank phase functions in lockstep."""

    def __init__(self, num_ranks: int, tracer=None) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("executor needs at least one rank")
        self.num_ranks = num_ranks
        self.phases_run = 0
        self.tracer = get_tracer() if tracer is None else tracer
        #: each rank's ``(start, duration)`` in the last ``run_phase``
        self.phase_timings: Timings = []

    def run_phase(
        self,
        fn: PhaseFn,
        name: Optional[str] = None,
        ctx: Optional[dict] = None,
    ) -> None:
        """Invoke ``fn(rank)`` for every rank, in rank order.

        With an enabled tracer and a ``name``, each rank's call is
        wrapped in a span of that name tagged with the rank.  Each
        rank's call is timed outside its span (so the interval encloses
        it) into :attr:`phase_timings`.  ``ctx`` exists for signature
        parity with the process executor (which ships it to the
        workers); in-process the phase bodies read the owning object's
        attributes directly, so it is ignored.
        """
        tracer = self.tracer
        traced = name is not None and tracer.enabled
        clock = time.perf_counter
        timings: Timings = []
        for rank in range(self.num_ranks):
            t0 = clock()
            if traced:
                with tracer.span(name, rank=rank):
                    fn(rank)
            else:
                fn(rank)
            timings.append((t0, clock() - t0))
        self.phase_timings = timings
        self.phases_run += 1

    def run_step(
        self,
        phases: Sequence[PhaseFn],
        names: Sequence[Optional[str]],
        ctx: Optional[dict] = None,
    ) -> List[Timings]:
        """Run one iteration phase-major: a barrier after every phase.

        In-process ranks share one :class:`~repro.runtime.simmpi.SimComm`
        whose receive raises on an empty queue instead of waiting, so the
        only safe order is every rank finishing phase ``i`` before any
        rank starts ``i + 1`` — through :meth:`run_phase`, looked up on
        the instance so a wrapper around it sees every phase.  Returns
        each rank's per-phase ``(start, duration)`` list, read from
        :attr:`phase_timings` rather than a return value for the same
        reason.
        """
        check_step_names(phases, names)
        per_rank: List[Timings] = [[] for _ in range(self.num_ranks)]
        for fn, name in zip(phases, names):
            self.run_phase(fn, name=name, ctx=ctx)
            for timings, interval in zip(per_rank, self.phase_timings):
                timings.append(interval)
        return per_rank


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
