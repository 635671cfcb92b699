"""Static verification of communication schedules.

A mismatched halo exchange — a send with no matching receive, a reused
tag, a receive completed before anything was sent — deadlocks or
corrupts a distributed LBM run, and both miniLB and the HemeLB GPU port
report catching exactly this class of bug only at scale.  This module
checks the *plan* instead of the execution: given the per-rank program
order of one lockstep iteration's non-blocking posts, compute phases and
waits, it verifies

* **matching** — every ``(src → dst, tag)`` send has a matching receive
  and vice versa (S301/S302), with element counts agreeing side to side
  (S304);
* **tag uniqueness** — no ``(src, dst)`` pair reuses a tag within the
  step, which would make message identity ambiguous (S303);
* **progress** — every ``wait`` is eventually fed its message; a stalled
  fixed point is reported as a deadlock with the stuck head operations
  (S305).

:class:`~repro.lbm.distributed.DistributedSolver` runs this as an
opt-out pre-flight over the schedule :func:`schedule_from_rank_states`
derives from its rank plans, and :class:`~repro.runtime.simmpi.SimComm`
enforces the tag rule as a debug assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.errors import CommScheduleError
from ..lbm.rankplan import plans_of

__all__ = [
    "CommOp",
    "CommSchedule",
    "ScheduleIssue",
    "check_schedule",
    "verify_schedule",
    "schedule_from_rank_states",
    "SCHEDULE_RULES",
]

#: Rule ids emitted by the checker, by failure kind.
SCHEDULE_RULES = {
    "unmatched-recv": "S301",
    "unmatched-send": "S302",
    "tag-collision": "S303",
    "count-mismatch": "S304",
    "deadlock": "S305",
}


@dataclass(frozen=True)
class CommOp:
    """One operation in a rank's program order.

    ``count`` is the number of payload elements per message (0 when
    unknown — count checks are skipped for that message).  ``"send"``
    and ``"recv"`` are non-blocking posts (``MPI_Isend``/``MPI_Irecv``):
    a send delivers its message, a receive post never stalls.  Two
    non-message kinds model overlapped pipelines: ``"compute"`` is a
    local phase that never stalls (interior streaming between exchange
    post and completion), and ``"wait"`` completes a previously posted
    receive — it stalls until the matching message has been sent, and
    it is what consumes the message (the post does not).  This lets the
    checker verify post → compute → wait schedules without reporting the
    in-flight window as a deadlock.
    """

    kind: str  # "send" | "recv" | "wait" | "compute"
    rank: int  # executing rank
    peer: int  # destination (send) or source (recv/wait); rank itself for compute
    tag: int
    count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("send", "recv", "wait", "compute"):
            raise CommScheduleError(f"unknown op kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "compute":
            return f"compute(rank {self.rank})"
        arrow = "->" if self.kind == "send" else "<-"
        return (
            f"{self.kind}(rank {self.rank} {arrow} rank {self.peer}, "
            f"tag {self.tag})"
        )


@dataclass(frozen=True)
class ScheduleIssue:
    """One verification failure."""

    kind: str  # key into SCHEDULE_RULES
    message: str

    @property
    def rule(self) -> str:
        return SCHEDULE_RULES[self.kind]


class CommSchedule:
    """The per-rank program order of one iteration's messages."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise CommScheduleError("schedule needs at least one rank")
        self.num_ranks = num_ranks
        self.ops: List[List[CommOp]] = [[] for _ in range(num_ranks)]

    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self.num_ranks:
            raise CommScheduleError(
                f"{role} rank {rank} out of range [0, {self.num_ranks})"
            )

    def _add(self, op: CommOp) -> None:
        self._check_rank(op.rank, "executing")
        self._check_rank(op.peer, "peer")
        if op.rank == op.peer and op.kind != "compute":
            raise CommScheduleError(
                f"rank {op.rank} cannot message itself (tag {op.tag})"
            )
        self.ops[op.rank].append(op)

    def add_send(self, src: int, dst: int, tag: int, count: int = 0) -> None:
        self._add(CommOp("send", src, dst, tag, count))

    def add_recv(self, dst: int, src: int, tag: int, count: int = 0) -> None:
        self._add(CommOp("recv", dst, src, tag, count))

    def add_wait(
        self, dst: int, src: int, tag: int, count: int = 0
    ) -> None:
        """Complete a posted receive: stalls until its message is sent."""
        self._add(CommOp("wait", dst, src, tag, count))

    def add_compute(self, rank: int) -> None:
        """A local compute phase; never stalls the rank."""
        self._add(CommOp("compute", rank, rank, tag=0))

    @property
    def num_ops(self) -> int:
        return sum(len(rank_ops) for rank_ops in self.ops)


def _matching_issues(sched: CommSchedule) -> List[ScheduleIssue]:
    issues: List[ScheduleIssue] = []
    sends: Dict[Tuple[int, int, int], List[CommOp]] = {}
    recvs: Dict[Tuple[int, int, int], List[CommOp]] = {}
    for rank_ops in sched.ops:
        for op in rank_ops:
            # match kinds explicitly: "wait" completes an already-counted
            # recv post and "compute" is local, so treating either as a
            # receive would double-count and report phantom S301s
            if op.kind == "send":
                sends.setdefault((op.rank, op.peer, op.tag), []).append(op)
            elif op.kind == "recv":
                recvs.setdefault((op.peer, op.rank, op.tag), []).append(op)

    for key in sorted(set(sends) | set(recvs)):
        src, dst, tag = key
        s = sends.get(key, [])
        r = recvs.get(key, [])
        if len(r) > len(s):
            issues.append(
                ScheduleIssue(
                    "unmatched-recv",
                    f"rank {dst} posts {len(r)} recv(s) from rank {src} "
                    f"tag {tag} but only {len(s)} send(s) are scheduled",
                )
            )
        elif len(s) > len(r):
            issues.append(
                ScheduleIssue(
                    "unmatched-send",
                    f"rank {src} sends {len(s)} message(s) to rank {dst} "
                    f"tag {tag} but only {len(r)} recv(s) are posted",
                )
            )
        # FIFO pairing of counts for the matched prefix
        for i, (sop, rop) in enumerate(zip(s, r)):
            if sop.count and rop.count and sop.count != rop.count:
                issues.append(
                    ScheduleIssue(
                        "count-mismatch",
                        f"message {i} rank {src} -> rank {dst} tag {tag}: "
                        f"send carries {sop.count} element(s) but the recv "
                        f"expects {rop.count}",
                    )
                )

    # tag uniqueness per (src, dst) pair within the step
    by_pair: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (src, dst, tag), ops in sends.items():
        by_pair.setdefault((src, dst), {})[tag] = len(ops)
    for (src, dst), tags in sorted(by_pair.items()):
        for tag, n in sorted(tags.items()):
            if n > 1:
                issues.append(
                    ScheduleIssue(
                        "tag-collision",
                        f"rank {src} -> rank {dst}: tag {tag} is used by "
                        f"{n} sends in one step; message identity is "
                        "ambiguous",
                    )
                )
    return issues


def _progress_issues(sched: CommSchedule) -> List[ScheduleIssue]:
    """Fixed-point simulation: only a ``wait`` can stall its rank."""
    ptr = [0] * sched.num_ranks
    delivered: Dict[Tuple[int, int, int], int] = {}
    progress = True
    while progress:
        progress = False
        for r in range(sched.num_ranks):
            while ptr[r] < len(sched.ops[r]):
                op = sched.ops[r][ptr[r]]
                if op.kind == "send":
                    key = (r, op.peer, op.tag)
                    delivered[key] = delivered.get(key, 0) + 1
                elif op.kind == "wait":
                    # stalls until the message has been sent, then
                    # consumes it (the receive post did not)
                    key = (op.peer, r, op.tag)
                    if delivered.get(key, 0) < 1:
                        break
                    delivered[key] -= 1
                # a receive post and a "compute" never stall: the overlap
                # window between exchange post and completion is legal
                ptr[r] += 1
                progress = True
    stuck = [
        (r, sched.ops[r][ptr[r]])
        for r in range(sched.num_ranks)
        if ptr[r] < len(sched.ops[r])
    ]
    if not stuck:
        return []
    heads = "; ".join(f"rank {r} blocked at {op.describe()}" for r, op in stuck)
    return [
        ScheduleIssue(
            "deadlock",
            f"schedule cannot complete: {heads}",
        )
    ]


def check_schedule(sched: CommSchedule) -> List[ScheduleIssue]:
    """All verification failures of ``sched`` (empty when valid)."""
    return _matching_issues(sched) + _progress_issues(sched)


def verify_schedule(sched: CommSchedule, context: str = "") -> None:
    """Raise :class:`CommScheduleError` when ``sched`` is invalid."""
    issues = check_schedule(sched)
    if issues:
        prefix = f"{context}: " if context else ""
        detail = "\n".join(
            f"  [{i.rule}] {i.message}" for i in issues
        )
        raise CommScheduleError(
            f"{prefix}communication schedule failed static verification "
            f"({len(issues)} issue(s)):\n{detail}"
        )


def schedule_from_rank_states(
    ranks: Sequence[object],
    num_ranks: int,
    tag: int = 1,
    overlap: bool = False,
) -> CommSchedule:
    """Build the halo-exchange schedule of one iteration.

    ``ranks`` are :class:`~repro.lbm.rankplan.RankPlan` values (or rank
    states carrying one as ``plan``); the messages are their
    ``recv_flat`` (src rank -> indices written) and ``send_flat`` (dst
    rank -> indices packed) tables.  Receives are posted first, then
    sends, all non-blocking — the ``MPI_Irecv``/``MPI_Isend`` order an
    MPI transport under ``DistributedSolver._phase_exchange_post`` /
    ``_phase_exchange_complete`` posts them in.  Counts are values per
    message, so a send/recv size disagreement between two ranks' wiring
    surfaces as S304 before any data moves.

    With ``overlap=True`` the schedule is the interior/frontier
    pipeline's: after the posts, a ``compute`` op for interior streaming,
    then ``wait`` ops completing the receives — so the checker verifies
    that straddling the compute phase still drains every message.
    """
    sched = CommSchedule(num_ranks)
    for plan in plans_of(ranks):
        rank = plan.rank
        recvs = sorted((src, len(t)) for src, t in plan.recv_flat.items())
        for src, count in recvs:
            sched.add_recv(rank, src, tag, count=count)
        for dst in sorted(plan.send_flat):
            sched.add_send(rank, dst, tag, count=len(plan.send_flat[dst]))
        if overlap:
            sched.add_compute(rank)
            for src, count in recvs:
                sched.add_wait(rank, src, tag, count=count)
    return sched
