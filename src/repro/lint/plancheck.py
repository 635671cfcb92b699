"""Static verification of step plans — the plan-IR race detector.

The fused :class:`~repro.lbm.stream.StepPlan` gather table is the
solver's kernel IR, and under the overlapped pipeline it is a genuinely
concurrent one: interior streaming runs while the packed exchange is in
flight and the frontier scatter finalizes provisional values.  The S3xx
checker verifies the *message* schedule; this module verifies the *index
tables* those messages feed — the class of data-movement/synchronization
bug the paper's DPCT audit calls the hardest to port correctly.

Six rules, mirroring the S3xx structure:

======  ==============================================================
K401    a flat destination is written more than once per apply
        (write/write race whose outcome depends on gather order)
K402    a gather source is out of bounds (the halo placeholder -1 is
        the one out-of-range source allowed) or a table has the wrong
        dtype (``np.take(mode="clip")`` would silently clamp it)
K404    a receive slot is not fed the (population, global node) its
        cross link reads (``recv_global``) by an owned ``send_flat``
        slot, the receive slots are not the cross-link destinations
        (the -1 sources) each once, or a peer is mis-wired (unknown,
        one-sided, or of another length)
K405    the declared phase order of the active schedule
        (``lbm.distributed.schedule_for``: ``BARRIER_SCHEDULE`` /
        ``OVERLAP_SCHEDULE``, ``ONE_PASS_SCHEDULE`` for one rank)
        reads a buffer no earlier phase wrote, or writes ``f_tmp``
        after the double-buffer swap
K406    an index table violates the compiled-kernel ABI: the flat
        gather table, update ids, the ``(heads, lens)`` run table and
        a tile table's ``tile_ptr`` must be int64, the tables
        C-contiguous and ``heads`` shaped ``(n_runs, 2)`` (the compiled
        tier indexes them through raw pointers)
K407    the run table the compiled stream kernel launches over does
        not expand to exactly the plan's link set — a gap, an overlap,
        a run crossing the end of ``f`` or longer than the cap (the
        kernel would copy other data than ``StepPlan.apply`` gathers);
        or a one-pass tile table files a run under a tile whose stage
        it reads outside of, or does not re-merge into the link set
======  ==============================================================

(The id after K402 is retired: it verified interior/frontier sub-plans
that no kernel applied.  What the exchange tables that *do* run must
satisfy is K404 and, at runtime, the sanitizer; DESIGN §12.)

Every check reads the one :class:`~repro.lbm.rankplan.RankPlan` value:
:class:`~repro.lbm.distributed.DistributedSolver` runs
:func:`verify_rank_plans` on the plans it is about to instantiate, as an
opt-out pre-flight next to the S301-S305 schedule pre-flight, and
``repro lint`` checks any ``*.stepplan.json`` document it finds through
the same value's codec (see :func:`check_plan_file` for the format).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..core.errors import PlanCheckError, ReproError
from ..core.planmeta import (
    HALO,
    duplicate_values,
    kernel_abi_issues,
    out_of_range,
    run_table_issues,
    tile_table_issues,
)
from ..lbm.distributed import Phase, schedule_for
from ..lbm.rankplan import RankPlan, plans_of
from ..lbm.stream import StepPlan
from .engine import Violation

__all__ = [
    "PLAN_RULES",
    "PlanIssue",
    "check_plan_table",
    "check_exchange",
    "check_phase_order",
    "check_rank_states",
    "verify_rank_plans",
    "rank_states_to_dict",
    "check_plan_file",
]

#: Rule ids emitted by the verifier, by failure kind.
PLAN_RULES = {
    "double-write": "K401",
    "source-bounds": "K402",
    "exchange-coverage": "K404",
    "phase-hazard": "K405",
    "kernel-abi": "K406",
    "run-table": "K407",
}


@dataclass(frozen=True)
class PlanIssue:
    """One plan-verification failure."""

    kind: str  # key into PLAN_RULES
    message: str

    @property
    def rule(self) -> str:
        return PLAN_RULES[self.kind]


def _preview(values: np.ndarray, limit: int = 4) -> str:
    flat = np.asarray(values).reshape(-1)
    suffix = ", ..." if flat.size > limit else ""
    return f"[{', '.join(str(v) for v in flat[:limit])}{suffix}]"


# -- single-table checks (K401 / K402 / K406 / K407) -----------------------
def check_plan_table(
    q: int,
    num_local: int,
    update_ids: np.ndarray,
    flat_src: np.ndarray,
    label: str = "plan",
    run_table=None,
    tile_table=None,
) -> List[PlanIssue]:
    """Verify one flat gather table in isolation.

    * every destination ``(population, node)`` is written at most once
      per apply (K401);
    * sources are integer-typed and inside the flattened source array
      or the halo placeholder -1, destinations inside the local
      numbering (K402);
    * the tables honour the compiled-kernel ABI — int64 dtype and
      C-contiguous (K406);
    * ``run_table``, the ``(heads, lens)`` pair a compiled engine asked
      the plan for (None when no engine did), expands to exactly the
      table's link set; a one-pass plan's ``(tile_ptr, heads, lens)``
      ``tile_table`` reads each run inside its tile's stage and
      re-merges into the link set (K407).
    """
    issues: List[PlanIssue] = []
    update_ids = np.asarray(update_ids)
    flat_src = np.asarray(flat_src)

    if not np.issubdtype(flat_src.dtype, np.integer):
        issues.append(
            PlanIssue(
                "source-bounds",
                f"{label}: gather table dtype is {flat_src.dtype}, not an "
                "integer type; fractional indices truncate silently",
            )
        )
        return issues
    if flat_src.shape != (int(q), int(update_ids.size)):
        issues.append(
            PlanIssue(
                "source-bounds",
                f"{label}: gather table shape {flat_src.shape} does not "
                f"match (q={q}, num_update={update_ids.size})",
            )
        )
        return issues

    dup = duplicate_values(update_ids)
    if dup.size:
        issues.append(
            PlanIssue(
                "double-write",
                f"{label}: {dup.size} node(s) appear more than once in "
                f"the update set (e.g. {_preview(dup)}); every flat "
                "destination would be written twice per apply",
            )
        )
    bad_dst = out_of_range(update_ids, num_local)
    if bad_dst.size:
        issues.append(
            PlanIssue(
                "source-bounds",
                f"{label}: {bad_dst.size} update id(s) outside "
                f"[0, {num_local}) (e.g. {_preview(bad_dst)})",
            )
        )
    bad_src = out_of_range(flat_src, q * num_local, lo=HALO)
    if bad_src.size:
        issues.append(
            PlanIssue(
                "source-bounds",
                f"{label}: {bad_src.size} gather source(s) outside "
                f"[0, {q * num_local}) and not the halo placeholder "
                f"{HALO} (e.g. {_preview(bad_src)}); np.take(mode='clip') "
                "would silently clamp them",
            )
        )
    tile_ptr = None
    if tile_table is not None:
        tile_ptr, *run_table = tile_table
    abi = kernel_abi_issues(flat_src, update_ids, run_table, tile_ptr)
    issues += [PlanIssue("kernel-abi", f"{label}: {m}") for m in abi]
    if run_table is not None and not abi:
        if tile_ptr is None:
            found = run_table_issues(*run_table, flat_src, update_ids, num_local)
        else:
            found = tile_table_issues(
                tile_ptr, *run_table, flat_src, update_ids, num_local
            )
        issues += [PlanIssue("run-table", f"{label}: {m}") for m in found]
    return issues


def _step_plan_issues(plan: StepPlan, label: str) -> List[PlanIssue]:
    return check_plan_table(
        plan.q,
        plan.num_local,
        plan.update_ids,
        plan.flat_src,
        label=label,
        run_table=plan.run_table,
        tile_table=plan.tile_table,
    )


# -- the exchange verifier (K404) -------------------------------------------
def _coverage(st: RankPlan, slots: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    """``(hit, messages)``: which receive slots of ``st`` are cross-link
    destinations (the links gathering the halo placeholder), and the
    coverage findings."""
    dst = np.sort(st.step_plan.cross_links())
    at = np.searchsorted(dst, slots)
    hit = at < dst.size
    hit[hit] = dst[at[hit]] == slots[hit]
    fed = np.bincount(at[hit], minlength=dst.size)
    found = [
        (dst[fed > 1], "cross-link destination(s) are fed by more than "
         "one payload slot"),
        (dst[fed == 0], "cross-link destination(s) have no payload slot; "
         "their streamed values would keep the placeholder"),
        (np.unique(slots[~hit]), "payload slot(s) target destinations "
         "with no halo-reading link"),
    ]
    messages = [
        f"{bad.size} {what} (e.g. {_preview(bad)})"
        for bad, what in found
        if bad.size
    ]
    return hit, messages


def _is_link_table(plan: StepPlan) -> bool:
    # one read: a released plan re-expands flat_src on each access
    table = plan.flat_src
    return table.shape == (plan.q, plan.num_update) and bool(
        np.issubdtype(table.dtype, np.integer)
    )


def check_exchange(plans: Sequence[RankPlan]) -> List[PlanIssue]:
    """Verify the halo exchange across all ranks (K404).

    Both schedules run the one packed cross-link exchange.  Each receive
    slot needs a (population, global node): the population of the
    cross link whose destination it is, and the upstream node
    ``recv_global`` names.  The sender's ``send_flat`` slot, an owned
    slot mapped through ``owned_global``, must carry exactly that.  The
    receive slots must be the cross-link destinations, each once; and
    every receive needs a pack table of its length on a known rank, every
    pack table a receive.
    """
    issues: List[PlanIssue] = []

    def report(message: str) -> None:
        issues.append(PlanIssue("exchange-coverage", message))

    by_rank = {st.rank: st for st in plans}
    for st in plans:
        for dst in sorted(st.send_flat):
            if st.rank not in getattr(by_rank.get(dst), "recv_flat", {}):
                report(
                    f"rank {st.rank}: packs a payload for rank {dst}, which "
                    "posts no receive for it"
                )

    for st in plans:
        plan = st.step_plan
        if not _is_link_table(plan):
            continue  # K402 reports the table; it defines no link set
        label = f"rank {st.rank}"
        peers = sorted(st.recv_flat)
        written = [np.asarray(st.recv_flat[p], dtype=np.int64) for p in peers]
        slots = (
            np.concatenate(written) if written else np.empty(0, dtype=np.int64)
        )
        hit, messages = _coverage(st, slots)
        for message in messages:
            report(f"{label}: {message}")
        start = 0
        for peer, recv in zip(peers, written):
            fed = hit[start:start + recv.size]
            start += recv.size
            sender = by_rank.get(peer)
            if sender is None or st.rank not in sender.send_flat:
                report(
                    f"{label}: expects a payload from rank {peer}, but "
                    + ("there is no such rank" if sender is None
                       else f"rank {peer} packs nothing for it")
                )
                continue
            link = f"rank {peer} -> {label}"
            sent = np.asarray(sender.send_flat[st.rank], dtype=np.int64)
            if sent.size != recv.size:
                report(
                    f"{link}: pack table has {sent.size} slot(s) but the "
                    f"receiver scatters {recv.size}; the payload would "
                    "mis-scatter"
                )
                continue
            peer_plan = sender.step_plan
            owned = (sent >= 0) & (sent < peer_plan.q * peer_plan.num_local)
            owned[owned] = sent[owned] % peer_plan.num_local < sender.num_owned
            if not owned.all():
                report(
                    f"{link}: {int((~owned).sum())} pack source(s) are not "
                    f"owned slots of the sender (e.g. {_preview(sent[~owned])}"
                    "); packed values must be owned post-collision data"
                )
            carried = np.asarray(
                st.recv_global.get(peer, ()), dtype=np.int64
            ).reshape(-1)
            if carried.size != recv.size:
                report(
                    f"{link}: recv_global names {carried.size} node(s) for "
                    f"{recv.size} payload slot(s); the slots have no node "
                    "identity"
                )
                continue
            checked = np.flatnonzero(owned & fed)
            need_pop = recv[checked] // plan.num_local
            sent_pop, sent_node = np.divmod(sent[checked], peer_plan.num_local)
            need_gid = carried[checked]
            sent_gid = sender.owned_global[sent_node]
            wrong = np.flatnonzero(
                (need_pop != sent_pop) | (need_gid != sent_gid)
            )
            if wrong.size:
                i = wrong[0]
                report(
                    f"{link}: {wrong.size} payload slot(s) carry another "
                    "(population, global node) than the receiver needs "
                    f"(first at slot {checked[i]}: packed ({sent_pop[i]}, "
                    f"{sent_gid[i]}), needed ({need_pop[i]}, {need_gid[i]}))"
                )
    return issues


# -- declared phase order (K405) --------------------------------------------
def check_phase_order(schedule: Sequence[Phase]) -> List[PlanIssue]:
    """Walk a declared schedule for ordering hazards (K405).

    Only ``f`` carries over from the previous step, so a phase reading a
    buffer no earlier phase wrote reads stale data — e.g. a frontier
    scatter scheduled before the exchange completes.  After the swapping
    phase ``f_tmp`` is the retired buffer, so a write to it never reaches
    ``f`` — e.g. an interior stream scheduled after the scatter.
    """
    found: List[str] = []
    written, swapped = {"f"}, False
    for phase in schedule:
        name = f"phase {phase.span!r} ({phase.body})"
        found += [
            f"{name} reads {buf} before any phase has written it"
            for buf in sorted(set(phase.reads) - written)
        ]
        if swapped and "f_tmp" in phase.writes:
            found.append(
                f"{name} writes f_tmp after the double-buffer swap; the "
                "values never reach f"
            )
        written.update(phase.writes)
        swapped = swapped or phase.swaps
    return [PlanIssue("phase-hazard", message) for message in found]


# -- entry points -----------------------------------------------------------
def check_rank_states(
    ranks: Sequence[object], overlap: bool = False
) -> List[PlanIssue]:
    """All verification failures of the ranks' plan IR (empty when valid).

    ``ranks`` are :class:`~repro.lbm.rankplan.RankPlan` values, or rank
    states carrying one as ``plan``.  ``overlap`` picks the schedule the
    K405 walk checks; every other check is the same under either.
    """
    plans = plans_of(ranks)
    issues: List[PlanIssue] = []
    for st in plans:
        issues += _step_plan_issues(st.step_plan, f"rank {st.rank}")
    issues += check_exchange(plans)
    issues += check_phase_order(schedule_for(len(plans), overlap))
    return issues


def verify_rank_plans(
    ranks: Sequence[object], overlap: bool = False, context: str = ""
) -> None:
    """Raise :class:`PlanCheckError` when the ranks' plan IR is invalid."""
    issues = check_rank_states(ranks, overlap)
    if issues:
        prefix = f"{context}: " if context else ""
        detail = "\n".join(f"  [{i.rule}] {i.message}" for i in issues)
        raise PlanCheckError(
            f"{prefix}step-plan IR failed static verification "
            f"({len(issues)} issue(s)):\n{detail}"
        )


# -- serialized plan documents ----------------------------------------------
def rank_states_to_dict(
    ranks: Sequence[object], overlap: bool = False
) -> dict:
    """Serialize rank plans (or live rank states) into a checkable plan
    document: :meth:`RankPlan.to_dict` per rank plus the schedule."""
    return {
        "overlap": bool(overlap),
        "ranks": [plan.to_dict() for plan in plans_of(ranks)],
    }


def check_plan_file(path: Union[str, Path]) -> List[Violation]:
    """Check a serialized plan document, returning engine violations.

    The format is the JSON of :func:`rank_states_to_dict` — one
    :meth:`RankPlan.to_dict <repro.lbm.rankplan.RankPlan.to_dict>` per
    rank, the rank ids 0..n-1 each exactly once::

        {"overlap": true,
         "ranks": [{"q": 19, "rank": 0, "num_local": 8,
                    "update_ids": [...], "flat_src": [[...]],
                    "run_table": {"heads": [[dst0, src0], ...],
                                  "lens": [...]},
                    "owned_global": [...],
                    "inlet_nodes": [...], "outlet_nodes": [...],
                    "send_flat": {"1": [...]}, "recv_flat": {"1": [...]},
                    "recv_global": {"1": [...]}}]}

    (``num_local`` is the owned node count; a ``flat_src`` entry of -1
    is a halo link, whose destination some ``recv_flat`` slot writes
    with the node ``recv_global`` names.)

    (``run_table`` is present when a compiled engine launched over the
    plan, ``"tile_table": {"tile_ptr", "heads", "lens"}`` in its place on
    a one-rank compiled plan; K407 checks either against ``flat_src``.)

    A bare single-plan document (``{"q", "num_local", "update_ids",
    "flat_src"}``) is accepted as a one-rank, non-overlap case.
    """
    p = Path(path)
    try:
        data = json.loads(p.read_text())
        if not isinstance(data, dict):
            raise PlanCheckError("document must be a JSON object")
        docs = data["ranks"] if "ranks" in data else [data]
        plans = [RankPlan.from_dict(doc) for doc in docs]
        ids = sorted(plan.rank for plan in plans)
        if ids != list(range(len(plans))):
            raise PlanCheckError(
                f"rank ids {ids} are not 0..{len(plans) - 1}, each exactly "
                "once"
            )
        issues = check_rank_states(
            plans, overlap=bool(data.get("overlap", False))
        )
    except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
        return [
            Violation(
                rule="K400",
                path=str(p),
                line=1,
                col=0,
                message=f"malformed plan document: {exc!r}",
            )
        ]
    return [
        Violation(
            rule=issue.rule,
            path=str(p),
            line=1,
            col=0,
            message=issue.message,
        )
        for issue in issues
    ]
