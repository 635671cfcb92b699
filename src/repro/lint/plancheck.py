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
K402    a gather source is out of bounds or a table has the wrong
        dtype (``np.take(mode="clip")`` would silently clamp it)
K404    a frontier cross-link is not covered by exactly one packed
        payload slot, or sender and receiver disagree on a slot's
        population (receiver-side table agreement)
K405    a read-after-write / write-after-write hazard in the overlap
        pipeline, found by abstract interpretation of the phase order
        and read/write sets ``lbm.distributed.OVERLAP_SCHEDULE``
        declares (the schedule the solver's step loop executes)
K406    an index table violates the compiled-kernel ABI: the flat
        gather table, update ids and the ``(heads, lens)`` run table
        must be int64, the tables C-contiguous and ``heads`` shaped
        ``(n_runs, 2)`` (the compiled tier indexes them through raw
        pointers)
K407    the run table the compiled stream kernel launches over does
        not expand to exactly the plan's link set — a gap, an overlap,
        a run crossing the end of ``f`` or longer than the cap (the
        kernel would copy other data than ``StepPlan.apply`` gathers)
======  ==============================================================

(The id after K402 is retired: it verified interior/frontier sub-plans
that no kernel applied.  What the overlapped tables that *do* run must
satisfy is K404 + K405 and, at runtime, the sanitizer; DESIGN §12.)

Every check reads the one :class:`~repro.lbm.rankplan.RankPlan` value:
:class:`~repro.lbm.distributed.DistributedSolver` runs
:func:`verify_rank_plans` on the plans it is about to instantiate, as an
opt-out pre-flight next to the S300 schedule check, and ``repro lint``
checks any ``*.stepplan.json`` document it finds through the same
value's codec (see :func:`check_plan_file` for the format).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from ..core.errors import PlanCheckError, ReproError
from ..core.planmeta import (
    duplicate_values,
    kernel_abi_issues,
    out_of_range,
    run_table_issues,
)
from ..lbm.rankplan import RankPlan, plans_of
from ..lbm.stream import StepPlan
from .engine import Violation

__all__ = [
    "PLAN_RULES",
    "PlanIssue",
    "check_plan_table",
    "check_exchange",
    "check_overlap_hazards",
    "check_rank_states",
    "verify_rank_plans",
    "verify_plan",
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
    vals = np.asarray(values).reshape(-1)[:limit].tolist()
    suffix = ", ..." if np.asarray(values).size > limit else ""
    return f"[{', '.join(str(v) for v in vals)}{suffix}]"


def _ghost_slot_mask(q: int, num_local: int, num_owned: int) -> np.ndarray:
    """Boolean mask over the flattened ``(q, num_local)`` source array
    that is True on every ghost slot."""
    mask = np.zeros(q * num_local, dtype=bool)
    cols = np.zeros(num_local, dtype=bool)
    cols[num_owned:] = True
    mask.reshape(q, num_local)[:, :] = cols[None, :]
    return mask


# -- single-table checks (K401 / K402 / K406 / K407) -----------------------
def check_plan_table(
    q: int,
    num_local: int,
    update_ids: np.ndarray,
    flat_src: np.ndarray,
    label: str = "plan",
    run_table=None,
) -> List[PlanIssue]:
    """Verify one flat gather table in isolation.

    * every destination ``(population, node)`` is written at most once
      per apply (K401);
    * sources are integer-typed and inside the flattened source array,
      destinations inside the local numbering (K402);
    * the tables honour the compiled-kernel ABI — int64 dtype and
      C-contiguous (K406);
    * ``run_table``, the ``(heads, lens)`` pair a compiled engine asked
      the plan for (None when no engine did), expands to exactly the
      table's link set (K407).
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
    bad_src = out_of_range(flat_src, q * num_local)
    if bad_src.size:
        issues.append(
            PlanIssue(
                "source-bounds",
                f"{label}: {bad_src.size} gather source(s) outside "
                f"[0, {q * num_local}) (e.g. {_preview(bad_src)}); "
                "np.take(mode='clip') would silently clamp them",
            )
        )
    abi = kernel_abi_issues(flat_src, update_ids, run_table)
    issues += [PlanIssue("kernel-abi", f"{label}: {m}") for m in abi]
    if run_table is not None and not abi:
        issues += [
            PlanIssue("run-table", f"{label}: {m}")
            for m in run_table_issues(
                *run_table, flat_src, update_ids, num_local
            )
        ]
    return issues


# -- cross-rank exchange checks (K404) --------------------------------------
def check_exchange(ranks: Sequence[RankPlan]) -> List[PlanIssue]:
    """Verify the packed-exchange wiring across all ranks (K404).

    Every halo-reading link of a receiver must be fed by exactly one
    payload slot (``recv_flat``), every slot must be packed by the owning
    sender (``send_flat``) with the agreeing length, pack sources must
    be owned (post-collision) values, and sender and receiver must agree
    slot by slot on the population each value carries — the
    receiver-side table agreement the scatter path relies on.
    """
    issues: List[PlanIssue] = []
    by_rank = {st.rank: st for st in ranks}
    for st in ranks:
        rank = st.rank
        num_local = st.step_plan.num_local
        inj_flat = st.recv_flat
        dst_flat, src_flat = st.step_plan.cross_links(st.num_owned)
        label = f"rank {rank}"

        inj_all = (
            np.concatenate([np.asarray(v) for v in inj_flat.values()])
            if inj_flat
            else np.empty(0, dtype=np.int64)
        )
        dup = duplicate_values(inj_all)
        if dup.size:
            issues.append(
                PlanIssue(
                    "exchange-coverage",
                    f"{label}: {dup.size} frontier destination(s) are fed "
                    f"by more than one payload slot (e.g. {_preview(dup)})",
                )
            )
        missing = np.setdiff1d(dst_flat, inj_all)
        if missing.size:
            issues.append(
                PlanIssue(
                    "exchange-coverage",
                    f"{label}: {missing.size} cross-link destination(s) "
                    f"have no payload slot (e.g. {_preview(missing)}); "
                    "their streamed values would keep stale ghost data",
                )
            )
        extra = np.setdiff1d(inj_all, dst_flat)
        if extra.size:
            issues.append(
                PlanIssue(
                    "exchange-coverage",
                    f"{label}: {extra.size} payload slot(s) target "
                    f"destinations with no halo-reading link (e.g. "
                    f"{_preview(extra)})",
                )
            )

        for peer_rank in sorted(inj_flat):
            inj = np.asarray(inj_flat[peer_rank], dtype=np.int64)
            peer = by_rank.get(int(peer_rank))
            if peer is None:
                issues.append(
                    PlanIssue(
                        "exchange-coverage",
                        f"{label}: expects payloads from unknown rank "
                        f"{peer_rank}",
                    )
                )
                continue
            pack = peer.send_flat
            if rank not in pack:
                issues.append(
                    PlanIssue(
                        "exchange-coverage",
                        f"{label}: expects a payload from rank "
                        f"{peer_rank}, but rank {peer_rank} packs "
                        "nothing for it",
                    )
                )
                continue
            sent = np.asarray(pack[rank], dtype=np.int64)
            if sent.size != inj.size:
                issues.append(
                    PlanIssue(
                        "exchange-coverage",
                        f"rank {peer_rank} -> {label}: pack table has "
                        f"{sent.size} slot(s) but the receiver scatters "
                        f"{inj.size}; the payload would mis-scatter",
                    )
                )
                continue
            peer_local = peer.step_plan.num_local
            not_owned = sent[(sent % peer_local) >= peer.num_owned]
            if not_owned.size:
                issues.append(
                    PlanIssue(
                        "exchange-coverage",
                        f"rank {peer_rank} -> {label}: {not_owned.size} "
                        "pack source(s) read ghost slots of the sender "
                        f"(e.g. {_preview(not_owned)}); packed values "
                        "must be owned post-collision data",
                    )
                )
            # receiver-side table agreement: slot i carries the same
            # population on both sides (node ids differ by numbering)
            order = {int(v): i for i, v in enumerate(dst_flat.tolist())}
            idx = np.array(
                [order.get(int(v), -1) for v in inj.tolist()], dtype=np.int64
            )
            known = idx >= 0
            if known.any():
                recv_pops = src_flat[idx[known]] // num_local
                sent_pops = sent[known] // peer_local
                disagree = np.flatnonzero(recv_pops != sent_pops)
                if disagree.size:
                    issues.append(
                        PlanIssue(
                            "exchange-coverage",
                            f"rank {peer_rank} -> {label}: sender and "
                            f"receiver disagree on the population of "
                            f"{disagree.size} payload slot(s) (first at "
                            f"slot {int(disagree[0])}); the tables were "
                            "not built from the same cross-link "
                            "enumeration",
                        )
                    )
    return issues


# -- phase-ordered hazard analysis (K405) -----------------------------------
def check_overlap_hazards(
    st: RankPlan, schedule: Optional[Sequence[Any]] = None
) -> List[PlanIssue]:
    """Abstract-interpret one rank's overlap pipeline for hazards (K405).

    The phase order is read from ``schedule`` — by default the
    :data:`~repro.lbm.distributed.OVERLAP_SCHEDULE` the solver's step
    loop executes.  Walking it with stale/tainted flat-slot sets finds:

    * a phase reading a buffer no earlier phase wrote (only ``f`` is
      carried over from the previous step) — e.g. a frontier scatter
      scheduled before the exchange completes;
    * a pack table reading a stale ghost slot (read-after-write
      violation: the value was never produced this step);
    * a scatter overwriting a destination the stream already finalized
      (write-after-write against interior-final data);
    * a provisional destination never finalized by any scatter
      (stale-ghost value surviving into the owned state).
    """
    plan = st.step_plan
    if schedule is None:
        from ..lbm.distributed import OVERLAP_SCHEDULE as schedule
    q, num_local = plan.q, plan.num_local
    label = f"rank {st.rank}"
    issues: List[PlanIssue] = []

    def hazard(message: str) -> None:
        issues.append(PlanIssue("phase-hazard", f"{label}: {message}"))

    stale = _ghost_slot_mask(q, num_local, st.num_owned)
    tainted = np.zeros(q * num_local, dtype=bool)
    written = {"f"}
    for phase in schedule:
        for buf in set(phase.reads) - written:
            hazard(
                f"phase {phase.span!r} ({phase.body}) reads {buf} before "
                "any phase has written it"
            )
        written.update(phase.writes)
        if phase.body == "_phase_exchange_post":
            # pack tables read post-collision f
            for peer, table in sorted(st.send_flat.items()):
                pack = np.asarray(table, dtype=np.int64)
                in_bounds = pack[(pack >= 0) & (pack < stale.size)]
                bad = in_bounds[stale[in_bounds]]
                if bad.size:
                    hazard(
                        f"pack for rank {peer} reads {bad.size} stale "
                        f"ghost slot(s) (e.g. {_preview(bad)}) in the post "
                        "phase; no phase has written them this step"
                    )
        elif phase.body == "_phase_stream_interior":
            # writes the flat destinations; links sourced from stale
            # slots produce provisional (tainted) values (found with
            # boolean temporaries only, no (q, n) int64 copy of the table)
            flat_src = np.asarray(plan.flat_src, dtype=np.int64)
            valid = (flat_src >= 0) & (flat_src < stale.size)
            links = valid & np.take(stale, flat_src, mode="clip")
            qi, col = np.nonzero(links)
            tainted_dst = qi * num_local + plan.update_ids[col]
            ok = (tainted_dst >= 0) & (tainted_dst < tainted.size)
            tainted[tainted_dst[ok]] = True
        elif phase.body == "_phase_stream_frontier":
            # injection tables finalize provisional values
            for peer, table in sorted(st.recv_flat.items()):
                inj = np.asarray(table, dtype=np.int64)
                inj = inj[(inj >= 0) & (inj < tainted.size)]
                final_overwrite = inj[~tainted[inj]]
                if final_overwrite.size:
                    hazard(
                        f"scatter of rank {peer}'s payload overwrites "
                        f"{final_overwrite.size} destination(s) the stream "
                        "phase already finalized (e.g. "
                        f"{_preview(final_overwrite)}); write-after-write "
                        "against interior-final data"
                    )
                tainted[inj] = False

    remaining = np.flatnonzero(tainted)
    if remaining.size:
        hazard(
            f"{remaining.size} frontier destination(s) are never "
            f"finalized by any scatter (e.g. {_preview(remaining)}); their "
            "provisional stale-ghost values survive into the owned state"
        )
    return issues


def _barrier_ghost_coverage(st: RankPlan) -> List[PlanIssue]:
    """Barrier-schedule analogue of the hazard check: every ghost node
    the plan reads must be refilled by some posted receive."""
    plan = st.step_plan
    if plan.num_local <= st.num_owned:
        return []  # no ghost columns: no source node can be a ghost
    src_nodes = np.asarray(plan.flat_src, dtype=np.int64) % plan.num_local
    ghost_read = np.unique(src_nodes[src_nodes >= st.num_owned])
    refilled = (
        np.concatenate(list(st.recv_flat.values())) % plan.num_local
        if st.recv_flat
        else np.empty(0, dtype=np.int64)
    )
    uncovered = np.setdiff1d(ghost_read, refilled)
    if uncovered.size:
        return [
            PlanIssue(
                "phase-hazard",
                f"rank {st.rank}: streaming reads {uncovered.size} ghost "
                f"node(s) no receive refills (e.g. {_preview(uncovered)}); "
                "those links read stale halo data every step",
            )
        ]
    return []


# -- entry points -----------------------------------------------------------
def check_rank_states(
    ranks: Sequence[object], overlap: bool = False
) -> List[PlanIssue]:
    """All verification failures of the ranks' plan IR (empty when valid).

    ``ranks`` are :class:`~repro.lbm.rankplan.RankPlan` values, or rank
    states carrying one as ``plan``.
    """
    plans = plans_of(ranks)
    issues: List[PlanIssue] = []
    for st in plans:
        plan = st.step_plan
        issues += check_plan_table(
            plan.q,
            plan.num_local,
            plan.update_ids,
            plan.flat_src,
            label=f"rank {st.rank}",
            run_table=plan.run_table,
        )
        if overlap:
            issues += check_overlap_hazards(st)
        else:
            issues += _barrier_ghost_coverage(st)
    if overlap:
        issues += check_exchange(plans)
    return issues


def verify_rank_plans(
    ranks: Sequence[object], overlap: bool = False, context: str = ""
) -> None:
    """Raise :class:`PlanCheckError` when the ranks' plan IR is invalid."""
    issues = check_rank_states(ranks, overlap=overlap)
    if issues:
        prefix = f"{context}: " if context else ""
        detail = "\n".join(f"  [{i.rule}] {i.message}" for i in issues)
        raise PlanCheckError(
            f"{prefix}step-plan IR failed static verification "
            f"({len(issues)} issue(s)):\n{detail}"
        )


def verify_plan(plan: StepPlan, context: str = "") -> None:
    """Raise :class:`PlanCheckError` when one single-domain plan's table
    is invalid (K401/K402/K406/K407; no ghosts, so no exchange)."""
    issues = check_plan_table(
        plan.q,
        plan.num_local,
        plan.update_ids,
        plan.flat_src,
        label=context or "plan",
        run_table=plan.run_table,
    )
    if issues:
        detail = "\n".join(f"  [{i.rule}] {i.message}" for i in issues)
        raise PlanCheckError(
            f"step plan failed static verification "
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
    rank::

        {"overlap": true,
         "ranks": [{"q": 19, "rank": 0, "num_local": 8,
                    "update_ids": [...], "flat_src": [[...]],
                    "run_table": {"heads": [[dst0, src0], ...],
                                  "lens": [...]},
                    "owned_global": [...], "ghost_global": [...],
                    "inlet_nodes": [...], "outlet_nodes": [...],
                    "send_flat": {"1": [...]}, "recv_flat": {"1": [...]}}]}

    (``run_table`` is present when a compiled engine launched over the
    plan; K407 checks it against ``flat_src``.)

    A bare single-plan document (``{"q", "num_local", "update_ids",
    "flat_src"}``) is accepted as a one-rank, non-overlap case.
    """
    p = Path(path)
    try:
        data = json.loads(p.read_text())
        if not isinstance(data, dict):
            raise PlanCheckError("document must be a JSON object")
        docs = data["ranks"] if "ranks" in data else [data]
        issues = check_rank_states(
            [RankPlan.from_dict(doc) for doc in docs],
            overlap=bool(data.get("overlap", False)),
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
