"""Per-rank plans: a decomposition pre-processed into index tables.

HARVEY runs one MPI rank per GPU over indirect-addressing tables its
load balancer produces once, before the first iteration.
:func:`build_rank_plans` is that product here: one frozen
:class:`RankPlan` per rank holding tables only — no buffers, no
transport, no solver configuration.
:class:`~repro.lbm.distributed.DistributedSolver` instantiates the plans
(buffers, boundary objects, transport); the static verifiers
(:mod:`repro.lint.plancheck`, :mod:`repro.lint.commcheck`), the runtime
sanitizer and the ``*.stepplan.json`` codec (:meth:`RankPlan.to_dict` /
:meth:`RankPlan.from_dict`) read the same value.

Local numbering of a rank: owned nodes (ascending global id) first, then
ghosts (ascending global id) — the remote upstream neighbours of the
owned nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..core.errors import DecompositionError
from ..core.lattice import Lattice
from ..core.planmeta import flat_destinations
from ..decomp.partition import Partition
from ..geometry.flags import INLET, OUTLET
from ..geometry.voxel import VoxelGrid
from .stream import QPlan, StepPlan, upstream_ids

__all__ = ["RankPlan", "build_rank_plans", "rank_link_lists", "plans_of"]


def _int_table(values: Any) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _peer_tables(mapping: Dict[Any, Any]) -> Dict[int, np.ndarray]:
    return {int(peer): _int_table(table) for peer, table in mapping.items()}


@dataclass(frozen=True, eq=False)
class RankPlan:
    """Everything static about one rank of a decomposition.

    The exchange pair is schedule-neutral: message slot ``i`` from this
    rank to ``dst`` carries ``f.reshape(-1)[send_flat[dst][i]]``
    (post-collision, owned), and the completion of the message from
    ``src`` writes slot ``i`` to flat index ``recv_flat[src][i]`` — a
    ghost slot of ``f`` under the barrier schedule, a halo-sourced link
    destination of ``f_tmp`` under overlap.  ``plans[j].send_flat[r]``
    and ``plans[r].recv_flat[j]`` agree slot for slot.
    """

    rank: int
    owned_global: np.ndarray  # global node ids, ascending
    ghost_global: np.ndarray  # global node ids, ascending
    step_plan: StepPlan  # the rank's one-gather streaming table
    inlet_nodes: np.ndarray  # local ids of the owned INLET nodes
    outlet_nodes: np.ndarray  # local ids of the owned OUTLET nodes
    send_flat: Dict[int, np.ndarray]  # dst rank -> flat gather table into f
    recv_flat: Dict[int, np.ndarray]  # src rank -> flat indices written

    @property
    def num_owned(self) -> int:
        return int(self.owned_global.size)

    def to_dict(self) -> Dict[str, Any]:
        """One rank of a ``*.stepplan.json`` document."""
        plan = self.step_plan
        doc: Dict[str, Any] = {
            "q": int(plan.q),
            "rank": int(self.rank),
            "num_local": int(plan.num_local),
            "update_ids": plan.update_ids.tolist(),
            "flat_src": plan.flat_src.tolist(),
        }
        if plan.run_table is not None:
            heads, lens = plan.run_table
            doc["run_table"] = {"heads": heads.tolist(), "lens": lens.tolist()}
        for name in (
            "owned_global", "ghost_global", "inlet_nodes", "outlet_nodes"
        ):
            doc[name] = getattr(self, name).tolist()
        for name in ("send_flat", "recv_flat"):
            doc[name] = {
                str(peer): table.tolist()
                for peer, table in getattr(self, name).items()
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RankPlan":
        """Inverse of :meth:`to_dict`.

        ``flat_src`` keeps the dtype and shape the document gives it, so
        a fractional or mis-shaped table reaches the verifier (K402/K406)
        instead of being coerced away.  Only ``q``, ``num_local``,
        ``update_ids`` and ``flat_src`` are required: a bare single-plan
        document is rank 0 owning every local node, with no exchange.
        """
        num_local = int(doc["num_local"])
        run_table = doc.get("run_table")
        if run_table is not None:
            run_table = (
                _int_table(run_table["heads"]).reshape(-1, 2),
                _int_table(run_table["lens"]).reshape(-1),
            )
        return cls(
            rank=int(doc.get("rank", 0)),
            owned_global=_int_table(
                doc.get("owned_global", range(num_local))
            ),
            ghost_global=_int_table(doc.get("ghost_global", ())),
            step_plan=StepPlan(
                int(doc["q"]),
                num_local,
                _int_table(doc["update_ids"]),
                np.asarray(doc["flat_src"]),
                run_table,
            ),
            inlet_nodes=_int_table(doc.get("inlet_nodes", ())),
            outlet_nodes=_int_table(doc.get("outlet_nodes", ())),
            send_flat=_peer_tables(doc.get("send_flat", {})),
            recv_flat=_peer_tables(doc.get("recv_flat", {})),
        )


def plans_of(ranks: Sequence[Any]) -> List[RankPlan]:
    """The plans of ``ranks``: :class:`RankPlan` values pass through, a
    :class:`~repro.lbm.distributed.RankState` contributes its ``plan``."""
    return [r if isinstance(r, RankPlan) else r.plan for r in ranks]


def _rank_layouts(
    grid: VoxelGrid,
    partition: Partition,
    lattice: Lattice,
    periodic: Tuple[bool, bool, bool],
) -> Iterator[Tuple[np.ndarray, np.ndarray, List[QPlan]]]:
    """Per rank, in rank order: ``(owned, ghosts, links)`` — global ids of
    the owned and ghost nodes and the per-population gather lists in the
    rank's local numbering."""
    coords, index_map = grid.compact_ids()
    owner_of = partition.owner_map()[coords[:, 0], coords[:, 1], coords[:, 2]]
    if np.any(owner_of < 0):
        raise DecompositionError(
            "partition leaves fluid nodes without an owner"
        )
    q = lattice.q
    n_global = coords.shape[0]
    # upstream table: (q, n_global) global ids (or -1)
    upstream = np.empty((q, n_global), dtype=np.int64)
    upstream[0] = np.arange(n_global, dtype=np.int64)
    for qi in range(1, q):
        upstream[qi] = upstream_ids(
            grid.shape, lattice.c[qi], periodic, coords, index_map
        )
    for r in range(partition.num_ranks):
        owned = np.flatnonzero(owner_of == r).astype(np.int64)
        ups = upstream[:, owned]  # (q, n_owned)
        flat = ups[ups >= 0]
        ghosts = np.unique(flat[owner_of[flat] != r])
        local_of = np.full(n_global, -1, dtype=np.int64)
        local_of[owned] = np.arange(owned.size, dtype=np.int64)
        local_of[ghosts] = owned.size + np.arange(ghosts.size, dtype=np.int64)
        owned_local = np.arange(owned.size, dtype=np.int64)
        links = []
        for qi in range(q):
            has = ups[qi] >= 0
            links.append(
                QPlan(
                    qi,
                    int(lattice.opposite[qi]),
                    dst=owned_local[has],
                    src=local_of[ups[qi][has]],
                    bounce=owned_local[~has],
                )
            )
        yield owned, ghosts, links


def rank_link_lists(
    grid: VoxelGrid,
    partition: Partition,
    lattice: Lattice,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
) -> List[List[QPlan]]:
    """Per rank, the per-population gather lists every ``flat_src`` is
    compiled from — what a per-q reference stepper executes.  Computed on
    demand; a :class:`RankPlan` keeps only the compiled table."""
    return [
        links for _, _, links in _rank_layouts(grid, partition, lattice, periodic)
    ]


def build_rank_plans(
    grid: VoxelGrid,
    partition: Partition,
    lattice: Lattice,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
    overlap: bool = False,
) -> List[RankPlan]:
    """Pre-process ``partition`` into one :class:`RankPlan` per rank.

    The exchange delivers ghost slots of the receiver's numbering:
    under the barrier schedule all ``q`` populations of every ghost node,
    each written back to the ghost slot itself; under ``overlap`` only
    the slots some halo-sourced link reads (the "5 of 19 directions"
    exchange the paper's performance model prices), each written straight
    onto that link's destination.  The owner of a slot's node packs it in
    the receiver's enumeration order (population-major), so a payload
    needs no header.
    """
    num_ranks = partition.num_ranks
    q = lattice.q
    owned: List[np.ndarray] = []
    ghosts: List[np.ndarray] = []
    step_plans: List[StepPlan] = []
    for own, gho, links in _rank_layouts(grid, partition, lattice, periodic):
        owned.append(own)
        ghosts.append(gho)
        step_plans.append(
            StepPlan.from_links(q, links, own.size + gho.size, own.size)
        )
    # compact numbering is the C scan order of the fluid mask
    flags_at = grid.flags[grid.fluid_mask()]
    owner_of = np.empty(flags_at.size, dtype=np.int64)
    for r, own in enumerate(owned):
        owner_of[own] = r

    send: List[Dict[int, np.ndarray]] = [{} for _ in range(num_ranks)]
    recv: List[Dict[int, np.ndarray]] = [{} for _ in range(num_ranks)]
    for r, plan in enumerate(step_plans):
        n_owned, n_local = owned[r].size, plan.num_local
        if overlap:
            written, slots = plan.cross_links(n_owned)
        else:
            written = slots = flat_destinations(
                np.arange(n_owned, n_local), n_local, q
            ).reshape(-1)
        pops, nodes = np.divmod(slots, n_local)
        gids = ghosts[r][nodes - n_owned]
        slot_owner = owner_of[gids]
        for j in np.unique(slot_owner):
            j = int(j)
            mask = slot_owner == j
            recv[r][j] = written[mask]
            send[j][r] = pops[mask] * step_plans[j].num_local + np.searchsorted(
                owned[j], gids[mask]
            )

    return [
        RankPlan(
            rank=r,
            owned_global=owned[r],
            ghost_global=ghosts[r],
            step_plan=step_plans[r],
            inlet_nodes=np.flatnonzero(flags_at[owned[r]] == INLET),
            outlet_nodes=np.flatnonzero(flags_at[owned[r]] == OUTLET),
            send_flat=send[r],
            recv_flat=recv[r],
        )
        for r in range(num_ranks)
    ]
