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
:meth:`RankPlan.from_dict`) read the same value.  A plan has one
exchange format whatever the schedule: the packed cross-link payload,
which ``SolverConfig.overlap`` only completes before or after the
streaming gather.

On a compiled backend the solver releases each plan's dense gather table
once the pre-flights have verified its compiled table (the run table,
or a one-rank plan's one-pass tile table), so a RankPlan keeps only
that table: ``step_plan.flat_src`` (and with it
:meth:`RankPlan.to_dict`) re-expands it on demand
(:meth:`~repro.lbm.stream.StepPlan.release_links`).

Local numbering of a rank: its owned nodes, ascending global id — the
rank's buffers hold nothing else.  A link whose upstream node is remote
gathers :data:`~repro.core.planmeta.HALO`; the exchange delivers its
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..core.errors import DecompositionError
from ..core.lattice import Lattice
from ..core.planmeta import HALO
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

    The exchange pair is the packed cross-link exchange: message slot
    ``i`` from this rank to ``dst`` carries ``f.reshape(-1)[send_flat[dst][i]]``
    (post-collision, owned), and the frontier scatter writes the slot of
    the message from ``src`` to flat index ``recv_flat[src][i]`` of
    ``f_tmp`` — the destination of one halo-sourced link, whose upstream
    global node is ``recv_global[src][i]``.  ``plans[j].send_flat[r]``
    and ``plans[r].recv_flat[j]`` agree slot for slot.
    """

    rank: int
    owned_global: np.ndarray  # global node ids, ascending
    step_plan: StepPlan  # the rank's one-gather streaming table
    inlet_nodes: np.ndarray  # local ids of the owned INLET nodes
    outlet_nodes: np.ndarray  # local ids of the owned OUTLET nodes
    send_flat: Dict[int, np.ndarray]  # dst rank -> flat gather table into f
    recv_flat: Dict[int, np.ndarray]  # src rank -> flat f_tmp destinations
    recv_global: Dict[int, np.ndarray]  # src rank -> global node per slot

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
        if plan.tile_table is not None:
            tile_ptr, heads, lens = plan.tile_table
            doc["tile_table"] = {
                "tile_ptr": tile_ptr.tolist(),
                "heads": heads.tolist(),
                "lens": lens.tolist(),
            }
        for name in ("owned_global", "inlet_nodes", "outlet_nodes"):
            doc[name] = getattr(self, name).tolist()
        for name in ("send_flat", "recv_flat", "recv_global"):
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
        tile_table = doc.get("tile_table")
        if tile_table is not None:
            tile_table = (
                _int_table(tile_table["tile_ptr"]).reshape(-1),
                _int_table(tile_table["heads"]).reshape(-1, 2),
                _int_table(tile_table["lens"]).reshape(-1),
            )
        return cls(
            rank=int(doc.get("rank", 0)),
            owned_global=_int_table(
                doc.get("owned_global", range(num_local))
            ),
            step_plan=StepPlan(
                int(doc["q"]),
                num_local,
                _int_table(doc["update_ids"]),
                np.asarray(doc["flat_src"]),
                run_table,
                tile_table,
            ),
            inlet_nodes=_int_table(doc.get("inlet_nodes", ())),
            outlet_nodes=_int_table(doc.get("outlet_nodes", ())),
            send_flat=_peer_tables(doc.get("send_flat", {})),
            recv_flat=_peer_tables(doc.get("recv_flat", {})),
            recv_global=_peer_tables(doc.get("recv_global", {})),
        )


def plans_of(ranks: Sequence[Any]) -> List[RankPlan]:
    """The plans of ``ranks``: :class:`RankPlan` values pass through, a
    :class:`~repro.lbm.distributed.RankState` contributes its ``plan``."""
    return [r if isinstance(r, RankPlan) else r.plan for r in ranks]


def rank_link_lists(
    grid: VoxelGrid,
    partition: Partition,
    lattice: Lattice,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
) -> List[List[QPlan]]:
    """Per rank, the per-population gather lists — what a per-q
    reference stepper executes, and the oracle every ``flat_src`` is
    checked against.  Derived one population at a time (one
    :func:`~repro.lbm.stream.upstream_ids` call each, over a
    ``(q, n_global)`` upstream table), sharing no code with
    :func:`build_rank_plans`; a :class:`RankPlan` keeps only the compiled
    table.

    The lists use a numbering of their own: the owned nodes, then the
    ghosts — the remote upstream nodes, ascending global id — whose
    columns a reference stepper fills before it streams.  The plan's
    numbering is the owned prefix alone."""
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
    per_rank = []
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
        per_rank.append(links)
    return per_rank


def _padded_ids(
    grid: VoxelGrid, periodic: Tuple[bool, bool, bool], reach: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The compact numbering over the grid padded by ``reach`` voxels.

    Returns ``(pos, ids)``: each fluid node's flat position in the padded
    grid (compact order), and the padded id map, flattened — the compact
    id at fluid voxels, -1 at solid voxels and in the pad of a capped
    axis, a wrapped copy of the far side in the pad of a periodic axis.
    For a lattice velocity ``c`` with ``max|c| <= reach``,
    ``ids[pos - offset(c)]`` is every node's upstream id, with no bounds
    test.
    """
    mask = np.pad(grid.fluid_mask(), reach)
    pos = np.flatnonzero(mask)
    ids = np.full(mask.shape, -1, dtype=np.int64)
    ids.reshape(-1)[pos] = np.arange(pos.size, dtype=np.int64)
    for axis, extent in enumerate(grid.shape):
        if periodic[axis]:
            slabs = np.moveaxis(ids, axis, 0)
            pad = np.r_[0:reach, extent + reach:extent + 2 * reach]
            slabs[pad] = slabs[(pad - reach) % extent + reach]
    return pos, ids.reshape(-1)


def build_rank_plans(
    grid: VoxelGrid,
    partition: Partition,
    lattice: Lattice,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
) -> List[RankPlan]:
    """Pre-process ``partition`` into one :class:`RankPlan` per rank.

    The exchange delivers only the values some halo-sourced link reads
    (the "5 of 19 directions" exchange the paper's performance model
    prices), each written straight onto that link's destination, under
    either schedule.  The owner of a slot's node packs it in the
    receiver's enumeration order (population-major), so a payload needs
    no header.

    Every upstream id comes from one padded index map
    (:func:`_padded_ids`), and each rank's ``flat_src`` is filled row by
    row in place, in one pass over the populations.  Transients stay
    O(nodes) — no ``(q, n_global)`` table.  :func:`rank_link_lists` is
    the independent per-population oracle the tests compare against.
    """
    num_ranks = partition.num_ranks
    q = lattice.q
    # compact numbering is the C scan order of the fluid mask
    fluid = grid.fluid_mask()
    owner_of = partition.owner_map()[fluid]
    if np.any(owner_of < 0):
        raise DecompositionError(
            "partition leaves fluid nodes without an owner"
        )
    flags_at = grid.flags[fluid]
    reach = int(np.abs(lattice.c).max())
    pos, ids = _padded_ids(grid, periodic, reach)
    padded = np.asarray(grid.shape, dtype=np.int64) + 2 * reach
    offsets = np.asarray(lattice.c, dtype=np.int64) @ np.array(
        [padded[1] * padded[2], padded[2], 1]
    )
    n_global = pos.size
    # global id -> local id of the rank being built (-1: not owned), and
    # whether the rank owns it; the extra last entry is what a wall's -1
    # picks: local -1, and "not remote"
    local_of = np.full(n_global + 1, -1, dtype=np.int64)
    mine = np.zeros(n_global + 1, dtype=bool)
    mine[-1] = True

    owned: List[np.ndarray] = []
    step_plans: List[StepPlan] = []
    # per rank: its halo-sourced link destinations and their upstream
    # global nodes, in StepPlan.cross_links order
    exchanged: List[Tuple[np.ndarray, np.ndarray]] = []
    for r in range(num_ranks):
        own = np.flatnonzero(owner_of == r)
        n_owned = own.size
        local_of[own] = np.arange(n_owned, dtype=np.int64)
        mine[own] = True
        at = pos[own]
        scratch = np.empty_like(at)
        flat = np.empty((q, n_owned), dtype=np.int64)
        cross_dst, cross_gid = [], []
        for qi in range(q):
            row = flat[qi]
            # the global upstream ids of population qi (-1: wall); mode=
            # "wrap" gathers into out= unbuffered, and every index is in
            # range, or -1 for the trailing entry
            np.subtract(at, offsets[qi], out=scratch)
            np.take(ids, scratch, out=row, mode="wrap")
            cols = np.flatnonzero(~mine[row])
            cross_dst.append(qi * n_owned + cols)
            cross_gid.append(row[cols])
            # in place, the flat sources: the upstream slot of the same
            # population, the opposite one at the node itself on a wall
            # link (half-way bounce-back), HALO on a remote one
            np.take(local_of, row, out=scratch, mode="wrap")
            np.add(scratch, qi * n_owned, out=row)
            wall = np.flatnonzero(scratch < 0)
            row[wall] = lattice.opposite[qi] * n_owned + wall
            row[cols] = HALO
        exchanged.append((np.concatenate(cross_dst), np.concatenate(cross_gid)))
        local_of[own] = -1
        mine[own] = False
        owned.append(own)
        step_plans.append(
            StepPlan(q, n_owned, np.arange(n_owned, dtype=np.int64), flat)
        )

    send: List[Dict[int, np.ndarray]] = [{} for _ in range(num_ranks)]
    recv: List[Dict[int, np.ndarray]] = [{} for _ in range(num_ranks)]
    recv_gid: List[Dict[int, np.ndarray]] = [{} for _ in range(num_ranks)]
    for r, (written, gids) in enumerate(exchanged):
        pops = written // owned[r].size
        slot_owner = owner_of[gids]
        for j in np.unique(slot_owner):
            j = int(j)
            mask = slot_owner == j
            recv[r][j] = written[mask]
            recv_gid[r][j] = gids[mask]
            send[j][r] = pops[mask] * owned[j].size + np.searchsorted(
                owned[j], gids[mask]
            )

    return [
        RankPlan(
            rank=r,
            owned_global=owned[r],
            step_plan=step_plans[r],
            inlet_nodes=np.flatnonzero(flags_at[owned[r]] == INLET),
            outlet_nodes=np.flatnonzero(flags_at[owned[r]] == OUTLET),
            send_flat=send[r],
            recv_flat=recv[r],
            recv_global=recv_gid[r],
        )
        for r in range(num_ranks)
    ]
