"""Streaming tables for sparse (indirect-addressed) LBM grids.

HARVEY stores only fluid points and streams through neighbor-index lists
(Herschlag et al., ref. [12] of the paper — "GPU data access on complex
geometries for D3Q19 lattice Boltzmann method").  :class:`StepPlan` is
the solver's stream: every (population, node) link of a rank as one
flat gather table, wall links pointing at the opposite population of the
same node (half-way bounce-back).  :class:`QPlan` is one population's
link lists — interior ``(dst, src)`` pairs and the bounce nodes whose
upstream voxel is solid — as
:func:`~repro.lbm.rankplan.rank_link_lists` derives them from
:func:`upstream_ids`: the per-population oracle the tests step.

Periodic axes wrap at the *global* domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.kernels import fused_stream_kernel
from ..core.planmeta import (
    HALO,
    expand_runs,
    flat_destinations,
    tile_sources,
    tile_table,
)
from ..core.planmeta import kernel_tables as planmeta_kernel_tables

__all__ = ["QPlan", "StepPlan", "upstream_ids"]


@dataclass(frozen=True)
class QPlan:
    """Gather plan for one population index."""

    qi: int
    qi_opp: int
    dst: np.ndarray  # interior destinations (local ids)
    src: np.ndarray  # matching upstream sources (local ids)
    bounce: np.ndarray  # nodes whose upstream voxel is solid


class StepPlan:
    """Fused streaming + bounce-back over all populations, as tables.

    ``flat_src[qi, k] = src_q * num_local + src_node`` indexes the
    flattened source array ``f_src.reshape(-1)``: interior links point at
    the upstream neighbour in the same population, wall links at the
    *opposite* population of the same node (half-way bounce-back), and
    halo-sourced links at :data:`~repro.core.planmeta.HALO` (-1): their
    value arrives by exchange, and the frontier scatter writes it over
    the placeholder the gather leaves.  One ``np.take(..., out=)`` then
    executes the entire streaming step — the single-pass stream kernel
    of the paper's perf model.

    ``update_ids`` are the local node ids the step writes; every plan
    the solver builds updates every local node, in order (a rank's local
    numbering is its owned nodes only, see
    :func:`~repro.lbm.rankplan.build_rank_plans`), which is what
    :meth:`apply` and the compiled kernels write through.  The
    constructor stores its tables as given — the ``*.stepplan.json``
    codec loads a document that way so the verifier, not a coercion,
    judges it.

    A compiled step reads one table the plan carries: the link-order run
    table of a collide + stream pair (:meth:`kernel_tables`), or, where
    nothing runs between collide and stream, the tile table of the
    one-pass kernel (:meth:`tile_tables`) in its place.  A distributed
    solver on a compiled backend calls :meth:`release_links` once the
    pre-flights have verified that table: the dense ``(q, n_upd)`` int64
    table is dropped, and ``flat_src`` is re-expanded from the compiled
    table on every read, uncached — the same table bit for bit.
    """

    def __init__(
        self,
        q: int,
        num_local: int,
        update_ids: np.ndarray,
        flat_src: np.ndarray,
        run_table: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        tile_table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.q = q
        self.num_local = num_local  # width of the local ``f``
        self.update_ids = update_ids
        self._flat_src: Optional[np.ndarray] = flat_src
        #: The cached :meth:`kernel_tables`, or None before a compiled
        #: engine asked for them — what the K406/K407 pre-flight verifies.
        self.run_table = run_table
        #: The cached :meth:`tile_tables` of a one-pass plan (then
        #: ``run_table`` is None) — verified by the same pre-flight.
        self.tile_table = tile_table

    @property
    def flat_src(self) -> np.ndarray:
        """The ``(q, n_upd)`` gather table: held, or re-expanded from the
        compiled table after :meth:`release_links`."""
        if self._flat_src is not None:
            return self._flat_src
        if self.tile_table is None:
            heads, lens = self.kernel_tables()
        else:
            tile_ptr, heads, lens = self.tile_table
            src0 = tile_sources(
                tile_ptr, heads, self.num_local, np.arange(lens.size)
            )
            heads = np.stack([heads[:, 0], src0], axis=1)
        # on the solver's plans (the only ones released) a destination is
        # its link position; the halo links have no run
        dst, src = expand_runs(heads, lens)
        flat = np.full(self.q * self.num_update, HALO, dtype=np.int64)
        flat[dst] = src
        return flat.reshape(self.q, self.num_update)

    def release_links(self) -> None:
        """Keep the compiled table alone: the tile table of a one-pass
        plan, else the run table (built if needed); then drop the dense
        gather table (``q * n_upd * 8`` bytes) no compiled step reads."""
        if self.tile_table is None:
            self.kernel_tables()
        self._flat_src = None

    @property
    def num_update(self) -> int:
        return int(self.update_ids.size)

    def cross_links(self) -> np.ndarray:
        """The flat destinations ``qi * num_local + node`` of the
        halo-sourced links (gather source :data:`~repro.core.planmeta.HALO`).

        Enumeration order is deterministic (population-major, then
        column order) — the packed exchange is wired from it on both
        sides, and K404 and the sanitizer re-derive it.
        """
        qi, col = np.nonzero(self.flat_src == HALO)
        return (qi * self.num_local + self.update_ids[col]).astype(np.int64)

    @property
    def bytes_per_apply(self) -> int:
        """Memory traffic of one :meth:`apply`: every (population, node)
        link reads one double and writes one — the one-pass accounting
        the perf model's Eq. 1 prices (``Lattice.bytes_per_update`` per
        updated node)."""
        return 2 * self.q * self.num_update * 8

    def flat_dst(self) -> np.ndarray:
        """Flat destination indices matching ``flat_src`` row for row.

        Used by programming-model backends that execute the fused gather
        as chunked flat-to-flat launches.
        """
        return flat_destinations(self.update_ids, self.num_local, self.q)

    def kernel_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The plan as kernel IR: the run-length ``(heads, lens)`` table.

        ``heads`` is int64 ``(n_runs, 2)`` of ``[dst0, src0]`` flat
        indices, ``lens`` int64 ``(n_runs,)``; computed once and cached —
        what the compiled backend's stream kernel launches over (K406
        ABI, K407 equivalence to the link tables; see
        :func:`repro.core.planmeta.kernel_tables`) — except on a one-pass
        plan, whose tile table stands in its place: there it is derived
        on every call and not kept.
        """
        if self.run_table is not None:
            return self.run_table
        table = planmeta_kernel_tables(
            self.flat_src, self.update_ids, self.num_local
        )
        if self.tile_table is None:
            self.run_table = table
        return table

    def tile_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The plan as one-pass kernel IR: its ``(tile_ptr, heads, lens)``
        tile table (:func:`repro.core.planmeta.tile_table`), computed
        once and cached *in place of* the run table, which
        :meth:`kernel_tables` then derives uncached.

        The one-pass kernel collides every local column, so the plan must
        update every local node, in order — as every solver-built plan
        does.
        """
        if self.tile_table is None:
            heads, lens = self.kernel_tables()
            self.run_table = None
            self.tile_table = tile_table(heads, lens, self.num_local)
        return self.tile_table

    def apply(self, f_src: np.ndarray, f_dst: np.ndarray) -> None:
        """Stream + bounce all populations from ``f_src`` into the
        ``(q, num_update)`` ``f_dst``; a halo link's destination gets a
        placeholder the frontier scatter overwrites."""
        fused_stream_kernel(f_src, f_dst, self.flat_src)


def upstream_ids(
    shape: Tuple[int, int, int],
    velocity: np.ndarray,
    periodic: Tuple[bool, bool, bool],
    coords: np.ndarray,
    index_map: np.ndarray,
) -> np.ndarray:
    """Compact id of the upstream neighbour (one lattice ``velocity``
    back) of each voxel coordinate, or -1 where it is solid or outside;
    periodic axes wrap at the global domain boundary."""
    extent = np.asarray(shape, dtype=np.int64)
    pos = coords - velocity
    valid = np.ones(pos.shape[0], dtype=bool)
    for axis in range(3):
        col = pos[:, axis]
        if periodic[axis]:
            pos[:, axis] = np.mod(col, extent[axis])
        else:
            valid &= (col >= 0) & (col < extent[axis])
    src = np.full(pos.shape[0], -1, dtype=np.int64)
    if valid.any():
        p = pos[valid]
        src[valid] = index_map[p[:, 0], p[:, 1], p[:, 2]]
    return src
