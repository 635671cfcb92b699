"""Streaming connectivity for sparse (indirect-addressed) LBM grids.

HARVEY stores only fluid points and streams through neighbor-index lists
(Herschlag et al., ref. [12] of the paper — "GPU data access on complex
geometries for D3Q19 lattice Boltzmann method").  :class:`Connectivity`
precomputes, for every population, the pull-scheme gather lists:

* interior pairs ``(dst, src)`` — fluid upstream neighbour exists;
* bounce nodes — upstream voxel is solid, so the population reflects
  (half-way bounce-back) from the opposite direction at the same node.

Periodic axes wrap at the *global* domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.errors import GeometryError
from ..core.kernels import (
    bounce_back_kernel,
    fused_stream_kernel,
    stream_pull_kernel,
)
from ..core.lattice import Lattice
from ..core.planmeta import kernel_tables as planmeta_kernel_tables
from ..geometry.voxel import VoxelGrid

__all__ = ["QPlan", "StepPlan", "Connectivity", "upstream_ids"]


@dataclass(frozen=True)
class QPlan:
    """Gather plan for one population index."""

    qi: int
    qi_opp: int
    dst: np.ndarray  # interior destinations (compact ids)
    src: np.ndarray  # matching upstream sources (compact ids)
    bounce: np.ndarray  # nodes whose upstream voxel is solid


def _is_prefix(update_ids: np.ndarray) -> bool:
    """Whether ``update_ids`` is ``0..n-1``, the prefix of the local
    numbering (single-domain, and the distributed owned-before-ghost
    layout): the gather then writes destination columns directly."""
    n = int(update_ids.size)
    return n == 0 or bool(
        update_ids[0] == 0
        and update_ids[-1] == n - 1
        and np.array_equal(update_ids, np.arange(n, dtype=np.int64))
    )


class StepPlan:
    """Precompiled fused streaming + bounce-back over all populations.

    The per-q gather lists of :class:`QPlan` are folded into one flat
    index table ``flat_src[qi, k] = src_q * n + src_node`` into the
    flattened source array ``f_src.reshape(-1)``: interior links point at
    the upstream neighbour in the same population, wall links point at
    the *opposite* population of the same node (half-way bounce-back).
    One ``np.take(..., out=)`` (one per row when ghost columns pad the
    destination) then executes the entire streaming step — the
    single-pass stream kernel of the paper's perf model.

    Parameters
    ----------
    lattice:
        Velocity-set descriptor.
    plans:
        Per-population gather plans, either :class:`QPlan` objects or raw
        ``(qi, qi_opp, dst, src, bounce)`` tuples (the distributed
        solver's rank-local form).
    num_local:
        Width of the local distribution array ``f`` (owned + ghost nodes
        in the distributed case).
    update_ids:
        Local node ids written by the step.  Every plan destination must
        belong to this set; together the plans must cover it for every
        population.
    """

    #: The cached :meth:`kernel_tables`, or None before a compiled engine
    #: asked for them — what the K406/K407 pre-flight verifies.
    run_table: Optional[Tuple[np.ndarray, np.ndarray]] = None
    _gather_buf: Optional[np.ndarray] = None

    def __init__(
        self,
        lattice: Lattice,
        plans: List,
        num_local: int,
        update_ids: np.ndarray,
    ) -> None:
        self.lattice = lattice
        self.num_local = int(num_local)
        update_ids = np.asarray(update_ids, dtype=np.int64)
        self.update_ids = update_ids
        n_upd = int(update_ids.size)
        self.num_update = n_upd
        q = lattice.q
        # position of each update node in the packed row
        pos = np.full(self.num_local, -1, dtype=np.int64)
        pos[update_ids] = np.arange(n_upd, dtype=np.int64)
        flat = np.full((q, n_upd), -1, dtype=np.int64)
        for plan in plans:
            if isinstance(plan, QPlan):
                qi, qi_opp = plan.qi, plan.qi_opp
                dst, src, bounce = plan.dst, plan.src, plan.bounce
            else:
                qi, qi_opp, dst, src, bounce = plan
            flat[qi, pos[dst]] = qi * self.num_local + src
            if bounce.size:
                flat[qi, pos[bounce]] = qi_opp * self.num_local + bounce
        if flat.min() < 0:
            raise GeometryError(
                "streaming plans do not cover every (population, node) pair"
            )
        self.flat_src = flat
        self._prefix = _is_prefix(update_ids)

    @classmethod
    def _from_columns(
        cls, parent: "StepPlan", cols: np.ndarray
    ) -> "StepPlan":
        """A sub-plan over a column subset of ``parent`` (same coverage
        semantics per node, so the coverage check is already satisfied)."""
        plan = cls.__new__(cls)
        plan.lattice = parent.lattice
        plan.num_local = parent.num_local
        plan.update_ids = parent.update_ids[cols]
        plan.num_update = int(plan.update_ids.size)
        plan.flat_src = parent.flat_src[:, cols]
        plan._prefix = _is_prefix(plan.update_ids)
        return plan

    def partition(
        self, num_owned: Optional[int] = None
    ) -> Tuple["StepPlan", "StepPlan"]:
        """Split into ``(interior, frontier)`` sub-plans.

        *Interior* nodes gather every population from locally owned
        sources (local node id below ``num_owned``); *frontier* nodes
        read at least one halo (ghost) population, so their streaming
        must wait for the exchange to complete.  Together the two plans
        cover :attr:`update_ids` exactly; for a single-domain plan (no
        ghosts) the frontier is empty.

        ``num_owned`` defaults to the full local width, i.e. every
        source is owned and everything is interior.
        """
        owned = self.num_local if num_owned is None else int(num_owned)
        if not 0 <= owned <= self.num_local:
            raise GeometryError(
                f"num_owned {owned} outside [0, {self.num_local}]"
            )
        src_node = self.flat_src % self.num_local
        frontier_cols = (src_node >= owned).any(axis=0)
        interior = self._from_columns(self, np.flatnonzero(~frontier_cols))
        frontier = self._from_columns(self, np.flatnonzero(frontier_cols))
        return interior, frontier

    def cross_links(self, num_owned: int) -> Tuple[np.ndarray, np.ndarray]:
        """The halo-reading links: ``(dst_flat, src_flat)`` index pairs.

        ``src_flat`` points into the flattened local source array at
        entries whose source node is a ghost (local id >= ``num_owned``);
        ``dst_flat`` is the matching flat destination ``qi * num_local +
        node``.  Enumeration order is deterministic (population-major,
        then packed-column order) — the distributed solver relies on the
        sender and receiver agreeing on it to wire the packed exchange.
        """
        if not 0 <= num_owned <= self.num_local:
            raise GeometryError(
                f"num_owned {num_owned} outside [0, {self.num_local}]"
            )
        src_node = self.flat_src % self.num_local
        mask = src_node >= num_owned
        qi, col = np.nonzero(mask)
        dst_flat = qi * self.num_local + self.update_ids[col]
        src_flat = self.flat_src[qi, col]
        return dst_flat.astype(np.int64), src_flat.astype(np.int64)

    @property
    def num_links(self) -> int:
        """Total gather links (``q * num_update`` slots per apply)."""
        return int(self.flat_src.size)

    def source_nodes(self) -> np.ndarray:
        """Local node id read by every link, shaped like ``flat_src``."""
        return self.flat_src % self.num_local

    def source_pops(self) -> np.ndarray:
        """Source population of every link, shaped like ``flat_src``."""
        return self.flat_src // self.num_local

    def to_dict(self, num_owned: Optional[int] = None) -> dict:
        """Serializable plan-IR form (the ``*.stepplan.json`` payload).

        The static verifier checks these documents offline exactly as it
        checks live plans pre-flight; ``num_owned`` marks the ghost
        boundary for the distributed checks when present.
        """
        doc = {
            "q": int(self.lattice.q),
            "num_local": self.num_local,
            "num_update": self.num_update,
            "update_ids": self.update_ids.tolist(),
            "flat_src": self.flat_src.tolist(),
        }
        if num_owned is not None:
            doc["num_owned"] = int(num_owned)
        if self.run_table is not None:
            heads, lens = self.run_table
            doc["run_table"] = {
                "heads": heads.tolist(),
                "lens": lens.tolist(),
            }
        return doc

    @property
    def bytes_per_apply(self) -> int:
        """Memory traffic of one :meth:`apply`: every (population, node)
        link reads one double and writes one — the one-pass accounting
        the perf model's Eq. 1 prices (``Lattice.bytes_per_update`` per
        updated node)."""
        return 2 * self.lattice.q * self.num_update * 8

    def flat_dst(self) -> np.ndarray:
        """Flat destination indices matching ``flat_src`` row for row.

        Used by programming-model backends that execute the fused gather
        as chunked flat-to-flat launches.
        """
        q = self.lattice.q
        off = np.arange(q, dtype=np.int64)[:, None] * self.num_local
        return off + self.update_ids[None, :]

    @property
    def is_prefix(self) -> bool:
        """Whether the update set is the prefix of the local numbering.

        Prefix plans (single-domain, distributed owned-before-ghost) let
        compiled kernels write destination columns directly.
        """
        return self._prefix

    def kernel_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The plan as kernel IR: the run-length ``(heads, lens)`` table.

        ``heads`` is int64 ``(n_runs, 2)`` of ``[dst0, src0]`` flat
        indices, ``lens`` int64 ``(n_runs,)``; computed once and cached —
        what the compiled backend's stream kernel launches over (K406
        ABI, K407 equivalence to the link tables; see
        :func:`repro.core.planmeta.kernel_tables`).
        """
        if self.run_table is None:
            self.run_table = planmeta_kernel_tables(
                self.flat_src, self.update_ids, self.num_local
            )
        return self.run_table

    def apply(self, f_src: np.ndarray, f_dst: np.ndarray) -> None:
        """Stream + bounce all populations from ``f_src`` into ``f_dst``.

        Only update nodes are written; in the distributed case ghost
        columns of ``f_dst`` are left untouched (refilled by exchange).
        """
        n_upd = self.num_update
        if not self._prefix:
            buf = self._staging()
            fused_stream_kernel(f_src, buf, self.flat_src)
            f_dst[:, self.update_ids] = buf
        elif f_dst.shape[1] == n_upd:
            fused_stream_kernel(f_src, f_dst, self.flat_src)
        else:
            # ghost columns pad the rows: np.take bounces a strided out=
            # through a full-size temporary (allocate, copy in, gather,
            # copy back), so gather each contiguous row on its own
            for qi in range(self.lattice.q):
                fused_stream_kernel(
                    f_src, f_dst[qi, :n_upd], self.flat_src[qi]
                )

    def _staging(self) -> np.ndarray:
        """Gather buffer of a non-prefix :meth:`apply`, allocated on first
        use: the solvers apply prefix plans only, and the overlap
        sub-plans of :meth:`partition` are read, never applied."""
        if self._gather_buf is None:
            self._gather_buf = np.empty(self.flat_src.shape)
        return self._gather_buf


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


class Connectivity:
    """Precomputed pull-streaming plans over a compact fluid numbering.

    Parameters
    ----------
    grid:
        The flagged voxel grid.
    lattice:
        Velocity set descriptor.
    periodic:
        Per-axis periodic wrap flags.
    coords / index_map:
        Optional externally supplied compact numbering (the distributed
        solver passes a local numbering that includes ghost nodes).
    """

    def __init__(
        self,
        grid: VoxelGrid,
        lattice: Lattice,
        periodic: Tuple[bool, bool, bool] = (False, False, False),
        coords: Optional[np.ndarray] = None,
        index_map: Optional[np.ndarray] = None,
        update_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.grid = grid
        self.lattice = lattice
        self.periodic = tuple(bool(p) for p in periodic)
        if (coords is None) != (index_map is None):
            raise GeometryError("supply coords and index_map together")
        if coords is None:
            coords, index_map = grid.compact_ids()
        self.coords = coords
        self.index_map = index_map
        self.num_nodes = int(coords.shape[0])
        if self.num_nodes == 0:
            raise GeometryError("no fluid nodes to build connectivity over")
        # nodes whose plans we build (owned nodes in the distributed case)
        if update_ids is None:
            update_ids = np.arange(self.num_nodes, dtype=np.int64)
        self.update_ids = np.asarray(update_ids, dtype=np.int64)
        self.plans: List[QPlan] = self._build_plans()

    def _build_plans(self) -> List[QPlan]:
        plans: List[QPlan] = []
        for qi in range(self.lattice.q):
            qi_opp = int(self.lattice.opposite[qi])
            if qi == 0:
                # rest population: every node copies itself
                plans.append(
                    QPlan(0, 0, self.update_ids, self.update_ids,
                          np.empty(0, dtype=np.int64))
                )
                continue
            src = upstream_ids(
                self.grid.shape,
                self.lattice.c[qi],
                self.periodic,
                self.coords[self.update_ids],
                self.index_map,
            )
            has_src = src >= 0
            plans.append(
                QPlan(
                    qi,
                    qi_opp,
                    dst=self.update_ids[has_src],
                    src=src[has_src],
                    bounce=self.update_ids[~has_src],
                )
            )
        return plans

    def step_plan(self) -> StepPlan:
        """Compile the per-q plans into a fused :class:`StepPlan`."""
        return StepPlan(
            self.lattice, self.plans, self.num_nodes, self.update_ids
        )

    # -- execution -----------------------------------------------------------
    def stream(self, f_src: np.ndarray, f_dst: np.ndarray) -> None:
        """Pull-stream all populations from ``f_src`` into ``f_dst``.

        Only update nodes are written; in the distributed case ghost slots
        of ``f_dst`` are left untouched (they are refilled by exchange).
        """
        for plan in self.plans:
            stream_pull_kernel(f_src, f_dst, plan.qi, plan.dst, plan.src)
            if plan.bounce.size:
                bounce_back_kernel(
                    f_src, f_dst, plan.qi, plan.qi_opp, plan.bounce
                )

    # -- diagnostics -----------------------------------------------------------
    @property
    def num_bounce_links(self) -> int:
        """Total wall links (bounce-back population slots)."""
        return int(sum(p.bounce.size for p in self.plans))

    def wall_node_ids(self) -> np.ndarray:
        """Update nodes with at least one wall link."""
        parts = [p.bounce for p in self.plans if p.bounce.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))
