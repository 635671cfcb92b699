"""Partition data structures shared by the decomposition schemes.

A :class:`Partition` assigns every fluid voxel of a grid to exactly one
rank through disjoint axis-aligned boxes.  It exposes the two quantities
the rest of the system consumes:

* per-rank fluid counts (load balance, compute cost), and
* per-rank-pair halo counts (communication cost).

A halo count is the number of remote fluid nodes in the one-voxel,
26-connected shell around a rank's box: the remote-node count that
:mod:`repro.perf.trace` prices.  It is a box-shell estimate, not the
functional runtime's exchange, which ships only the population values
the rank's halo-sourced links read (``RankPlan.recv_flat``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import DecompositionError
from ..geometry.voxel import Box, VoxelGrid

__all__ = ["Subdomain", "Partition"]


@dataclass(frozen=True)
class Subdomain:
    """One rank's box and its fluid load."""

    rank: int
    box: Box
    fluid_count: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise DecompositionError("rank must be non-negative")
        if self.fluid_count < 0:
            raise DecompositionError("fluid count must be non-negative")


@dataclass
class Partition:
    """A complete decomposition of a grid into rank subdomains."""

    grid: VoxelGrid
    subdomains: List[Subdomain]
    scheme: str = "unknown"
    _halo_cache: Optional[Dict[Tuple[int, int], int]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if not self.subdomains:
            raise DecompositionError("partition has no subdomains")
        ranks = sorted(s.rank for s in self.subdomains)
        if ranks != list(range(len(self.subdomains))):
            raise DecompositionError("subdomain ranks must be 0..n-1")

    @property
    def num_ranks(self) -> int:
        return len(self.subdomains)

    # -- load balance -------------------------------------------------------
    def fluid_counts(self) -> np.ndarray:
        return np.array(
            [s.fluid_count for s in self.subdomains], dtype=np.int64
        )

    @property
    def total_fluid(self) -> int:
        return int(self.fluid_counts().sum())

    @property
    def imbalance(self) -> float:
        """max/mean fluid load; 1.0 is perfect balance."""
        counts = self.fluid_counts()
        mean = counts.mean()
        if mean == 0:
            raise DecompositionError("partition contains no fluid")
        return float(counts.max() / mean)

    # -- consistency checks ---------------------------------------------------
    def validate(self) -> None:
        """Assert disjointness and completeness (O(grid) memory)."""
        owner = np.full(self.grid.shape, -1, dtype=np.int32)
        for s in self.subdomains:
            region = owner[s.box.slices()]
            if np.any(region != -1):
                raise DecompositionError(
                    f"subdomain {s.rank} overlaps a previous box"
                )
            region[...] = s.rank
        mask = self.grid.fluid_mask()
        if np.any(owner[mask] == -1):
            raise DecompositionError("some fluid voxels are unassigned")
        for s in self.subdomains:
            actual = self.grid.fluid_in_box(s.box)
            if actual != s.fluid_count:
                raise DecompositionError(
                    f"subdomain {s.rank} records {s.fluid_count} fluid "
                    f"voxels but box contains {actual}"
                )

    def owner_map(self) -> np.ndarray:
        """Full-grid int32 array of owning ranks (-1 outside all boxes)."""
        owner = np.full(self.grid.shape, -1, dtype=np.int32)
        for s in self.subdomains:
            owner[s.box.slices()] = s.rank
        return owner

    # -- halo accounting --------------------------------------------------------
    def halo_counts(self) -> Dict[Tuple[int, int], int]:
        """Halo sizes: ``(receiver, owner) -> fluid voxel count``.

        Entry ``(i, j)`` is the number of fluid voxels owned by rank ``j``
        inside the one-voxel 26-connected shell around rank ``i``'s box —
        the nodes rank ``i`` must receive each iteration.  Symmetric pairs
        both appear (i receives from j *and* j receives from i).
        """
        if self._halo_cache is not None:
            return self._halo_cache
        owner = self.owner_map()
        mask = self.grid.fluid_mask()
        counts: Dict[Tuple[int, int], int] = {}
        shape = self.grid.shape
        for s in self.subdomains:
            lo = tuple(max(0, l - 1) for l in s.box.lo)
            hi = tuple(min(n, h + 1) for h, n in zip(s.box.hi, shape))
            shell_box = Box(lo, hi)
            sl = shell_box.slices()
            sub_owner = owner[sl]
            sub_mask = mask[sl]
            # exclude this rank's own box from the shell
            inner = tuple(
                slice(s.box.lo[a] - lo[a], s.box.hi[a] - lo[a])
                for a in range(3)
            )
            shell = np.ones_like(sub_mask)
            shell[inner] = False
            relevant = shell & sub_mask & (sub_owner >= 0)
            owners, freq = np.unique(sub_owner[relevant], return_counts=True)
            for o, f in zip(owners, freq):
                if int(o) == s.rank:
                    continue
                counts[(s.rank, int(o))] = int(f)
        self._halo_cache = counts
        return counts

    def halo_total(self, rank: int) -> int:
        """Total halo voxels of a rank (the sum of its halo counts)."""
        return sum(
            c for (recv, _own), c in self.halo_counts().items() if recv == rank
        )

    def neighbors(self, rank: int) -> List[int]:
        """Ranks a given rank exchanges halos with."""
        out = sorted(
            {own for (recv, own) in self.halo_counts() if recv == rank}
        )
        return out

    def max_halo(self) -> int:
        return max(
            (self.halo_total(s.rank) for s in self.subdomains), default=0
        )

    def summary(self) -> str:
        counts = self.fluid_counts()
        return (
            f"{self.scheme} partition: {self.num_ranks} ranks, "
            f"fluid {counts.min()}..{counts.max()} "
            f"(imbalance {self.imbalance:.3f}), "
            f"max halo {self.max_halo()}"
        )
