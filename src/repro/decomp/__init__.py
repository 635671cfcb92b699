"""Domain decomposition: the proxy's uniform block schemes and HARVEY's
load-balanced recursive bisection, each reachable by scheme name."""

from typing import Callable, Dict

from ..core.errors import DecompositionError
from ..geometry.voxel import VoxelGrid
from .bisection import bisection_decompose
from .block import (
    axis_decompose,
    balanced_factors,
    grid_decompose,
    quadrant_decompose,
)
from .partition import Partition, Subdomain

__all__ = [
    "Partition",
    "Subdomain",
    "axis_decompose",
    "quadrant_decompose",
    "grid_decompose",
    "balanced_factors",
    "bisection_decompose",
    "DECOMPOSERS",
    "decompose",
]

#: Scheme name -> decomposer ``(grid, num_ranks, axis)``: the one place a
#: scheme string becomes a call (the run shell and the trace layer both
#: name schemes by string).  Only the slab schemes use ``axis``.
DECOMPOSERS: Dict[str, Callable[[VoxelGrid, int, int], Partition]] = {
    "axis": axis_decompose,
    "quadrant": quadrant_decompose,
    "bisection": lambda grid, n, axis: bisection_decompose(grid, n),
    "grid": lambda grid, n, axis: grid_decompose(grid, n),
}


def decompose(
    grid: VoxelGrid, num_ranks: int, scheme: str, axis: int = 0
) -> Partition:
    """Decompose ``grid`` over ``num_ranks`` with the named scheme."""
    if scheme not in DECOMPOSERS:
        raise DecompositionError(
            f"unknown scheme {scheme!r}; expected one of "
            f"{', '.join(sorted(DECOMPOSERS))}"
        )
    return DECOMPOSERS[scheme](grid, num_ranks, axis)
