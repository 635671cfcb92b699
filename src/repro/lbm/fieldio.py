"""Field output: save macroscopic fields and extract flow diagnostics.

Production runs export velocity/pressure fields for post-processing
(the paper's Fig. 2a visualisation is rendered from such exports).  We
provide compressed ``.npz`` field dumps plus the two diagnostics most
used in hemodynamics validation: cross-sectional flow rate and axial
velocity profiles.  Each takes a
:class:`~repro.lbm.distributed.DistributedSolver` at any rank count (the
single-domain :class:`~repro.lbm.solver.Solver` is its one-rank case)
and reads the global compact node order.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Union

import numpy as np

from ..core.errors import ConfigError
from .distributed import DistributedSolver
from .moments import density as _density
from .moments import velocity as _velocity

__all__ = [
    "save_fields",
    "load_fields",
    "flow_rate",
    "axial_profile",
]

PathLike = Union[str, pathlib.Path]


def save_fields(solver, path: PathLike) -> pathlib.Path:
    """Write density and velocity on the full voxel grid to ``path``.

    Both fields come from one gathered copy of the distributions.
    """
    if not isinstance(solver, DistributedSolver):
        raise ConfigError(
            f"cannot export fields from {type(solver).__name__}"
        )
    path = pathlib.Path(path)
    f = solver.gather_f()
    velocity = _velocity(solver.lattice, f, solver.collision.force)
    np.savez_compressed(
        path,
        velocity=solver.on_grid(velocity).astype(np.float32),
        density=solver.on_grid(_density(f)).astype(np.float32),
        flags=solver.grid.flags,
        spacing=np.float64(solver.grid.spacing),
        time=np.int64(solver.time),
    )
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_fields(path: PathLike) -> Dict[str, np.ndarray]:
    """Read a field dump back as a dict."""
    with np.load(pathlib.Path(path)) as data:
        return {key: data[key] for key in data.files}


def flow_rate(solver, axis: int, position: int) -> float:
    """Volumetric flow rate through a grid plane (lattice units^3/step).

    Integrates the axis-normal velocity component over the fluid voxels
    of the plane — the quantity conserved along a vessel in steady flow.
    """
    if not 0 <= axis < 3:
        raise ConfigError("axis must be 0, 1, or 2")
    shape = solver.grid.shape
    if not 0 <= position < shape[axis]:
        raise ConfigError(
            f"position {position} outside axis extent {shape[axis]}"
        )
    coords = solver.coords
    u = solver.velocity()
    on_plane = coords[:, axis] == position
    return float(u[on_plane, axis].sum())


def axial_profile(solver, axis: int = 0) -> np.ndarray:
    """Mean axis-parallel velocity per layer along ``axis``.

    Returns an array of length ``shape[axis]`` (NaN for layers without
    fluid) — the quick look at how developed a channel flow is.
    """
    if not 0 <= axis < 3:
        raise ConfigError("axis must be 0, 1, or 2")
    coords = solver.coords
    u = solver.velocity()[:, axis]
    extent = solver.grid.shape[axis]
    out = np.full(extent, np.nan)
    positions = coords[:, axis]
    for x in range(extent):
        sel = positions == x
        if sel.any():
            out[x] = u[sel].mean()
    return out
