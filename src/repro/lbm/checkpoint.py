"""Solver state checkpointing.

Long hemodynamic runs (many cardiac cycles at 27.5 um) checkpoint and
restart; this module saves and restores a
:class:`~repro.lbm.distributed.DistributedSolver`'s distribution state,
at any rank count (the single-domain :class:`~repro.lbm.solver.Solver`
is its one-rank case), to a single ``.npz`` file in the global compact
node order, with enough metadata to refuse a mismatched restart loudly:
the lattice, the grid shape, the fluid-node count and a hash of the
grid's flags and periodicity (two geometries can share a shape and a
node count).
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import Union

import numpy as np

from ..core.errors import ConfigError
from .distributed import DistributedSolver

__all__ = ["save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def _geometry_hash(solver) -> str:
    """sha256 over the grid's flag array and the per-axis periodicity:
    what fixes the compact node order and the boundary each node has."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(solver.grid.flags).tobytes())
    digest.update(bytes(bool(axis) for axis in solver.config.periodic))
    return digest.hexdigest()


def save_checkpoint(solver, path: PathLike) -> pathlib.Path:
    """Write the solver's distribution state and clock to ``path``.

    The state is gathered into the global compact ordering, so a run may
    be checkpointed under one decomposition and restarted under another.
    """
    if not isinstance(solver, DistributedSolver):
        raise ConfigError(
            f"cannot checkpoint object of type {type(solver).__name__}"
        )
    path = pathlib.Path(path)
    np.savez_compressed(
        path,
        f=solver.gather_f(),
        time=np.int64(solver.time),
        fluid_updates=np.int64(solver.fluid_updates),
        lattice=np.bytes_(solver.lattice.name.encode()),
        grid_shape=np.asarray(solver.grid.shape, dtype=np.int64),
        geometry_hash=np.bytes_(_geometry_hash(solver).encode()),
        format_version=np.int64(_FORMAT_VERSION),
    )
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_checkpoint(solver, path: PathLike) -> None:
    """Restore a checkpoint into a compatible solver, in place.

    The target must have the same lattice, grid shape, fluid-node count
    and grid flags and periodicity (checked by hash when the file holds
    one; older files carry none); the decomposition may differ.
    """
    solver._require_open("it cannot load a checkpoint")
    path = pathlib.Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ConfigError(
                f"checkpoint format {version} != supported {_FORMAT_VERSION}"
            )
        lattice = bytes(data["lattice"]).decode()
        if lattice != solver.lattice.name:
            raise ConfigError(
                f"checkpoint lattice {lattice} != solver "
                f"{solver.lattice.name}"
            )
        shape = tuple(int(x) for x in data["grid_shape"])
        if shape != tuple(solver.grid.shape):
            raise ConfigError(
                f"checkpoint grid {shape} != solver {solver.grid.shape}"
            )
        f = data["f"]
        if f.shape[1] != solver.num_nodes:
            raise ConfigError(
                f"checkpoint holds {f.shape[1]} nodes, solver has "
                f"{solver.num_nodes}"
            )
        if "geometry_hash" in data.files:
            saved = bytes(data["geometry_hash"]).decode()
            if saved != _geometry_hash(solver):
                raise ConfigError(
                    "checkpoint geometry differs from the solver's: same "
                    "grid shape and node count, but other grid flags or "
                    "periodicity"
                )
        time = int(data["time"])
        fluid_updates = int(data["fluid_updates"])
    for st in solver.ranks:
        st.f[...] = f[:, st.plan.owned_global]
    solver.time = time
    solver.fluid_updates = fluid_updates
