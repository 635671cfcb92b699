"""The step-plan engine's building blocks against their oracles.

The engine the solvers run (single-gather streaming, allocation-free
collide, preallocated halo packing) is a pure performance refactor of
the textbook per-population algorithm.  Its stepped runs are pinned
against the per-q reference steppers in the conformance matrix
(``tests/lbm/test_conformance.py``); this file pins the pieces: the
gather against the per-population link lists it is folded from, the
workspace collide against the allocating one, workspace reuse and the
halo byte counters.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.kernels import Workspace, bgk_collide_kernel
from repro.core.lattice import D3Q19
from repro.decomp import axis_decompose, grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.harvey.config import HarveyConfig
from repro.lbm.distributed import DistributedSolver
from repro.lbm.rankplan import build_rank_plans, rank_link_lists
from repro.lbm.solver import SolverConfig
from repro.telemetry import get_registry

from .plan_oracle import stream_links

PERIODIC = (True, False, False)


def periodic_grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def periodic_config(collision):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=PERIODIC,
    )


def test_step_plan_matches_per_q_stream():
    """StepPlan.apply of a one-rank plan reproduces the per-population
    link lists on arbitrary data."""
    grid = periodic_grid()
    lat = D3Q19
    part = axis_decompose(grid, 1)
    (plan,) = build_rank_plans(grid, part, lat, PERIODIC)
    (links,) = rank_link_lists(grid, part, lat, PERIODIC)
    rng = np.random.default_rng(7)
    f = rng.random((lat.q, grid.num_fluid))
    ref = np.empty_like(f)
    out = np.empty_like(f)
    stream_links(links, f, ref)
    plan.step_plan.apply(f, out)
    assert np.array_equal(ref, out)


def test_workspace_buffers_are_reused():
    """Repeat collides allocate nothing new after the first call."""
    lat = D3Q19
    n = periodic_grid().num_fluid
    f = lat.equilibrium(np.full(n, 1.0), np.zeros((n, 3)))
    idx = np.arange(n, dtype=np.int64)
    ws = Workspace()
    bgk_collide_kernel(lat, f, idx, omega=1.25, workspace=ws)
    count = ws.num_buffers()
    assert count > 0
    for _ in range(3):
        bgk_collide_kernel(lat, f, idx, omega=1.25, workspace=ws)
    assert ws.num_buffers() == count


def test_fused_collide_bitwise_equals_legacy_kernel():
    """The workspace path and the allocating path agree bit for bit."""
    lat = D3Q19
    n = periodic_grid().num_fluid
    rng = np.random.default_rng(11)
    base = lat.equilibrium(
        1.0 + 0.01 * rng.random(n), 0.01 * rng.random((n, 3))
    )
    idx = np.arange(n, dtype=np.int64)
    force = (1e-5, 0.0, 0.0)
    f_legacy = base.copy()
    f_fused = base.copy()
    bgk_collide_kernel(lat, f_legacy, idx, omega=1.25, force=force)
    bgk_collide_kernel(
        lat, f_fused, idx, omega=1.25, force=force, workspace=Workspace()
    )
    assert np.array_equal(f_legacy, f_fused)


def test_halo_pack_byte_counters_increment():
    grid = periodic_grid()
    part = grid_decompose(grid, 4)
    solver = DistributedSolver(part, periodic_config("bgk"))
    packed = get_registry().counter("lbm.halo.bytes_packed")
    unpacked = get_registry().counter("lbm.halo.bytes_unpacked")
    before_p, before_u = packed.value, unpacked.value
    solver.step(2)
    assert packed.value > before_p
    assert unpacked.value > before_u
    # symmetric exchange: every packed byte is unpacked somewhere
    assert packed.value - before_p == unpacked.value - before_u


def test_fused_is_the_default():
    # and the only path: no flag selects it, on either config
    for config in (SolverConfig, HarveyConfig):
        assert "fused" not in {f.name for f in dataclasses.fields(config)}
    with pytest.raises(TypeError, match="fused"):
        SolverConfig(tau=0.8, fused=False)
