"""Bit-exact equivalence of the step-plan engine vs a per-q reference.

The engine the solvers run (single-gather streaming, allocation-free
collide, preallocated halo packing) is a pure performance refactor of
the textbook per-population algorithm: every test here pins
``np.array_equal`` — not ``allclose`` — against a test-local reference
stepper built from the oracles ``src/`` keeps for exactly this purpose
(``Connectivity.stream``, ``rankplan.rank_link_lists``, the no-workspace
``collision.apply``, the boundary objects), across collision operators,
boundary styles, and the single-domain/distributed split.

The compiled tier (:mod:`repro.models.compiled`) executes the same
StepPlan IR through JIT/C kernels, pinned in two modes:

* **exact** (``fastmath=False``): BGK is bit-identical to the NumPy
  path; TRT/MRT differ only by scalar-vs-BLAS reduction order, banded
  at ``rtol=1e-10 / atol=1e-14`` (measured ~1e-15 over 12 steps);
* **fastmath** (the default build): reassociation adds ~1e-16 on this
  workload, banded at ``rtol=1e-8 / atol=1e-11``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.kernels import Workspace, bgk_collide_kernel
from repro.core.lattice import D3Q19
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.geometry.flags import INLET, OUTLET
from repro.harvey.config import HarveyConfig
from repro.lbm.boundary import PressureOutlet, VelocityInlet
from repro.lbm.distributed import DistributedSolver
from repro.lbm.rankplan import rank_link_lists
from repro.lbm.solver import Solver, SolverConfig
from repro.lbm.stream import Connectivity
from repro.models.compiled import compiled_available
from repro.telemetry import get_registry

STEPS = 12

compiled_only = pytest.mark.skipif(
    not compiled_available(),
    reason="no compiled provider (numba or host C compiler) available",
)

#: exact mode: fastmath off; only reduction order may differ from BLAS
EXACT_TOL = dict(rtol=1e-10, atol=1e-14)
#: fastmath mode: reassociation/contraction allowed in the kernels
FASTMATH_TOL = dict(rtol=1e-8, atol=1e-11)


def periodic_grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def inlet_grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=False))


def periodic_config(collision):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
    )


def inlet_config(collision):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        inlet_velocity=(0.05, 0.0, 0.0),
    )


class ReferenceStepper:
    """The per-q single-domain algorithm, one population at a time:
    allocating collide, ``Connectivity.stream``, equilibrium boundaries."""

    def __init__(self, grid, config):
        self.lattice = config.make_lattice()
        self.collision = config.make_collision()
        self.conn = Connectivity(grid, self.lattice, periodic=config.periodic)
        n = self.conn.num_nodes
        self.ids = np.arange(n, dtype=np.int64)
        self.f = self.lattice.equilibrium(
            np.full(n, config.rho0), np.zeros((n, 3))
        )
        self.f_tmp = np.empty_like(self.f)
        x, y, z = self.conn.coords.T
        flags = grid.flags[x, y, z]
        self.boundaries = []
        if np.any(flags == INLET):
            self.boundaries.append(
                VelocityInlet(
                    self.ids[flags == INLET], config.inlet_velocity, config.rho0
                )
            )
        if np.any(flags == OUTLET):
            self.boundaries.append(
                PressureOutlet(self.ids[flags == OUTLET], config.rho0)
            )
        self.time = 0

    def step(self, num_steps):
        for _ in range(num_steps):
            self.collision.apply(self.lattice, self.f, self.ids)
            self.conn.stream(self.f, self.f_tmp)
            self.f, self.f_tmp = self.f_tmp, self.f
            self.time += 1
            for boundary in self.boundaries:
                boundary.apply(self.lattice, self.f, self.time)


def reference_distributed_f(part, config, num_steps):
    """The per-q distributed algorithm over a ``DistributedSolver`` that
    is built but never stepped: allocating collide on owned nodes,
    whole-column ghost copies located by global node id (not through the
    exchange tables), one gather and one bounce-back per population from
    the link lists every ``flat_src`` is compiled from, equilibrium
    boundaries."""
    solver = DistributedSolver(part, config)
    lattice, collision, ranks = solver.lattice, solver.collision, solver.ranks
    links = rank_link_lists(part.grid, part, lattice, config.periodic)
    ghost_copies = []  # (dst state, ghost columns, owner state, owned columns)
    for st in ranks:
        ghosts = st.plan.ghost_global
        for owner in ranks:
            held = np.isin(ghosts, owner.plan.owned_global)
            if held.any():
                ghost_copies.append((
                    st,
                    st.num_owned + np.flatnonzero(held),
                    owner,
                    np.searchsorted(owner.plan.owned_global, ghosts[held]),
                ))
    for time in range(1, num_steps + 1):
        for st in ranks:
            collision.apply(lattice, st.f, np.arange(st.num_owned))
        for st, ghost_cols, owner, owned_cols in ghost_copies:
            st.f[:, ghost_cols] = owner.f[:, owned_cols]
        for st in ranks:
            for link in links[st.rank]:
                st.f_tmp[link.qi, link.dst] = st.f[link.qi, link.src]
                st.f_tmp[link.qi, link.bounce] = st.f[link.qi_opp, link.bounce]
            st.f, st.f_tmp = st.f_tmp, st.f
            if st.inlet is not None:
                st.inlet.apply(lattice, st.f, time)
            if st.outlet is not None:
                st.outlet.apply(lattice, st.f, time)
    return solver.gather_f()


@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_single_domain_periodic_force_bitwise(collision):
    grid = periodic_grid()
    reference = ReferenceStepper(grid, periodic_config(collision))
    solver = Solver(grid, periodic_config(collision))
    reference.step(STEPS)
    solver.step(STEPS)
    assert np.array_equal(reference.f, solver.f)


@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_single_domain_inlet_outlet_bitwise(collision):
    grid = inlet_grid()
    reference = ReferenceStepper(grid, inlet_config(collision))
    solver = Solver(grid, inlet_config(collision))
    assert len(reference.boundaries) == 2
    reference.step(STEPS)
    solver.step(STEPS)
    assert np.array_equal(reference.f, solver.f)


@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_distributed_periodic_force_bitwise(collision):
    part = grid_decompose(periodic_grid(), 4)
    solver = DistributedSolver(part, periodic_config(collision))
    solver.step(STEPS)
    reference = reference_distributed_f(part, periodic_config(collision), STEPS)
    assert np.array_equal(reference, solver.gather_f())


@pytest.mark.parametrize("collision", ["bgk", "trt"])
def test_distributed_matches_single_domain_bitwise(collision):
    # MRT is excluded: its 19x19 moment GEMM is width-sensitive, so the
    # distributed run differs from single-domain in the last bits on the
    # per-q reference and the step-plan engine alike (covered by the
    # distributed suite's allclose checks).
    grid = periodic_grid()
    part = grid_decompose(grid, 4)
    single = Solver(grid, periodic_config(collision))
    dist = DistributedSolver(part, periodic_config(collision))
    single.step(STEPS)
    dist.step(STEPS)
    assert np.array_equal(single.f, dist.gather_f())


def test_distributed_inlet_outlet_bitwise():
    part = grid_decompose(inlet_grid(), 4)
    solver = DistributedSolver(part, inlet_config("bgk"))
    assert any(st.inlet is not None for st in solver.ranks)
    solver.step(STEPS)
    reference = reference_distributed_f(part, inlet_config("bgk"), STEPS)
    assert np.array_equal(reference, solver.gather_f())


def test_step_plan_matches_per_q_stream():
    """StepPlan.apply reproduces Connectivity.stream on arbitrary data."""
    grid = periodic_grid()
    lat = D3Q19
    conn = Connectivity(grid, lat, periodic=(True, False, False))
    plan = conn.step_plan()
    rng = np.random.default_rng(7)
    f = rng.random((lat.q, conn.num_nodes))
    ref = np.empty_like(f)
    out = np.empty_like(f)
    conn.stream(f, ref)
    plan.apply(f, out)
    assert np.array_equal(ref, out)


def test_workspace_buffers_are_reused():
    """Repeat collides allocate nothing new after the first call."""
    grid = periodic_grid()
    lat = D3Q19
    conn = Connectivity(grid, lat, periodic=(True, False, False))
    n = conn.num_nodes
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
    grid = periodic_grid()
    lat = D3Q19
    conn = Connectivity(grid, lat, periodic=(True, False, False))
    n = conn.num_nodes
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


# -- compiled tier -----------------------------------------------------------

def compiled_periodic_config(collision, *, fastmath, backend="compiled"):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
        backend=backend,
        fastmath=fastmath,
    )


def compiled_inlet_config(collision, *, fastmath):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        inlet_velocity=(0.05, 0.0, 0.0),
        backend="compiled",
        fastmath=fastmath,
    )


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_compiled_single_domain_exact_mode(collision):
    grid = periodic_grid()
    ref = Solver(grid, periodic_config(collision))
    comp = Solver(grid, compiled_periodic_config(collision, fastmath=False))
    ref.step(STEPS)
    comp.step(STEPS)
    if collision == "bgk":
        # scalar BGK has no reductions beyond the ascending-q moment
        # sums the NumPy kernels also use: bit-identical
        assert np.array_equal(ref.f, comp.f)
    np.testing.assert_allclose(comp.f, ref.f, **EXACT_TOL)


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_compiled_single_domain_fastmath_banded(collision):
    grid = periodic_grid()
    ref = Solver(grid, periodic_config(collision))
    comp = Solver(grid, compiled_periodic_config(collision, fastmath=True))
    ref.step(STEPS)
    comp.step(STEPS)
    np.testing.assert_allclose(comp.f, ref.f, **FASTMATH_TOL)


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt"])
def test_compiled_inlet_outlet_exact_mode(collision):
    grid = inlet_grid()
    ref = Solver(grid, inlet_config(collision))
    comp = Solver(grid, compiled_inlet_config(collision, fastmath=False))
    ref.step(STEPS)
    comp.step(STEPS)
    np.testing.assert_allclose(comp.f, ref.f, **EXACT_TOL)


@compiled_only
@pytest.mark.parametrize("overlap", [False, True])
def test_compiled_distributed_bgk_bitwise(overlap):
    grid = periodic_grid()
    part = grid_decompose(grid, 3)
    base = periodic_config("bgk")
    ref = DistributedSolver(part, dataclasses.replace(base, overlap=overlap))
    comp = DistributedSolver(
        part,
        dataclasses.replace(
            base, overlap=overlap, backend="compiled", fastmath=False
        ),
    )
    ref.step(STEPS)
    comp.step(STEPS)
    assert np.array_equal(ref.gather_f(), comp.gather_f())


@compiled_only
def test_compiled_serial_and_parallel_agree_bitwise():
    grid = periodic_grid()
    serial = Solver(
        grid,
        compiled_periodic_config(
            "bgk", fastmath=False, backend="compiled-serial"
        ),
    )
    parallel = Solver(
        grid,
        compiled_periodic_config(
            "bgk", fastmath=False, backend="compiled-parallel"
        ),
    )
    serial.step(STEPS)
    parallel.step(STEPS)
    assert np.array_equal(serial.f, parallel.f)
