"""The NumPy tier moves the bytes ``phase_bytes_per_step()`` prices.

Blocked in-place collide on the owned prefix and the one-take stream
are pure data-movement changes: every comparison here is ``array_equal``
against the gather/scatter collide and a plain fancy-index gather, columns past
the collided prefix carry NaN canaries, and a ``tracemalloc`` guard pins
that no steady step allocates a field-sized temporary again.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.kernels import COLLIDE_BLOCK, Workspace, collide_prefix
from repro.core.lattice import D3Q19
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.harvey.app import HarveyApp
from repro.harvey.config import HarveyConfig
from repro.lbm.bgk import BGKCollision
from repro.lbm.distributed import DistributedSolver
from repro.lbm.mrt import MRTCollision
from repro.lbm.solver import Solver, SolverConfig
from repro.lbm.trt import TRTCollision

FORCE = (1e-5, 2e-6, -3e-6)
GHOSTS = 17
# the tail cases matter: BLAS sums a narrow operand in another order
# (strided gemv for one column, OpenBLAS's small-matrix GEMM below ~2.8 k
# columns), so a lone owned node, a one-column tail (4097) or a 2 708-column
# tail (10 900) must not change a bit
WIDTHS = (1, 63, 4095, 4096, 4097, 2 * COLLIDE_BLOCK + 64, 10900)


def perturbed_field(n, seed):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.05 * rng.standard_normal(n)
    u = 0.05 * rng.standard_normal((n, 3))
    return D3Q19.equilibrium(rho, u) * (
        1.0 + 0.01 * rng.standard_normal((D3Q19.q, n))
    )


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("force", [None, FORCE], ids=["noforce", "force"])
@pytest.mark.parametrize(
    "operator", [BGKCollision, TRTCollision, MRTCollision]
)
def test_blocked_prefix_collide_equals_gather_path(operator, force, n):
    assert COLLIDE_BLOCK == 4096  # WIDTHS straddle this block boundary
    collision = operator(0.8, force=force)
    want = perturbed_field(n + GHOSTS, seed=n)
    want[:, n:] = np.nan
    got = want.copy()
    # no workspace: gather f[:, idx], collide the copy, scatter it back
    collision.apply(D3Q19, want, np.arange(n))
    workspace = Workspace()
    collide_prefix(collision, D3Q19, got, n, workspace)
    assert np.array_equal(got[:, :n], want[:, :n])
    assert np.isnan(got[:, n:]).all()
    # scratch is block-wide however wide the field is
    assert all(
        shape[-1] < 2 * COLLIDE_BLOCK for _, shape in workspace._bufs
    )


def ranked_cylinder(**config):
    grid = make_cylinder(CylinderSpec(scale=1.0, periodic=False))
    cfg = SolverConfig(tau=0.8, inlet_velocity=(0.05, 0.0, 0.0), **config)
    return DistributedSolver(grid_decompose(grid, 4), cfg)


def test_stream_of_an_exchanging_rank_is_one_take():
    solver = ranked_cylinder()
    for st in solver.ranks:
        plan, n = st.plan.step_plan, st.num_owned
        # a rank's buffers hold its owned nodes only
        assert plan.num_local == n and st.f.shape == (D3Q19.q, n)
        f = perturbed_field(n, seed=st.rank)
        out = np.full_like(f, np.nan)
        plan.apply(f, out)  # one take over the whole array
        halo = plan.flat_src == -1
        assert halo.any()
        assert np.array_equal(out[~halo], f.reshape(-1)[plan.flat_src[~halo]])
        # the halo placeholder reads element 0 (mode="clip"); the
        # frontier scatter overwrites it
        assert (out[halo] == f[0, 0]).all()


@pytest.fixture(scope="module")
def default_app():
    """``HarveyConfig()`` as shipped: aorta, 84 k nodes, 4 lockstep ranks."""
    return HarveyApp(HarveyConfig())


def test_default_config_matches_single_domain_bitwise(default_app):
    cfg = default_app.solver.config
    ranked = DistributedSolver(default_app.partition, cfg)
    single = Solver(default_app.grid, cfg)
    assert min(st.num_owned for st in ranked.ranks) > COLLIDE_BLOCK
    ranked.step(20)
    single.step(20)
    assert np.array_equal(ranked.gather_f(), single.f)


def steady_peak_bytes(solver, steps=5):
    solver.step(3)  # workspaces, staging and lazy buffers exist from here on
    tracemalloc.start()
    try:
        solver.step(1)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        solver.step(steps)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
def test_steady_step_allocates_no_field_sized_temporary(default_app, overlap):
    cfg = dataclasses.replace(default_app.solver.config, overlap=overlap)
    ranked = DistributedSolver(default_app.partition, cfg)
    # half of one rank's (q, owned) field: a hidden np.take write-back
    # buffer or a reintroduced collide gather is twice this.  What is left
    # scales with surfaces: in-flight halo payloads and boundary updates.
    limit = D3Q19.q * min(st.num_owned for st in ranked.ranks) * 8 // 2
    assert steady_peak_bytes(ranked) < limit
    assert steady_peak_bytes(Solver(default_app.grid, cfg)) < limit
