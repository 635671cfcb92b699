"""The compiled tier's kernel IR: run-length stream tables, constant-trip
collide blocks, the one-call pressure outlet, and the provider's set-up
cache.

``planmeta.kernel_tables`` collapses a plan's links into ``(heads,
lens)`` runs; everything the compiled ``stream`` kernel does rests on
that table expanding back to exactly the link set, so the property is
pinned over every kind of plan the solvers build.  ``collide`` splits
its node loop into compile-time-width full blocks and one runtime-width
tail, so the tail sizes around the block width are pinned per operator.
"""

import subprocess

import numpy as np
import pytest

from repro.core import planmeta
from repro.core.errors import BackendUnavailableError, ConfigError
from repro.core.lattice import D3Q19, get_lattice
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.lbm.boundary import PressureOutlet
from repro.lbm.distributed import DistributedSolver
from repro.lbm.solver import Solver, SolverConfig
from repro.lbm.stream import StepPlan
from repro.models.compiled import (
    CompiledKernels,
    compiled_available,
    compiled_provider,
    csrc,
    kernels_py,
)

compiled_only = pytest.mark.skipif(
    not compiled_available(),
    reason="no compiled provider (numba or host C compiler) available",
)
cgen_only = pytest.mark.skipif(
    compiled_provider() != "cgen",
    reason="needs the generated-C provider",
)

#: the bands tests/lbm/test_fused_equivalence.py pins the tier at
EXACT_TOL = dict(rtol=1e-10, atol=1e-14)
FASTMATH_TOL = dict(rtol=1e-8, atol=1e-11)


def _config(kind, **extra):
    if kind == "periodic":
        return SolverConfig(
            tau=0.8,
            force=(1e-5, 0.0, 0.0),
            periodic=(True, False, False),
            **extra,
        )
    return SolverConfig(tau=0.8, inlet_velocity=(0.05, 0.0, 0.0), **extra)


def _plans(kind, ranks, overlap, scale=0.5):
    """Every StepPlan one solver configuration builds (one per rank)."""
    grid = make_cylinder(CylinderSpec(scale=scale, periodic=kind == "periodic"))
    if ranks == 1:
        return [Solver(grid, _config(kind)).step_plan]
    solver = DistributedSolver(
        grid_decompose(grid, ranks), _config(kind, overlap=overlap)
    )
    return [st.plan.step_plan for st in solver.ranks]


PLAN_CASES = [
    pytest.param(kind, ranks, overlap, id=f"{kind}-{ranks}r-{mode}")
    for kind in ("periodic", "inlet")
    for ranks, overlap, mode in (
        (1, False, "single"),
        (2, False, "barrier"),
        (2, True, "overlap"),
        (4, False, "barrier"),
        (4, True, "overlap"),
    )
]


@pytest.mark.parametrize("kind, ranks, overlap", PLAN_CASES)
def test_run_table_expands_to_the_link_tables(kind, ranks, overlap):
    for plan in _plans(kind, ranks, overlap):
        heads, lens = plan.kernel_tables()
        assert heads.dtype == lens.dtype == np.int64
        assert heads.shape == (lens.size, 2)
        assert heads.flags.c_contiguous and lens.flags.c_contiguous
        dst, src = planmeta.expand_runs(heads, lens)
        assert np.array_equal(dst, plan.flat_dst().reshape(-1))
        assert np.array_equal(src, plan.flat_src.reshape(-1))
        if lens.size:
            assert 1 <= lens.min() and lens.max() <= planmeta.KERNEL_RUN_CAP
        assert planmeta.run_table_issues(
            heads, lens, plan.flat_src, plan.update_ids, plan.num_local
        ) == []


def test_run_table_of_a_scattered_update_set():
    # the solvers build prefix plans only, but the table functions take
    # any update set: the ghost-reading columns of a rank plan are one
    # with gaps, so runs must also break where the update ids do
    for plan in _plans("inlet", 2, True):
        cols = np.flatnonzero(
            (plan.flat_src % plan.num_local >= plan.num_update).any(axis=0)
        )
        assert 0 < cols.size < plan.num_update
        sub = StepPlan(
            plan.q, plan.num_local, plan.update_ids[cols],
            np.ascontiguousarray(plan.flat_src[:, cols]),
        )
        heads, lens = sub.kernel_tables()
        dst, src = planmeta.expand_runs(heads, lens)
        assert np.array_equal(dst, sub.flat_dst().reshape(-1))
        assert np.array_equal(src, sub.flat_src.reshape(-1))
        assert planmeta.run_table_issues(
            heads, lens, sub.flat_src, sub.update_ids, sub.num_local
        ) == []


@compiled_only
@pytest.mark.parametrize("kind, ranks, overlap", PLAN_CASES)
def test_compiled_stream_is_plan_apply_bitwise(kind, ranks, overlap):
    kern = CompiledKernels(D3Q19, _config(kind).make_collision())
    rng = np.random.default_rng(11)
    for plan in _plans(kind, ranks, overlap):
        f_src = rng.random((D3Q19.q, plan.num_local))
        # a sentinel in every slot: columns the plan does not update
        # (the ghosts) must come out untouched
        want = np.full_like(f_src, -1.0)
        got = np.full_like(f_src, -1.0)
        plan.apply(f_src, want)
        kern.stream(f_src, got, *plan.kernel_tables())
        assert np.array_equal(want, got)


def test_runs_longer_than_the_cap_are_split():
    # 16 k nodes: the rest population copies every node onto itself, one
    # run of n_upd elements before the cap
    plan = _plans("periodic", 1, False, scale=1.0)[0]
    cap = planmeta.KERNEL_RUN_CAP
    assert plan.num_update > 2 * cap
    heads, lens = plan.kernel_tables()
    rest = heads[:, 1] < plan.num_local
    assert np.array_equal(heads[rest, 0], heads[rest, 1])
    assert lens[rest].tolist() == [cap] * (plan.num_update // cap) + [
        plan.num_update % cap
    ]
    assert lens.max() == cap
    dst, src = planmeta.expand_runs(heads, lens)
    assert np.array_equal(dst, plan.flat_dst().reshape(-1))
    assert np.array_equal(src, plan.flat_src.reshape(-1))


def test_empty_plan_has_an_empty_run_table():
    heads, lens = planmeta.kernel_tables(
        np.empty((19, 0), dtype=np.int64), np.empty(0, dtype=np.int64), 8
    )
    assert heads.shape == (0, 2) and lens.shape == (0,)


# -- collide: full blocks at the compile-time width, one runtime tail -------
@compiled_only
@pytest.mark.parametrize("fastmath", [False, True], ids=["exact", "fastmath"])
@pytest.mark.parametrize("force", [None, (1e-5, 2e-6, -3e-6)], ids=["noforce", "force"])
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_collide_tail_blocks(collision, force, fastmath):
    nb = csrc.BLOCK
    operator = SolverConfig(
        tau=0.8, collision=collision, force=force
    ).make_collision()
    kern = CompiledKernels(D3Q19, operator, fastmath=fastmath)
    rng = np.random.default_rng(13)
    width = 2 * nb + 9
    f0 = np.ascontiguousarray(
        D3Q19.equilibrium(
            1.0 + 0.01 * rng.random(width), 0.02 * rng.random((width, 3))
        )
    )
    # the reference collides every column at once: NumPy sums a lone
    # column pairwise, not in the ascending-q order it uses for two or
    # more (and the kernels always), so a 1-node apply is not bitwise
    collided = f0.copy()
    operator.apply(D3Q19, collided, np.arange(width, dtype=np.int64))
    for n_nodes in (1, nb - 1, nb, nb + 1, 2 * nb + 5):
        want, got = f0.copy(), f0.copy()
        want[:, :n_nodes] = collided[:, :n_nodes]
        kern.collide(got, n_nodes)
        # nothing past the prefix moves
        assert np.array_equal(got[:, n_nodes:], f0[:, n_nodes:])
        if collision == "bgk" and not fastmath:
            assert np.array_equal(want, got)
        np.testing.assert_allclose(
            got, want, **(FASTMATH_TOL if fastmath else EXACT_TOL)
        )


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_fused_step_is_stream_then_collide(collision):
    # no solver routes through the one-pass kernel any more; the ladder
    # times it, so it stays pinned to the pair it fuses
    plan = _plans("periodic", 1, False)[0]
    operator = _config("periodic", collision=collision).make_collision()
    kern = CompiledKernels(D3Q19, operator, fastmath=False)
    rng = np.random.default_rng(17)
    n = plan.num_local
    f = np.ascontiguousarray(
        D3Q19.equilibrium(
            1.0 + 0.01 * rng.random(n), 0.02 * rng.random((n, 3))
        )
    )
    want, got = np.empty_like(f), np.empty_like(f)
    kern.stream(f, want, *plan.kernel_tables())
    kern.collide(want)
    kern.fused_step(f, got, np.ascontiguousarray(plan.flat_src))
    assert np.array_equal(want, got)


# -- outlet: the pressure outlet in one kernel call --------------------------
def _outlet_case(lattice, nodes, width=3 * csrc.BLOCK + 7):
    """A perturbed state and the NumPy reference outlet applied to it."""
    rng = np.random.default_rng(23)
    f0 = np.ascontiguousarray(
        lattice.equilibrium(
            1.0 + 0.01 * rng.random(width), 0.03 * rng.random((width, 3))
        )
    )
    want = f0.copy()
    PressureOutlet(nodes, rho0=1.02).apply(lattice, want, 0.0)
    return f0, want


OUTLET_NODES = {
    "unsorted": np.array([70, 3, 41, 0, 102, 33, 64, 12], dtype=np.int64),
    "empty": np.empty(0, dtype=np.int64),
}


@compiled_only
@pytest.mark.parametrize("fastmath", [False, True], ids=["exact", "fastmath"])
@pytest.mark.parametrize("nodes", list(OUTLET_NODES), ids=list(OUTLET_NODES))
@pytest.mark.parametrize("lattice", ["D3Q15", "D3Q19", "D3Q27"])
def test_outlet_is_the_reference_outlet(lattice, nodes, fastmath):
    lat = get_lattice(lattice)
    operator = SolverConfig(tau=0.8, lattice=lattice).make_collision()
    kern = CompiledKernels(lat, operator, fastmath=fastmath)
    f0, want = _outlet_case(lat, OUTLET_NODES[nodes])
    got = f0.copy()
    kern.outlet(got, OUTLET_NODES[nodes], 1.02)
    np.testing.assert_allclose(
        got, want, **(FASTMATH_TOL if fastmath else EXACT_TOL)
    )
    # columns off the node list are untouched
    others = np.setdiff1d(np.arange(f0.shape[1]), OUTLET_NODES[nodes])
    assert np.array_equal(got[:, others], f0[:, others])


@compiled_only
@pytest.mark.parametrize(
    "nodes",
    [
        np.array([3, 5], dtype=np.int32),
        np.arange(0, 20, 2, dtype=np.int64)[::2],
    ],
    ids=["int32", "non-contiguous"],
)
def test_outlet_rejects_off_abi_nodes(nodes):
    kern = CompiledKernels(D3Q19, _config("inlet").make_collision())
    f = np.ones((D3Q19.q, 32))
    with pytest.raises(ConfigError, match="nodes"):
        kern.outlet(f, nodes, 1.0)


# -- the numba provider's source, run under CPython -------------------------
@cgen_only
def test_python_run_table_twin_matches_the_c_kernel():
    plan = _plans("inlet", 2, False, scale=0.25)[0]
    heads, lens = plan.kernel_tables()
    kern = CompiledKernels(D3Q19, _config("inlet").make_collision())
    f_src = np.random.default_rng(19).random((D3Q19.q, plan.num_local))
    want = np.full_like(f_src, -1.0)
    got = np.full_like(f_src, -1.0)
    kern.stream(f_src, want, heads, lens)
    kernels_py.stream_runs_loop(
        f_src.reshape(-1), got.reshape(-1), heads, lens, lens.size
    )
    assert np.array_equal(want, got)


def test_python_outlet_twin_is_the_reference_outlet():
    nodes = OUTLET_NODES["unsorted"]
    f0, want = _outlet_case(D3Q19, nodes)
    got = f0.copy()
    kernels_py.outlet_nodes_loop(
        got.reshape(-1), nodes, nodes.size, D3Q19.q, got.shape[1],
        np.ascontiguousarray(D3Q19.cf, dtype=np.float64), D3Q19.w, 1.02,
        1.0 / D3Q19.cs2,
    )
    np.testing.assert_allclose(got, want, **EXACT_TOL)


# -- compiler detection is cached on disk -----------------------------------
@cgen_only
class TestCompilerProbeCache:
    @pytest.fixture(autouse=True)
    def fresh_process(self):
        """Each test sees what a new process would: empty in-memory
        caches over whatever the cache directory holds."""
        csrc.reset_compiler_cache()
        yield
        csrc.reset_compiler_cache()

    def test_second_detection_spawns_no_subprocess(self, monkeypatch, tmp_path):
        monkeypatch.setenv(csrc.CACHE_ENV, str(tmp_path))
        first = csrc._compiler_info()
        assert first is not None
        csrc.reset_compiler_cache()

        def no_spawn(*args, **kwargs):
            raise AssertionError(f"spawned {args[0]}")

        monkeypatch.setattr(subprocess, "run", no_spawn)
        assert csrc._compiler_info() == first

    def test_vanished_compiler_is_unavailable(self, monkeypatch, tmp_path):
        monkeypatch.setenv(csrc.CACHE_ENV, str(tmp_path))
        assert csrc._compiler_info() is not None  # probes now on disk
        csrc.reset_compiler_cache()
        monkeypatch.setattr(csrc.shutil, "which", lambda name: None)
        assert csrc.compiler_works() is False
        with pytest.raises(BackendUnavailableError, match="no working C"):
            csrc.load_kernels(fastmath=True)
