"""The compiled tier's kernel IR: run-length stream tables, the one-pass
tile tables, constant-trip collide blocks, the one-call pressure outlet,
and the provider's set-up cache.

``planmeta.kernel_tables`` collapses a plan's links into ``(heads,
lens)`` runs; everything the compiled ``stream`` kernel does rests on
that table expanding back to exactly the link set, so the property is
pinned over every kind of plan the solvers build.  ``collide`` splits
its node loop into compile-time-width full blocks and one runtime-width
tail, so the tail sizes around the block width are pinned per operator.
The one-pass ``collide_stream`` files the runs under stage tiles of
source nodes, so its tables must read inside their tile and re-merge
into the link set, and the kernel must equal the pair it fuses at the
sizes around the block and tile widths.  Loading a library variant must
leave the process's floating-point state alone.
"""

import os
import subprocess
import sys

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
    csrc,
)

compiled_only = pytest.mark.skipif(
    not compiled_available(),
    reason="no host C compiler available",
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
        # every link but the halo links, which the frontier scatter writes
        copied = plan.flat_src.reshape(-1) != planmeta.HALO
        assert (ranks > 1) == (not copied.all())
        dst, src = planmeta.expand_runs(heads, lens)
        assert np.array_equal(dst, plan.flat_dst().reshape(-1)[copied])
        assert np.array_equal(src, plan.flat_src.reshape(-1)[copied])
        if lens.size:
            assert 1 <= lens.min() and lens.max() <= planmeta.KERNEL_RUN_CAP
        assert planmeta.run_table_issues(
            heads, lens, plan.flat_src, plan.update_ids, plan.num_local
        ) == []


def test_run_table_of_a_scattered_update_set():
    # the solvers build prefix plans only, but the table functions take
    # any update set: the halo-reading columns of a rank plan are one
    # with gaps, so runs must also break where the update ids do
    for plan in _plans("inlet", 2, True):
        cols = np.flatnonzero((plan.flat_src == planmeta.HALO).any(axis=0))
        assert 0 < cols.size < plan.num_update
        sub = StepPlan(
            plan.q, plan.num_local, plan.update_ids[cols],
            np.ascontiguousarray(plan.flat_src[:, cols]),
        )
        heads, lens = sub.kernel_tables()
        copied = sub.flat_src.reshape(-1) != planmeta.HALO
        dst, src = planmeta.expand_runs(heads, lens)
        assert np.array_equal(dst, sub.flat_dst().reshape(-1)[copied])
        assert np.array_equal(src, sub.flat_src.reshape(-1)[copied])
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
        # a sentinel in every slot: the halo-link destinations, which
        # the frontier scatter writes, must come out untouched
        want = np.full_like(f_src, -1.0)
        got = np.full_like(f_src, -1.0)
        plan.apply(f_src, want)
        kern.stream(f_src, got, *plan.kernel_tables())
        halo = plan.flat_src == planmeta.HALO
        assert (got[halo] == -1.0).all()
        assert np.array_equal(want[~halo], got[~halo])


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


# -- the one pass: tile tables and collide_stream ----------------------------
def _ring_plan(n):
    """A ghost-free prefix plan over ``n`` nodes of a periodic ring:
    population ``qi`` streams from ``c[qi] . (1, 3, 9)`` nodes upstream,
    and every seventh node bounces its moving populations back."""
    q = D3Q19.q
    ids = np.arange(n, dtype=np.int64)
    flat = np.empty((q, n), dtype=np.int64)
    for qi in range(q):
        shift = int(D3Q19.c[qi] @ np.array([1, 3, 9]))
        flat[qi] = qi * n + (ids - shift) % max(n, 1)
        wall = ids[(ids % 7 == 3) & (shift != 0)]
        flat[qi, wall] = D3Q19.opposite[qi] * n + wall
    return StepPlan(q, n, ids, flat)


#: plan sizes around the collide block (NB) and stage tile (TILE) widths
ONE_PASS_SIZES = {
    "0": 0,
    "1": 1,
    "NB-1": csrc.BLOCK - 1,
    "TILE-1": planmeta.TILE - 1,
    "TILE+1": planmeta.TILE + 1,
}


def _one_pass_plan(size):
    if size == "cylinder-x1":
        grid = make_cylinder(CylinderSpec(scale=1.0, periodic=True))
        return Solver(grid, _config("periodic")).step_plan
    return _ring_plan(ONE_PASS_SIZES[size])


@pytest.mark.parametrize("size", [*ONE_PASS_SIZES, "cylinder-x1"])
def test_tile_table_reads_its_tile_and_re_merges(size):
    plan = _one_pass_plan(size)
    want_src = plan.flat_src.copy()
    heads, lens = plan.kernel_tables()
    tile_ptr, pieces, piece_lens = plan.tile_tables()
    assert plan.run_table is None  # held in place of the run table
    n_tiles = -(-plan.num_local // planmeta.TILE)
    assert tile_ptr.shape == (n_tiles + 1,)
    for arr in (tile_ptr, pieces, piece_lens):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
    assert piece_lens.sum() == lens.sum() == plan.q * plan.num_update
    # each piece stays inside one population row of its tile's stage
    slot = pieces[:, 1] % planmeta.TILE
    assert (piece_lens >= 1).all() and (slot + piece_lens <= planmeta.TILE).all()
    assert planmeta.tile_table_issues(
        tile_ptr, pieces, piece_lens, want_src, plan.update_ids,
        plan.num_local,
    ) == []
    # released, the plan re-expands its gather table from the tile table
    plan.release_links()
    assert np.array_equal(plan.flat_src, want_src)
    assert np.array_equal(plan.kernel_tables()[1], lens)


def test_a_plan_with_halo_links_has_a_tile_table():
    # an exchanging rank's plan is a prefix plan too: its tile table
    # files every link but the halo links, and a released plan
    # re-expands them as the placeholder
    plan = _plans("inlet", 2, False)[0]
    want_src = plan.flat_src.copy()
    halo = want_src == planmeta.HALO
    assert plan.num_local == plan.num_update and halo.any()
    tile_ptr, pieces, piece_lens = plan.tile_tables()
    assert piece_lens.sum() == plan.q * plan.num_update - halo.sum()
    assert planmeta.tile_table_issues(
        tile_ptr, pieces, piece_lens, want_src, plan.update_ids,
        plan.num_local,
    ) == []
    plan.release_links()
    assert np.array_equal(plan.flat_src, want_src)


#: collision operators of the one-pass equality, name -> SolverConfig kw
ONE_PASS_OPERATORS = {
    "bgk": dict(collision="bgk"),
    "bgk-force": dict(collision="bgk", force=(1e-5, 2e-6, -3e-6)),
    "trt": dict(collision="trt"),
    "mrt": dict(collision="mrt"),
}


@compiled_only
@pytest.mark.parametrize("backend", ["compiled-serial", "compiled-parallel"])
@pytest.mark.parametrize("size", [*ONE_PASS_SIZES, "cylinder-x1"])
@pytest.mark.parametrize("operator", list(ONE_PASS_OPERATORS))
def test_collide_stream_is_collide_then_stream(operator, size, backend):
    plan = _one_pass_plan(size)
    collision = SolverConfig(
        tau=0.8, **ONE_PASS_OPERATORS[operator]
    ).make_collision()
    kern = CompiledKernels(D3Q19, collision, backend=backend, fastmath=False)
    n = plan.num_local
    rng = np.random.default_rng(29)
    f = np.ascontiguousarray(
        D3Q19.equilibrium(
            1.0 + 0.01 * rng.random(n), 0.02 * rng.random((n, 3))
        )
    )
    want, got = np.empty_like(f), np.empty_like(f)
    collided = f.copy()
    kern.collide(collided, n)
    kern.stream(collided, want, *plan.kernel_tables())
    source = f.copy()
    kern.collide_stream(source, got, n, *plan.tile_tables())
    assert np.array_equal(got, want)
    assert np.array_equal(source, f)  # the one pass only reads f


def _abi_case(case, f, tables):
    tile_ptr, heads, lens = tables
    if case == "f-float32":
        return f.astype(np.float32), tables
    if case == "f-fortran":
        return np.asfortranarray(f), tables
    if case == "heads-int32":
        return f, (tile_ptr, heads.astype(np.int32), lens)
    if case == "heads-fortran":
        return f, (tile_ptr, np.asfortranarray(heads), lens)
    return f, (tile_ptr[:-1].copy(), heads, lens)  # tile_ptr-short


@compiled_only
@pytest.mark.parametrize(
    "case, name",
    [
        ("f-float32", "f"),
        ("f-fortran", "f"),
        ("heads-int32", "heads"),
        ("heads-fortran", "heads"),
        ("tile_ptr-short", "tile_ptr"),
    ],
)
def test_collide_stream_rejects_off_abi_tables(case, name):
    plan = _ring_plan(3 * planmeta.TILE + 5)
    kern = CompiledKernels(D3Q19, _config("periodic").make_collision())
    f = np.ones((D3Q19.q, plan.num_local))
    f, tables = _abi_case(case, f, plan.tile_tables())
    with pytest.raises(ConfigError, match=name):
        kern.collide_stream(f, np.empty(f.shape), plan.num_local, *tables)


@compiled_only
def test_collide_stream_needs_every_column():
    plan = _ring_plan(planmeta.TILE + 1)
    kern = CompiledKernels(D3Q19, _config("periodic").make_collision())
    f = np.ones((D3Q19.q, plan.num_local))
    with pytest.raises(ConfigError, match="every column"):
        kern.collide_stream(
            f, np.empty_like(f), plan.num_local - 1, *plan.tile_tables()
        )


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


# -- compiler detection is cached on disk -----------------------------------
@compiled_only
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


def _build_then_truncate(cache, *argv):
    """Run ``argv`` in a fresh interpreter over kernel cache ``cache``,
    then cut every library it built to 100 bytes, as a disk-full or a
    killed copy leaves it."""
    env = dict(os.environ, **{csrc.CACHE_ENV: str(cache)})
    result = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    libs = sorted(cache.glob("reprolbm-*.so"))
    assert libs
    for lib in libs:
        os.truncate(lib, 100)
    return env, libs


@compiled_only
class TestCorruptKernelCache:
    def test_truncated_library_is_rebuilt(self, tmp_path):
        """A later run rebuilds the truncated library and steps; a fresh
        interpreter each time, as the library is loaded once per process."""
        run = ["-m", "repro", "harvey", "--quick", "--steps", "2",
               "--backend", "compiled-serial"]
        env, libs = _build_then_truncate(tmp_path, *run)
        result = subprocess.run(
            [sys.executable, *run], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "steps=2" in result.stdout
        assert all(lib.stat().st_size > 100 for lib in libs)

    def test_failed_rebuild_is_unavailable(self, monkeypatch, tmp_path):
        _build_then_truncate(
            tmp_path, "-c",
            "from repro.models.compiled import csrc; "
            "csrc.load_kernels(fastmath=False)",
        )
        monkeypatch.setenv(csrc.CACHE_ENV, str(tmp_path))
        csrc.reset_compiler_cache()
        try:
            monkeypatch.setattr(csrc, "_try_compile", lambda *a: False)
            with pytest.raises(BackendUnavailableError, match="reprolbm-"):
                csrc.load_kernels(fastmath=False)
        finally:
            csrc.reset_compiler_cache()


@compiled_only
def test_loading_the_kernels_keeps_subnormals():
    """Neither library variant sets flush-to-zero for the process that
    loads it: a library linked with ``-ffast-math`` pulls in
    ``crtfastmath.o``, whose constructor does, and every later NumPy
    result in the process (the reference tier included) would change.
    A fresh interpreter, because the state cannot be unset."""
    probe = (
        "import numpy as np\n"
        "from repro.models.compiled import csrc\n"
        "for fastmath in (False, True):\n"
        "    csrc.load_kernels(fastmath=fastmath)\n"
        "    print(np.float64(1e-310) / 10 != 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["True", "True"]
