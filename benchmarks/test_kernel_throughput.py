"""Real wall-clock throughput of the functional LBM stack.

Not a paper table — this bench grounds the reproduction: it measures the
NumPy solver's actual MFLUPS on this host for the collide and stream
kernels, a full solver step, a distributed step, and the host STREAM
bandwidth the kernels are bound by.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import D3Q19
from repro.core.kernels import bgk_collide_kernel
from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, Solver, SolverConfig
from repro.lbm.rankplan import build_rank_plans
from repro.microbench import run_host_stream


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=1.5))


@pytest.fixture(scope="module")
def config():
    return SolverConfig(
        tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
    )


def test_collide_kernel_throughput(benchmark, grid):
    lat = D3Q19
    n = grid.num_fluid
    f = lat.equilibrium(np.ones(n), np.zeros((n, 3)))
    idx = np.arange(n, dtype=np.int64)
    benchmark(bgk_collide_kernel, lat, f, idx, 1.25)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["mflups"] = (
            n / benchmark.stats["mean"] / 1e6
        )


def test_stream_throughput(benchmark, grid, config):
    """The solver's NumPy stream: ``StepPlan.apply`` of a one-rank plan."""
    lat = D3Q19
    (rank,) = build_rank_plans(
        grid, axis_decompose(grid, 1), lat, config.periodic
    )
    n = rank.num_owned
    f = lat.equilibrium(np.ones(n), np.zeros((n, 3)))
    out = np.empty_like(f)
    benchmark(rank.step_plan.apply, f, out)
    if benchmark.stats:
        benchmark.extra_info["mflups"] = n / benchmark.stats["mean"] / 1e6


def test_full_step_throughput(benchmark, grid, config):
    solver = Solver(grid, config)
    benchmark(solver.step, 1)
    if benchmark.stats:
        benchmark.extra_info["mflups"] = (
            solver.num_nodes / benchmark.stats["mean"] / 1e6
        )


def test_distributed_step_throughput(benchmark, grid, config):
    partition = axis_decompose(grid, 4)
    solver = DistributedSolver(partition, config)
    benchmark(solver.step, 1)
    if benchmark.stats:
        benchmark.extra_info["mflups"] = (
            solver.num_nodes / benchmark.stats["mean"] / 1e6
        )


def _bare_step(solver):
    """The uninstrumented step loop, inlined as the baseline the
    telemetry-disabled executor path is guarded against: collide, pack
    and send, gather, scatter the received payloads, swap."""
    solver.comm.set_step(solver.time)
    for st in solver.ranks:
        idx = np.arange(st.num_owned, dtype=np.int64)
        solver.collision.apply(solver.lattice, st.f, idx)
    for st in solver.ranks:
        for dst, flat in st.plan.send_flat.items():
            solver.comm.send(st.rank, dst, st.f.reshape(-1)[flat], tag=1)
    for st in solver.ranks:
        st.plan.step_plan.apply(st.f, st.f_tmp)
        for src, flat in st.plan.recv_flat.items():
            st.f_tmp.reshape(-1)[flat] = solver.comm.recv(st.rank, src, tag=1)
        st.f, st.f_tmp = st.f_tmp, st.f
    solver.time += 1
    for st in solver.ranks:
        if st.inlet is not None:
            st.inlet.apply(solver.lattice, st.f, solver.time)
        if st.outlet is not None:
            st.outlet.apply(solver.lattice, st.f, solver.time)
        solver.fluid_updates += st.num_owned


def test_disabled_telemetry_overhead(grid, config):
    """Microbench guard: with telemetry off (the default null tracer),
    the instrumented phase loop stays within 5% of the bare seed loop."""
    import time

    partition = axis_decompose(grid, 4)
    instrumented = DistributedSolver(partition, config)
    bare = DistributedSolver(partition, config)
    assert not instrumented.tracer.enabled

    def min_time(fn, repeats):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    # warm both paths (allocations, caches) before timing
    instrumented.step(2)
    _bare_step(bare)
    _bare_step(bare)
    t_instrumented = min_time(lambda: instrumented.step(1), repeats=7)
    t_bare = min_time(lambda: _bare_step(bare), repeats=7)
    # 5% relative budget with a small absolute floor for timer noise
    assert t_instrumented <= t_bare * 1.05 + 5e-4, (
        f"disabled-telemetry step {t_instrumented * 1e3:.2f} ms vs "
        f"bare {t_bare * 1e3:.2f} ms"
    )


def test_host_stream_bandwidth(benchmark):
    result = benchmark.pedantic(
        run_host_stream, kwargs={"elements": 1 << 21, "ntimes": 3},
        rounds=1, iterations=1,
    )
    if benchmark.stats:
        benchmark.extra_info["triad_gbs"] = result.triad_gbs
    assert result.triad_gbs > 0.5  # any real machine exceeds this
