"""Layer probes: one rung of the ladder per module, timed from outside.

``rungs.py SPEC_JSON`` builds the workload's grid and partition once and
times calls into each layer's public functions on them — geometry, decomp,
the distributed-solver build and its lint pre-flight, the NumPy and
compiled kernels, the single-domain step, executor dispatch, the shmem
ring, SimComm, the telemetry frame codec and the checkpoint writer — then
checks 20 steps of the workload's configuration against a 1-rank lockstep
NumPy barrier reference on the same grid.  Prints one JSON object as its
last line.  ``rungs.py --stream ELEMENTS NTIMES`` is the host-STREAM worker
``run.py`` starts once alone and once per core.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

REFERENCE_STEPS = 20
#: the repo's fast-math equivalence band (tests/lbm/test_fused_equivalence)
FASTMATH_TOL = dict(rtol=1e-8, atol=1e-11)
#: ring / SimComm payload when the workload exchanges nothing (1 rank)
FALLBACK_PAYLOAD_ITEMS = 4096


def timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def median_s(fn, budget_s: float, min_reps: int = 3, max_reps: int = 200):
    """Median seconds per call: one warm-up, then reps inside a budget."""
    fn()
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or (
        time.perf_counter() < deadline and len(times) < max_reps
    ):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class NoopTarget:
    """Executor target whose phase body does nothing (dispatch cost only)."""

    def noop(self, rank: int) -> None:
        pass


def compiled_load(lattice, collision, backend: str, tmp: str):
    """(cold, warm) seconds to bind ``CompiledKernels`` in a fresh cache dir.

    Cold compiles the kernel library; warm is what every later process
    pays (compiler probe + cache hit + dlopen).  The in-process caches are
    dropped before each so neither reuses the other's handle.
    """
    from repro.models.compiled import CompiledKernels, reset_detection_cache
    from repro.models.compiled import csrc

    def load():
        csrc.reset_compiler_cache()
        reset_detection_cache()
        return timed(
            lambda: CompiledKernels(lattice, collision, backend=backend)
        )[1]

    saved = os.environ.get(csrc.CACHE_ENV)
    os.environ[csrc.CACHE_ENV] = tempfile.mkdtemp(dir=tmp)
    try:
        return load(), load()
    finally:
        shutil.rmtree(os.environ[csrc.CACHE_ENV], ignore_errors=True)
        if saved is None:
            del os.environ[csrc.CACHE_ENV]
        else:
            os.environ[csrc.CACHE_ENV] = saved
        csrc.reset_compiler_cache()
        reset_detection_cache()


def probe(spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.core.kernels import Workspace
    from repro.decomp.bisection import bisection_decompose
    from repro.geometry.registry import build_geometry
    from repro.harvey import HarveyApp, HarveyConfig
    from repro.lbm.checkpoint import load_checkpoint, save_checkpoint
    from repro.lbm.distributed import DistributedSolver
    from repro.lbm.solver import Solver, SolverConfig
    from repro.lint import (
        schedule_from_rank_states,
        verify_rank_plans,
        verify_schedule,
    )
    from repro.models.compiled import CompiledKernels
    from repro.runtime.procexec import ProcessExecutor
    from repro.runtime.shmem import RingBuffer, SegmentRegistry
    from repro.runtime.simmpi import SimComm
    from repro.telemetry.plane import decode_frame, encode_records

    cfg = HarveyConfig(**spec["config"])
    budget = float(spec["rep_budget_s"])
    tmp = tempfile.mkdtemp(prefix="rungs-")
    out: dict = {}
    notes: dict = {}
    errors = []

    compiled_backend = (
        cfg.backend if cfg.backend != "numpy" else "compiled-serial"
    )

    # -- geometry, decomp ---------------------------------------------------
    grid, out["geometry.build_s"] = timed(
        lambda: build_geometry(
            cfg.workload, resolution=cfg.resolution, periodic=False
        )
    )
    out["geometry.fluid_nodes"] = grid.num_fluid
    out["geometry.fluid_fraction"] = grid.fluid_fraction
    partition, out["decomp.bisect_s"] = timed(
        lambda: bisection_decompose(grid, cfg.num_ranks)
    )
    out["decomp.imbalance"] = partition.imbalance
    out["decomp.max_halo_sites"] = partition.max_halo()

    # -- models.compiled load ------------------------------------------------
    base_cfg = SolverConfig(tau=cfg.tau)
    lattice, collision = base_cfg.make_lattice(), base_cfg.make_collision()
    cold, warm = compiled_load(lattice, collision, compiled_backend, tmp)
    out["models.compiled.load_cold_s"] = cold
    out["models.compiled.load_warm_s"] = warm
    # bind once more against the real cache so the ctor timed below finds
    # the library handle in-process and times no load
    kern = CompiledKernels(lattice, collision, backend=compiled_backend)
    notes["models.compiled"] = f"{kern.provider}:{kern.backend}"

    # -- lint pre-flight -----------------------------------------------------
    # the app's own solver (built validating, as a user gets it) is the
    # workload side of the reference check below; the pre-flight is the two
    # lint calls its ctor made, timed again directly — the difference of
    # two ctor timings is lost in allocation noise on a shared host
    app = HarveyApp(cfg)
    solver, solver_cfg = app.solver, app.solver.config
    overlap = solver_cfg.overlap
    _, schedule_s = timed(
        lambda: verify_schedule(
            schedule_from_rank_states(
                solver.ranks, cfg.num_ranks, tag=1, overlap=overlap
            )
        )
    )
    _, plans_s = timed(lambda: verify_rank_plans(solver.ranks, overlap=overlap))
    out["lint.preflight_s"] = schedule_s + plans_s

    # -- correctness: workload config vs 1-rank lockstep numpy barrier ------
    ref_cfg = dataclasses.replace(
        solver_cfg, executor="lockstep", overlap=False, backend="numpy"
    )
    reference = DistributedSolver(
        bisection_decompose(grid, 1),
        ref_cfg,
        validate_schedule=False,
        validate_plan=False,
    )
    try:
        solver.step(REFERENCE_STEPS)
        msgs = len(solver.comm.log) / REFERENCE_STEPS
        reference.step(REFERENCE_STEPS)
        got, want = solver.gather_f(), reference.gather_f()
        if cfg.backend == "numpy":
            same = np.array_equal(got, want)
        else:
            same = np.allclose(got, want, **FASTMATH_TOL)
        if not same:
            errors.append(
                "reference mismatch: max |df| "
                f"{float(np.abs(got - want).max()):.3g}"
            )
        halo_bytes = solver.halo_bytes_per_step()

        # -- lbm.checkpoint -------------------------------------------------
        path, out["lbm.checkpoint.save_s"] = timed(
            lambda: save_checkpoint(solver, os.path.join(tmp, "ckpt"))
        )
        out["lbm.checkpoint.mb"] = os.path.getsize(path) / 2**20
        out["lbm.checkpoint.load_s"] = timed(
            lambda: load_checkpoint(solver, path)
        )[1]
    finally:
        app.close()
        reference.close()
    del app, solver, reference
    # built last, into the memory the two solvers above just freed: a ctor
    # that has to grow the process is timed on the hypervisor's page faults
    bare, out["lbm.distributed.build_s"] = timed(
        lambda: DistributedSolver(
            partition,
            solver_cfg,
            validate_schedule=False,
            validate_plan=False,
        )
    )
    bare.close()
    del bare

    # -- lbm.solver: the undispatched single-domain step --------------------
    single = Solver(
        grid,
        dataclasses.replace(solver_cfg, executor="lockstep", overlap=False),
    )
    out["lbm.solver.step_ms"] = 1e3 * median_s(lambda: single.step(1), budget)

    # -- core.kernels / lbm.stream / models.compiled kernels ----------------
    plan = single.step_plan
    f, f_tmp = single.f, np.empty_like(single.f)
    n = single.num_nodes
    workspace = Workspace()
    out["core.kernels.collide_ms"] = 1e3 * median_s(
        lambda: collision.apply(lattice, f, single.all_ids, workspace=workspace),
        budget,
    )
    apply_s = median_s(lambda: plan.apply(f, f_tmp), budget)
    out["lbm.stream.apply_ms"] = 1e3 * apply_s
    out["lbm.stream.bytes_per_apply"] = plan.bytes_per_apply
    out["lbm.stream.gbs"] = plan.bytes_per_apply / apply_s / 1e9
    src, dst = plan.kernel_tables()
    flat_src = np.ascontiguousarray(plan.flat_src)
    out["models.compiled.collide_ms"] = 1e3 * median_s(
        lambda: kern.collide(f, n), budget
    )
    out["models.compiled.stream_ms"] = 1e3 * median_s(
        lambda: kern.stream(f, f_tmp, src, dst), budget
    )
    out["models.compiled.fused_step_ms"] = 1e3 * median_s(
        lambda: kern.fused_step(f, f_tmp, flat_src), budget
    )
    del single, plan, f, f_tmp, src, dst, flat_src

    # -- runtime.procexec: no-op phase round trip ---------------------------
    ranks = max(1, min(cfg.num_ranks, len(os.sched_getaffinity(0))))
    target = NoopTarget()
    executor = ProcessExecutor(ranks)
    try:
        executor.start(target)
        out["runtime.procexec.dispatch_us"] = 1e6 * median_s(
            lambda: executor.run_phase(target.noop, name="noop"), budget
        )
    finally:
        executor.close()
    notes["runtime.procexec.dispatch_us"] = f"{ranks} rank(s)"

    # -- runtime.shmem ring / runtime.simmpi at the workload's payload ------
    if msgs:
        items = max(1, round(halo_bytes / 8 / msgs))
        notes["payload"] = f"{items} float64 (mean halo message)"
    else:
        items = FALLBACK_PAYLOAD_ITEMS
        notes["payload"] = f"{items} float64 (workload exchanges nothing)"
    payload = np.random.default_rng(0).random(items)
    sink = np.empty(items)
    with SegmentRegistry() as registry:
        ring = RingBuffer(registry, "probe", items=items, capacity=2)

        def ring_roundtrip():
            ring.push(payload)
            ring.pop_into(sink)

        ring_s = median_s(ring_roundtrip, budget)
    out["runtime.shmem.ring_roundtrip_us"] = 1e6 * ring_s
    out["runtime.shmem.ring_gbs"] = 2 * payload.nbytes / ring_s / 1e9
    comm = SimComm(2)

    def sendrecv():
        comm.send(0, 1, payload, tag=1)
        comm.recv_into(1, 0, sink, tag=1)

    out["runtime.simmpi.sendrecv_us"] = 1e6 * median_s(sendrecv, budget)

    # -- telemetry.plane frame codec ----------------------------------------
    records = [
        {
            "kind": "span",
            "name": "collide",
            "rank": i % 2,
            "start_s": 1234.5 + i,
            "duration_s": 1.25e-3,
            "depth": 1,
            "attrs": {"step": i},
        }
        for i in range(64)
    ]

    def codec():
        frames, dropped = encode_records(records)
        decoded = sum(len(decode_frame(frame)) for frame in frames)
        if dropped or decoded != len(records):
            raise RuntimeError("telemetry codec lost records")

    out["telemetry.plane.codec_us_per_record"] = (
        1e6 * median_s(codec, budget) / len(records)
    )

    shutil.rmtree(tmp, ignore_errors=True)
    return {"errors": errors, "metrics": out, "notes": notes}


def stream_worker(elements: int, ntimes: int) -> None:
    sys.path.insert(0, str(SRC))
    from repro.microbench.hoststream import run_host_stream

    # handshake so concurrent workers start their passes together
    print("ready", flush=True)
    sys.stdin.readline()
    result = run_host_stream(elements, ntimes)
    print(json.dumps({"triad_gbs": result.triad_gbs}))


def main(argv) -> int:
    if argv[1] == "--stream":
        stream_worker(int(argv[2]), int(argv[3]))
        return 0
    result = probe(json.loads(argv[1]))
    print(json.dumps(result))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
