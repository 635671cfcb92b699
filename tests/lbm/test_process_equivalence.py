"""Bit-exact equivalence of the process-executor tier.

The forked-worker tier (shared-memory double buffer, ring halo
transport) is a pure execution-resource change: the same bulk-
synchronous schedule runs, so every collision operator, both step
schedules, and every rank count must produce ``np.array_equal`` state
against the lockstep in-process run — not ``allclose``.  Also pins the
sanitizer riding the process tier, config validation, and the no-leaked-
segments guarantee on clean close.
"""

import os
import types

import numpy as np
import pytest

from repro.core.errors import ConfigError, RuntimeSimError
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.lbm.distributed import DistributedSolver
from repro.lbm.solver import SolverConfig
from repro.models.compiled import compiled_available
from repro.runtime.procexec import fork_available
from repro.runtime.shmem import leaked_segments
from repro.telemetry.spans import Tracer

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)

STEPS = 8


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def config(collision="bgk", **kw):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
        **kw,
    )


def run_process(partition, cfg_kwargs, steps=STEPS):
    solver = DistributedSolver(
        partition, config(executor="process", **cfg_kwargs)
    )
    try:
        solver.step(steps)
        return solver.gather_f(), solver.mass()
    finally:
        solver.close()


class TestProcessEquivalence:
    @pytest.mark.parametrize(
        "collision,backend",
        [
            pytest.param("bgk", "numpy", id="bgk"),
            pytest.param("trt", "numpy", id="trt"),
            pytest.param("mrt", "numpy", id="mrt"),
            # the flagship cell: exact-mode compiled BGK has no
            # reductions beyond the ascending-q moment sums NumPy also
            # uses, so it is pinned against the *NumPy* lockstep run
            pytest.param(
                "bgk",
                "compiled-serial",
                id="bgk-compiled-serial",
                marks=pytest.mark.skipif(
                    not compiled_available(),
                    reason="no compiled-kernel provider (numba or a C "
                    "compiler) on this host",
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_bitwise_vs_lockstep(
        self, grid, collision, backend, overlap, num_ranks
    ):
        part = grid_decompose(grid, num_ranks)
        ref = DistributedSolver(
            part, config(collision=collision, overlap=overlap)
        )
        ref.step(STEPS)
        f_proc, mass_proc = run_process(
            part,
            dict(
                collision=collision,
                overlap=overlap,
                backend=backend,
                fastmath=False,
            ),
        )
        assert np.array_equal(ref.gather_f(), f_proc)
        assert ref.mass() == mass_proc

    @pytest.mark.parametrize("overlap", [False, True])
    def test_sanitized_process_run(self, grid, overlap):
        # the sanitizer's canaries/epochs work across the fork: ghosts
        # are poisoned parent-side in shared pages, workers reset their
        # local epoch dicts via the phase-context hook
        part = grid_decompose(grid, 2)
        ref = DistributedSolver(part, config())
        ref.step(STEPS)
        f_proc, _ = run_process(part, dict(overlap=overlap, sanitize=True))
        assert np.array_equal(ref.gather_f(), f_proc)

    def test_observables_match(self, grid):
        part = grid_decompose(grid, 2)
        ref = DistributedSolver(part, config())
        ref.step(STEPS)
        solver = DistributedSolver(part, config(executor="process"))
        try:
            solver.step(STEPS)
            assert np.array_equal(ref.velocity(), solver.velocity())
            assert ref.mass() == solver.mass()
        finally:
            solver.close()

    def test_halo_traffic_accounted(self, grid):
        part = grid_decompose(grid, 2)
        solver = DistributedSolver(part, config(executor="process"))
        try:
            solver.step(2)
            # ring traffic lands in the parent's comm event log and the
            # packed-byte counters, one entry per wired pair per step
            assert solver.comm.log.total_bytes() > 0
            assert solver.halo_bytes_per_step() > 0
        finally:
            solver.close()


class TestTelemetryPlaneIntegration:
    """Solver-level wiring of the cross-process telemetry plane."""

    def test_worker_origin_spans_per_rank(self, grid, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
        part = grid_decompose(grid, 2)
        tracer = Tracer()
        solver = DistributedSolver(
            part, config(executor="process"), tracer=tracer
        )
        try:
            assert solver.plane is not None
            solver.step(2)
        finally:
            solver.close()
        worker = [
            s for s in tracer.spans if s.args.get("origin") == "worker"
        ]
        # barrier schedule: 5 phases x 2 steps x 2 ranks
        assert len(worker) == 20
        for rank in (0, 1):
            names = {s.name for s in worker if s.rank == rank}
            assert names == {"collide", "exchange", "stream", "boundary"}
        # merged spans replace the synthetic per-rank phase spans
        assert not any(
            s.rank is not None and "origin" not in s.args
            for s in tracer.spans
            if s.name in ("collide", "stream", "boundary")
        )

    def test_plane_env_off_disables(self, grid, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_PLANE", "off")
        part = grid_decompose(grid, 2)
        solver = DistributedSolver(part, config(executor="process"))
        try:
            assert solver.plane is None
            solver.step(1)  # still runs fine without the plane
        finally:
            solver.close()

    def test_worker_death_mid_step_drains_survivors(
        self, grid, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
        part = grid_decompose(grid, 2)
        tracer = Tracer()
        pm_path = tmp_path / "pm.json"
        solver = DistributedSolver(
            part,
            config(executor="process", postmortem_out=str(pm_path)),
            tracer=tracer,
        )
        # rank 0 dies inside the second step's stream phase; the override
        # is an instance attribute set before the first step, so forked
        # workers inherit it and the by-name dispatch finds it
        original = type(solver)._phase_stream

        def _phase_stream(self, rank):
            if rank == 0 and self.time >= 1:
                os._exit(23)
            original(self, rank)

        solver._phase_stream = types.MethodType(_phase_stream, solver)
        try:
            with pytest.raises(RuntimeSimError, match="died") as err:
                solver.step(3)
        finally:
            solver.close()
        bundle = err.value.postmortem
        assert bundle["ranks"][0]["state"] == "dead"
        assert bundle["ranks"][0]["exitcode"] == 23
        # the survivor's ring was drained before the raise: its flight
        # tail reaches the dying step and its spans made the tracer
        surviving_events = bundle["ranks"][1]["flight"]["events"]
        assert surviving_events
        assert any(e.get("step") == 1 for e in surviving_events)
        rank1_spans = [
            s for s in tracer.spans
            if s.rank == 1 and s.args.get("origin") == "worker"
        ]
        assert any(s.name == "collide" for s in rank1_spans)
        # the bundle also landed at the configured postmortem path
        assert pm_path.exists()
        assert leaked_segments(os.getpid()) == []


class TestLifecycleAndValidation:
    def test_no_leaked_segments_after_close(self, grid):
        before = leaked_segments(os.getpid())
        part = grid_decompose(grid, 2)
        solver = DistributedSolver(part, config(executor="process"))
        solver.step(2)
        assert leaked_segments(os.getpid()) != before  # segments live
        solver.close()
        assert leaked_segments(os.getpid()) == before
        solver.close()  # idempotent

    def test_context_manager_cleans_up(self, grid):
        before = leaked_segments(os.getpid())
        part = grid_decompose(grid, 2)
        with DistributedSolver(part, config(executor="process")) as solver:
            solver.step(2)
        assert leaked_segments(os.getpid()) == before

    def test_process_requires_fused(self):
        with pytest.raises(ConfigError, match="fused"):
            config(executor="process", fused=False)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError):
            config(executor="forked")
