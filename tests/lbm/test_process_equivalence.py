"""The process-executor tier: observables, telemetry, failures, lifecycle.

The forked-worker tier (shared-memory double buffer, ring halo
transport) is a pure execution-resource change; its ``array_equal`` rows
against the lockstep run, sanitizer included, live in the conformance
matrix (``tests/lbm/test_conformance.py``).  This file pins what the
matrix does not: observables read through the parent, the telemetry
plane, skewed and failing ranks, config validation, and the
no-leaked-segments guarantee on clean close.
"""

import os
import time
import types

import numpy as np
import pytest

from repro.core.errors import ConfigError, RuntimeSimError
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.harvey import HarveyApp, HarveyConfig
from repro.lbm.distributed import (
    BARRIER_SCHEDULE,
    OVERLAP_SCHEDULE,
    DistributedSolver,
)
from repro.lbm.solver import SolverConfig
from repro.models.compiled import compiled_available
from repro.runtime.procexec import fork_available
from repro.runtime.shmem import leaked_segments
from repro.telemetry.spans import Tracer
from repro.telemetry.summary import phase_stats, render_overlap

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def config(**kw):
    return SolverConfig(
        tau=0.8,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
        **kw,
    )


class TestProcessEquivalence:
    def test_observables_match(self, grid):
        part = grid_decompose(grid, 2)
        ref = DistributedSolver(part, config())
        ref.step(8)
        solver = DistributedSolver(part, config(executor="process"))
        try:
            solver.step(8)
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
        # barrier schedule: 6 phases x 2 steps x 2 ranks
        assert len(worker) == 24
        for rank in (0, 1):
            names = {s.name for s in worker if s.rank == rank}
            assert names == {
                "collide", "exchange", "stream", "frontier", "boundary"
            }
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
        # the dead rank's heartbeat names the phase and step it died in
        dead_hb = bundle["ranks"][0]["heartbeat"]
        assert (dead_hb["phase"], dead_hb["step"]) == ("stream", 1)
        # the survivor's ring was drained before the raise: its heartbeat
        # reaches the dying step and its spans made the tracer
        assert bundle["ranks"][1]["heartbeat"]["step"] == 1
        rank1_spans = [
            s for s in tracer.spans
            if s.rank == 1 and s.args.get("origin") == "worker"
        ]
        assert any(s.name == "collide" for s in rank1_spans)
        # the bundle also landed at the configured postmortem path
        assert pm_path.exists()
        assert leaked_segments(os.getpid()) == []


def override_body(solver, body, action):
    """Run ``action(solver, rank, nth_call)`` ahead of phase ``body``.

    An instance attribute set before the first step: forked workers
    inherit it and the by-name dispatch finds it.  Each worker counts its
    own rank's calls (the counter is copy-on-write per process), so
    ``nth_call`` is the step, whatever ``time`` reads inside the body.
    """
    original = getattr(type(solver), body)
    calls = {"n": 0}

    def override(self, rank):
        nth = calls["n"]
        calls["n"] += 1
        action(self, rank, nth)
        original(self, rank)

    override.__name__ = body
    setattr(solver, body, types.MethodType(override, solver))


@pytest.mark.usefixtures("hard_time_bound")
class TestRankResidentStep:
    """One dispatch per iteration: workers run the declared schedule on
    their own rank and meet only in the halo rings."""

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("plane", ["on", "off"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_one_message_per_rank_per_iteration(
        self, grid, monkeypatch, overlap, plane, sanitize
    ):
        monkeypatch.setenv("REPRO_TELEMETRY_PLANE", plane)
        schedule = OVERLAP_SCHEDULE if overlap else BARRIER_SCHEDULE
        solver = DistributedSolver(
            grid_decompose(grid, 2),
            config(executor="process", overlap=overlap, sanitize=sanitize),
        )
        try:
            assert (solver.plane is not None) == (plane == "on")
            solver.step(5)
            assert solver.executor.dispatches == 5
            assert solver.executor.phases_run == 5 * len(schedule)
            assert solver.time == 5
        finally:
            solver.close()

    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            pytest.param(
                "compiled-serial",
                marks=pytest.mark.skipif(
                    not compiled_available(),
                    reason="no compiled-kernel provider on this host",
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("overlap", [False, True])
    def test_skewed_ranks_stay_bitwise_equal(self, grid, overlap, backend):
        # rank 0 is late on odd steps, rank 1 on even ones: no barrier
        # holds the other rank back, so the rings alone order the exchange
        part = grid_decompose(grid, 2)
        ref = DistributedSolver(part, config(overlap=overlap))
        ref.step(6)
        solver = DistributedSolver(
            part,
            config(
                executor="process",
                overlap=overlap,
                backend=backend,
                fastmath=False,
            ),
        )

        def lag(self, rank, step):
            if rank == (step + 1) % 2:
                time.sleep(0.02)

        override_body(solver, "_phase_collide", lag)
        try:
            solver.step(6)
            assert np.array_equal(ref.gather_f(), solver.gather_f())
            assert ref.mass() == solver.mass()
        finally:
            solver.close()

    @pytest.mark.parametrize("overlap", [False, True])
    def test_observables_read_the_live_buffer(self, grid, overlap):
        # the parent mirrors the workers' double-buffer swap once per
        # iteration: odd and even step counts both leave f live
        part = grid_decompose(grid, 2)
        ref = DistributedSolver(part, config(overlap=overlap))
        solver = DistributedSolver(
            part, config(executor="process", overlap=overlap)
        )
        try:
            for n in (0, 1, 3):
                ref.step(n)
                solver.step(n)
                assert solver.time == ref.time
                assert np.array_equal(ref.gather_f(), solver.gather_f())
                assert ref.mass() == solver.mass()
        finally:
            solver.close()

    def test_span_structure_of_a_traced_overlap_run(self, grid, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
        steps, ranks = 3, 2
        tracer = Tracer()
        solver = DistributedSolver(
            grid_decompose(grid, ranks),
            config(executor="process", overlap=True),
            tracer=tracer,
        )
        try:
            solver.step(steps)
        finally:
            solver.close()
        worker = [s for s in tracer.spans if s.args.get("origin") == "worker"]
        assert len(worker) == len(OVERLAP_SCHEDULE) * steps * ranks
        step_spans = [s for s in tracer.spans if s.name == "step"]
        windows = [s for s in tracer.spans if s.name == "overlap_window"]
        assert len(step_spans) == steps
        assert len(windows) == steps

        def inside(outer, inner):
            return (
                outer.start_s <= inner.start_s and inner.end_s <= outer.end_s
            )

        for step in step_spans:
            mine = [w for w in windows if inside(step, w)]
            assert len(mine) == 1  # exactly one window per step
            window = mine[0]
            in_step = [s for s in worker if inside(step, s)]
            assert len(in_step) == len(OVERLAP_SCHEDULE) * ranks
            hidden = [s for s in in_step if s.name in ("interior", "exchange")]
            assert len(hidden) == 3 * ranks
            assert all(inside(window, s) for s in hidden)
            # per-rank program order: a rank scatters its frontier only
            # after its own exchange completed, and the last rank out of
            # the window does so after the window closed.  (Ranks
            # free-run, so a rank that is ahead may already be in its
            # frontier while the slower one is still completing.)
            frontier = [s for s in in_step if s.name == "frontier"]
            assert len(frontier) == ranks
            for f in frontier:
                own = [s for s in hidden if s.rank == f.rank]
                assert all(s.end_s <= f.start_s for s in own)
            assert not all(inside(window, f) for f in frontier)
        assert render_overlap(phase_stats(tracer.spans)) is not None

    def test_plane_off_still_yields_one_worker_span_per_rank_per_phase(
        self, grid, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TELEMETRY_PLANE", "off")
        tracer = Tracer()
        solver = DistributedSolver(
            grid_decompose(grid, 2),
            config(executor="process", overlap=True),
            tracer=tracer,
        )
        try:
            solver.step(2)
        finally:
            solver.close()
        ranked = [s for s in tracer.spans if s.rank is not None]
        assert len(ranked) == len(OVERLAP_SCHEDULE) * 2 * 2
        # the spans ride the acks: the same worker-origin spans the
        # plane-on run gets
        assert all(s.args.get("origin") == "worker" for s in ranked)
        assert len([s for s in tracer.spans if s.name == "overlap_window"]) == 2

    def test_phase_error_surfaces_within_the_grace_window(self, grid):
        # rank 1 raises in collide before it posts its halo: rank 0 is
        # left waiting on the ring.  The parent must report the original
        # error after the grace window — not after the 60 s ring timeout
        solver = DistributedSolver(
            grid_decompose(grid, 2), config(executor="process")
        )

        def fail(self, rank, step):
            if rank == 1 and step == 2:
                raise ValueError("collision operator diverged")

        override_body(solver, "_phase_collide", fail)
        began = time.perf_counter()
        try:
            with pytest.raises(ValueError) as err:
                solver.step(4)
            assert time.perf_counter() - began < 10.0
            assert "[rank 1 phase 'collide']" in str(err.value)
            assert "collision operator diverged" in str(err.value)
            # the executor closed itself (terminating the blocked rank)
            with pytest.raises(RuntimeSimError, match="closed"):
                solver.step(1)
        finally:
            solver.close()
        assert leaked_segments(os.getpid()) == []

    @pytest.mark.parametrize("failure", ["raise", "die"])
    @pytest.mark.parametrize(
        "index", range(len(OVERLAP_SCHEDULE)), ids=lambda i: f"phase{i}"
    )
    def test_no_hang_whichever_phase_fails(self, grid, index, failure):
        phase = OVERLAP_SCHEDULE[index]
        solver = DistributedSolver(
            grid_decompose(grid, 2),
            config(executor="process", overlap=True, stall_timeout_s=0.5),
        )

        def fail(self, rank, step):
            if rank == 1 and step == 1:
                if failure == "die":
                    os._exit(29)
                raise ValueError("seeded failure")

        override_body(solver, phase.body, fail)
        began = time.perf_counter()
        try:
            with pytest.raises((ValueError, RuntimeSimError)) as err:
                solver.step(3)
            assert time.perf_counter() - began < 5.0
            if failure == "die":
                assert isinstance(err.value, RuntimeSimError)
                assert (
                    f"rank 1 worker process died during phase "
                    f"{phase.span!r} of step 1" in str(err.value)
                )
            else:
                assert isinstance(err.value, ValueError)
                assert f"[rank 1 phase {phase.span!r}]" in str(err.value)
            with pytest.raises(RuntimeSimError, match="closed"):
                solver.step(1)
        finally:
            solver.close()
        assert leaked_segments(os.getpid()) == []

    def test_death_without_the_plane_names_the_step(self, grid, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_PLANE", "off")
        solver = DistributedSolver(
            grid_decompose(grid, 2), config(executor="process")
        )

        def die(self, rank, step):
            if rank == 0 and step == 1:
                os._exit(23)

        override_body(solver, "_phase_stream", die)
        began = time.perf_counter()
        try:
            with pytest.raises(
                RuntimeSimError, match="rank 0 .* died during step 1"
            ):
                solver.step(3)
            assert time.perf_counter() - began < 10.0
        finally:
            solver.close()
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

    def test_segment_inventory_of_a_process_run(self, monkeypatch):
        # 4 f double buffers, 2 halo rings and the heartbeat board —
        # telemetry rides the acks, so no telemetry ring or event log
        monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
        before = leaked_segments(os.getpid())
        app_config = HarveyConfig(
            workload="cylinder", num_ranks=2, executor="process", overlap=True
        )
        with HarveyApp(app_config) as app:
            app.run(1)
            live = [s for s in leaked_segments(os.getpid()) if s not in before]
        assert not [s for s in live if "plane." in s and "ring" in s]
        assert len(live) == 7
        assert leaked_segments(os.getpid()) == before

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError):
            config(executor="forked")
