"""Process executor: dispatch, barriers, errors, and cleanup."""

import gc
import os
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from repro.core.errors import RuntimeSimError, StallError
from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, SolverConfig
from repro.runtime import procexec
from repro.runtime.procexec import ProcessExecutor, fork_available
from repro.runtime.shmem import SegmentRegistry, leaked_segments
from repro.telemetry.metrics import get_registry
from repro.telemetry.plane import TelemetryPlane
from repro.telemetry.spans import Tracer

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)


class Counter:
    """A target whose bound methods mutate a shared-segment array."""

    def __init__(self, registry: SegmentRegistry, num_ranks: int) -> None:
        self.cells = registry.ndarray("cells", (num_ranks,))
        self.scale = 1.0
        self.applied_ctx = None

    def _apply_phase_context(self, ctx) -> None:
        self.scale = float(ctx["scale"])

    def bump(self, rank: int) -> None:
        self.cells[rank] += self.scale

    def boom(self, rank: int) -> None:
        if rank == 1:
            raise ValueError("bad rank state")
        self.cells[rank] += 1.0

    def die(self, rank: int) -> None:
        if rank == 0:
            os._exit(13)
        self.cells[rank] += 1.0


def crash_free(rank: int) -> None:
    """Module-level phase: picklable by reference."""


class TestDispatch:
    def test_bound_method_over_shared_segment(self):
        with SegmentRegistry() as reg:
            target = Counter(reg, 3)
            ex = ProcessExecutor(3)
            try:
                ex.start(target)
                ex.run_phase(target.bump)
                ex.run_phase(target.bump)
                assert np.array_equal(target.cells, [2.0, 2.0, 2.0])
            finally:
                ex.close()

    def test_ctx_applied_worker_side(self):
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex = ProcessExecutor(2)
            try:
                ex.run_phase(target.bump, ctx={"scale": 5.0})
                assert np.array_equal(target.cells, [5.0, 5.0])
                # parent's own attribute is untouched: ctx crosses, the
                # plain attribute write would not have
                assert target.scale == 1.0
                # a step beside other keys reaches the hook whole
                ex.run_phase(target.bump, ctx={"scale": 2.0, "step": 4})
                # no ctx dispatches without the hook: scale stays 2
                ex.run_phase(target.bump, ctx=None)
                assert np.array_equal(target.cells, [9.0, 9.0])
                assert ex.dispatches == 3
            finally:
                ex.close()

    def test_module_level_callable_pickles(self):
        ex = ProcessExecutor(2)
        try:
            ex.run_phase(crash_free)  # must not raise
        finally:
            ex.close()

    def test_unpicklable_callable_rejected_with_w504_hint(self):
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex = ProcessExecutor(2)
            try:
                ex.start(target)
                captured = {}
                with pytest.raises(RuntimeSimError, match="W504"):
                    ex.run_phase(lambda rank: captured.update(r=rank))
            finally:
                ex.close()

    def test_spans_appended_in_rank_order(self):
        tracer = Tracer()
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex = ProcessExecutor(2, tracer=tracer)
            try:
                ex.run_phase(target.bump, name="bump")
            finally:
                ex.close()
        spans = [s for s in tracer.spans if s.name == "bump"]
        assert [s.rank for s in spans] == [0, 1]
        assert all(s.duration_s >= 0 for s in spans)


class TestErrors:
    def test_worker_exception_reraised_with_origin(self):
        with SegmentRegistry() as reg:
            target = Counter(reg, 3)
            ex = ProcessExecutor(3)
            try:
                with pytest.raises(ValueError) as err:
                    ex.run_phase(target.boom, name="boom")
                assert "[rank 1 phase 'boom']" in str(err.value)
                # the barrier completed: other ranks' writes landed
                assert target.cells[0] == 1.0
                assert target.cells[2] == 1.0
            finally:
                ex.close()

    def test_worker_death_is_loud_and_cleans_up(self):
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex = ProcessExecutor(2)
            with pytest.raises(RuntimeSimError, match="died"):
                ex.run_phase(target.die, name="die")
            # the executor shut itself down; further dispatch refuses
            with pytest.raises(RuntimeSimError):
                ex.run_phase(target.bump)
        # segments stayed parent-owned: nothing leaked after close
        assert leaked_segments(os.getpid()) == []

    def test_validation(self):
        with pytest.raises(RuntimeSimError):
            ProcessExecutor(0)


class PlaneProbe:
    """Target whose phase mutates the worker's (inherited) registry."""

    def __init__(self, registry: SegmentRegistry, num_ranks: int) -> None:
        self.cells = registry.ndarray("probe", (num_ranks,))

    def work(self, rank: int) -> None:
        get_registry().counter("plane.probe.work").inc()
        self.cells[rank] += 1.0

    def nap(self, rank: int) -> None:
        if rank == 0:
            time.sleep(1.2)


class TestTelemetryPlane:
    """The executor with a cross-process telemetry plane attached."""

    def _executor(self, reg, num_ranks, tracer=None, **plane_kwargs):
        plane = TelemetryPlane(reg, num_ranks, **plane_kwargs)
        ex = ProcessExecutor(num_ranks, tracer=tracer)
        ex.plane = plane
        return ex, plane

    def test_worker_spans_replace_synthetic_ones(self):
        tracer = Tracer()
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex, _ = self._executor(reg, 2, tracer=tracer)
            try:
                ex.run_phase(target.bump, name="bump")
            finally:
                ex.close()
        spans = [s for s in tracer.spans if s.name == "bump"]
        # one worker-origin span per rank, no parent-side synthetics
        assert len(spans) == 2
        assert sorted(s.rank for s in spans) == [0, 1]
        parent_pid = os.getpid()
        for s in spans:
            assert s.args["origin"] == "worker"
            assert s.args["pid"] != parent_pid
            assert s.args["tid"] > 0
        assert len({s.args["pid"] for s in spans}) == 2

    def test_worker_counters_merge_into_parent_registry(self):
        counter = get_registry().counter("plane.probe.work")
        before = counter.value
        with SegmentRegistry() as reg:
            target = PlaneProbe(reg, 2)
            ex, _ = self._executor(reg, 2)
            try:
                ex.run_phase(target.work, name="work")
                ex.run_phase(target.work, name="work")
            finally:
                ex.close()
        # each rank's two increments crossed on the acks and summed
        assert counter.value == before + 4

    def test_worker_death_bundle_includes_survivors(self):
        tracer = Tracer()
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex, plane = self._executor(reg, 2, tracer=tracer)
            with pytest.raises(RuntimeSimError, match="died") as err:
                ex.run_phase(target.die, name="die")
            bundle = err.value.postmortem
            assert bundle["kind"] == "repro.postmortem"
            assert bundle["ranks"][0]["state"] == "dead"
            assert bundle["ranks"][0]["exitcode"] == 13
            # captured before shutdown: the survivor was still alive
            assert bundle["ranks"][1]["state"] == "alive"
            # the dead rank got as far as entering the phase
            dead_hb = bundle["ranks"][0]["heartbeat"]
            assert dead_hb["state"] == "in_phase"
            assert dead_hb["phase"] == "die"
            # the surviving rank's ack was merged before the raise: its
            # span reached the tracer and its heartbeat closed the dispatch
            surviving = [
                s for s in tracer.spans
                if s.name == "die" and s.rank == 1
            ]
            assert len(surviving) == 1
            assert surviving[0].args["origin"] == "worker"
            assert bundle["ranks"][1]["heartbeat"]["state"] == "idle"
        assert leaked_segments(os.getpid()) == []

    def test_stalled_worker_diagnosed_not_hung(self):
        with SegmentRegistry() as reg:
            target = PlaneProbe(reg, 2)
            ex, plane = self._executor(reg, 2, stall_timeout_s=0.25)
            with pytest.raises(StallError, match="rank 0 stalled") as err:
                ex.run_phase(target.nap, name="nap")
            assert err.value.postmortem["reason"].startswith("stall")
            # the watchdog shut the executor down
            with pytest.raises(RuntimeSimError, match="closed"):
                ex.run_phase(target.work)
        assert leaked_segments(os.getpid()) == []


class Stepper:
    """Target for rank-resident dispatches; every observation lands in a
    shared row per rank: [first stamp, second stamp, ctx applications]."""

    def __init__(self, registry: SegmentRegistry, num_ranks: int) -> None:
        self.log = registry.ndarray("steplog", (num_ranks, 3))
        self.base = 0.0
        self.seq = 0
        self.applied = 0

    def _apply_phase_context(self, ctx) -> None:
        self.applied += 1
        self.base = float(ctx.get("base", 0.0))

    def first(self, rank: int) -> None:
        self.seq += 1
        self.log[rank, 0] = self.base + self.seq
        self.log[rank, 2] = self.applied

    def second(self, rank: int) -> None:
        self.seq += 1
        self.log[rank, 1] = self.base + self.seq

    def boom(self, rank: int) -> None:
        if rank == 1:
            raise ValueError("bad rank state")

    def die(self, rank: int) -> None:
        if rank == 0:
            os._exit(13)

    def hang(self, rank: int) -> None:
        if rank == 0:  # a survivor blocked on the failed rank's ring
            time.sleep(30.0)


@pytest.mark.usefixtures("hard_time_bound")
class TestRunStep:
    """``run_step``: one message and one ack per rank per iteration."""

    def test_one_dispatch_runs_every_phase_in_program_order(self):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            ex = ProcessExecutor(2)
            try:
                for _ in range(2):
                    timings = ex.run_step(
                        [target.first, target.second],
                        ["first", "second"],
                        ctx={"base": 100.0},
                    )
                assert ex.dispatches == 2
                assert ex.phases_run == 4
                # per rank: first, second, first, second — back to back
                assert np.array_equal(target.log[:, 0], [103.0, 103.0])
                assert np.array_equal(target.log[:, 1], [104.0, 104.0])
                # the ctx hook ran once per dispatch
                assert np.array_equal(target.log[:, 2], [2.0, 2.0])
                # one (start, duration) per rank per phase, in order
                assert len(timings) == 2
                for acked in timings:
                    (t0, d0), (t1, d1) = acked
                    assert d0 >= 0 and d1 >= 0 and t0 + d0 <= t1
                # run_phase is a one-phase run_step
                ex.run_phase(target.first, ctx={"base": 0.0})
                assert ex.dispatches == 3
                assert ex.phases_run == 5
                assert np.array_equal(target.log[:, 0], [5.0, 5.0])
            finally:
                ex.close()

    def test_changed_program_runs_the_new_phases(self):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            ex = ProcessExecutor(2)
            try:
                ctx = {"base": 0.0}
                ex.run_step([target.first], ["first"], ctx)
                timings = ex.run_step(
                    [target.second, target.first], ["second", "first"], ctx
                )
                assert [len(acked) for acked in timings] == [2, 2]
                # second (seq 2), then first (seq 3)
                assert np.array_equal(target.log[:, 1], [2.0, 2.0])
                assert np.array_equal(target.log[:, 0], [3.0, 3.0])
                # same callables, new labels: a new program too
                timings = ex.run_step([target.first], ["renamed"], ctx)
                assert [len(acked) for acked in timings] == [1, 1]
                assert np.array_equal(target.log[:, 0], [4.0, 4.0])
                assert ex.phases_run == 4
            finally:
                ex.close()

    def test_steady_state_step_pickles_nothing(self, monkeypatch):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            ex = ProcessExecutor(2)
            try:
                phases = [target.first, target.second]
                ex.run_step(phases, ["first", "second"], ctx={"step": 0})

                def refuse(*args, **kwargs):
                    raise AssertionError("the steady-state step pickled")

                sizes = []
                write_all = procexec._write_all

                def record(fd, data):
                    sizes.append(len(data))
                    write_all(fd, data)

                monkeypatch.setattr(procexec.pickle, "dumps", refuse)
                monkeypatch.setattr(procexec, "_write_all", record)
                for step in range(1, 4):
                    # fresh bound methods each step, as the solver passes
                    timings = ex.run_step(
                        [target.first, target.second],
                        ["first", "second"],
                        ctx={"step": step},
                    )
                    assert [len(acked) for acked in timings] == [2, 2]
                assert np.array_equal(target.log[:, 1], [8.0, 8.0])
                # one bare header per rank per step
                assert sizes == [procexec._DISPATCH.size] * 6
            finally:
                ex.close()

    def test_plane_off_still_yields_one_worker_span_per_rank_per_phase(self):
        tracer = Tracer()
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            ex = ProcessExecutor(2, tracer=tracer)
            try:
                ex.run_step(
                    [target.first, target.second],
                    ["first", "second"],
                    ctx={"base": 0.0},
                )
            finally:
                ex.close()
        assert sorted((s.name, s.rank) for s in tracer.spans) == [
            ("first", 0), ("first", 1), ("second", 0), ("second", 1),
        ]
        assert all(s.args["origin"] == "worker" for s in tracer.spans)

    def test_worker_spans_flush_once_per_dispatch(self):
        tracer = Tracer()
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            ex = ProcessExecutor(2, tracer=tracer)
            ex.plane = TelemetryPlane(reg, 2)
            try:
                ex.run_step(
                    [target.first, target.second],
                    ["first", "second"],
                    ctx={"base": 0.0, "step": 0},
                )
            finally:
                ex.close()
        # one ack per rank carried both phases' spans
        assert len(tracer.spans) == 4
        assert all(s.args["origin"] == "worker" for s in tracer.spans)

    def test_name_count_must_match(self):
        ex = ProcessExecutor(2)
        try:
            with pytest.raises(RuntimeSimError, match="one span name"):
                ex.run_step([crash_free, crash_free], ["only-one"])
        finally:
            ex.close()

    def test_error_ends_the_iteration_and_closes(self):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 3)
            ex = ProcessExecutor(3)
            with pytest.raises(ValueError) as err:
                ex.run_step(
                    [target.first, target.boom, target.second],
                    ["first", "boom", "second"],
                    ctx={"base": 0.0},
                )
            # the worker names the failing phase in its ack
            assert "[rank 1 phase 'boom']" in str(err.value)
            # rank 1 stopped at the failure; its peers ran on
            assert np.array_equal(target.log[:, 1], [2.0, 0.0, 2.0])
            # a failed iteration is not resumable
            with pytest.raises(RuntimeSimError, match="closed"):
                ex.run_step([target.first], ["first"])
        assert leaked_segments(os.getpid()) == []

    def test_error_does_not_wait_out_a_blocked_survivor(self):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            plane = TelemetryPlane(reg, 2, stall_timeout_s=0.3)
            ex = ProcessExecutor(2)
            ex.plane = plane
            began = time.perf_counter()
            with pytest.raises(ValueError, match="rank 1 phase 'boom'"):
                ex.run_step(
                    [target.boom, target.hang],
                    ["boom", "hang"],
                    ctx={"base": 0.0, "step": 0},
                )
            # grace = min(5 s, stall timeout), then the straggler is
            # terminated — never its 30 s sleep
            assert time.perf_counter() - began < 5.0
            with pytest.raises(RuntimeSimError, match="closed"):
                ex.run_phase(target.first)
        assert leaked_segments(os.getpid()) == []

    def test_death_names_the_phase_from_the_heartbeat(self):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            plane = TelemetryPlane(reg, 2)
            ex = ProcessExecutor(2)
            ex.plane = plane
            with pytest.raises(RuntimeSimError) as err:
                ex.run_step(
                    [target.first, target.die, target.second],
                    ["first", "die", "second"],
                    ctx={"base": 0.0, "step": 3},
                )
            assert (
                "rank 0 worker process died during phase 'die' of step 3"
                in str(err.value)
            )
            assert err.value.postmortem["reason"].startswith(
                "rank 0 worker process died during phase 'die'"
            )
        assert leaked_segments(os.getpid()) == []

    def test_death_without_a_plane_names_the_step(self):
        with SegmentRegistry() as reg:
            target = Stepper(reg, 2)
            ex = ProcessExecutor(2)
            with pytest.raises(
                RuntimeSimError, match="rank 0 .* died during step 3"
            ):
                ex.run_step(
                    [target.first, target.die],
                    ["first", "die"],
                    ctx={"base": 0.0, "step": 3},
                )
        assert leaked_segments(os.getpid()) == []


class TestLifecycle:
    def test_close_idempotent(self):
        ex = ProcessExecutor(2)
        ex.run_phase(crash_free)
        ex.close()
        ex.close()

    def test_closed_executor_refuses_start(self):
        ex = ProcessExecutor(2)
        ex.close()
        with pytest.raises(RuntimeSimError, match="closed"):
            ex.start()

    def test_no_segments_leaked_across_full_cycle(self):
        before = leaked_segments(os.getpid())
        with SegmentRegistry() as reg:
            target = Counter(reg, 2)
            ex = ProcessExecutor(2)
            try:
                for _ in range(3):
                    ex.run_phase(target.bump)
            finally:
                ex.close()
        assert leaked_segments(os.getpid()) == before

    def test_closed_process_solver_is_freed(self):
        # no exit hook or executor field may keep a closed solver (its
        # plans, tables and rank states) alive
        grid = make_cylinder(CylinderSpec(scale=0.4))
        config = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False),
            executor="process",
        )
        solver = DistributedSolver(axis_decompose(grid, 2), config)
        solver.step(2)
        solver.close()
        ref = weakref.ref(solver)
        del solver
        gc.collect()
        assert ref() is None


_KILLED_PARENT = """
import multiprocessing
from repro.harvey import HarveyApp, HarveyConfig

app = HarveyApp(HarveyConfig(
    workload="cylinder", resolution=2.5, num_ranks=2, executor="process",
))
app.solver.step(2)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
while True:
    app.solver.step(1)
"""


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.usefixtures("hard_time_bound")
@pytest.mark.skipif(
    not os.path.isdir("/proc") or not os.path.isdir("/dev/shm"),
    reason="reads worker liveness from /proc and segments from /dev/shm",
)
class TestParentDeath:
    def test_workers_exit_and_segments_go_when_the_parent_is_killed(self):
        app = subprocess.Popen(
            [sys.executable, "-c", _KILLED_PARENT],
            stdout=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            workers = [int(pid) for pid in app.stdout.readline().split()]
            assert len(workers) == 2
            assert len(leaked_segments(app.pid)) == 7
            app.send_signal(signal.SIGKILL)
            app.wait()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                any(_running(pid) for pid in workers)
                or leaked_segments(app.pid)
            ):
                time.sleep(0.05)
            assert [pid for pid in workers if _running(pid)] == []
            assert leaked_segments(app.pid) == []
        finally:
            app.kill()
            app.wait()
            app.stdout.close()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
