"""Simulated MPI communicator, event log, lockstep executor."""

import numpy as np
import pytest

from repro.core import RuntimeSimError
from repro.runtime import CommEvent, EventLog, LockstepExecutor, SimComm


class TestSimComm:
    def test_send_recv_roundtrip(self):
        comm = SimComm(2)
        data = np.arange(5.0)
        comm.send(0, 1, data)
        out = comm.recv(1, 0)
        assert np.array_equal(out, data)

    def test_send_copies_buffer(self):
        comm = SimComm(2)
        data = np.arange(3.0)
        comm.send(0, 1, data)
        data[0] = 99.0
        assert comm.recv(1, 0)[0] == 0.0

    def test_fifo_ordering_per_channel(self):
        comm = SimComm(2)
        comm.send(0, 1, np.array([1.0]))
        comm.send(0, 1, np.array([2.0]))
        assert comm.recv(1, 0)[0] == 1.0
        assert comm.recv(1, 0)[0] == 2.0

    def test_tags_separate_channels(self):
        comm = SimComm(2)
        comm.send(0, 1, np.array([1.0]), tag=1)
        comm.send(0, 1, np.array([2.0]), tag=2)
        assert comm.recv(1, 0, tag=2)[0] == 2.0
        assert comm.recv(1, 0, tag=1)[0] == 1.0

    def test_recv_without_send_raises(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeSimError, match="no message pending"):
            comm.recv(1, 0)

    def test_self_send_rejected(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeSimError):
            comm.send(1, 1, np.array([1.0]))

    def test_rank_bounds(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeSimError):
            comm.send(0, 2, np.array([1.0]))
        with pytest.raises(RuntimeSimError):
            comm.recv(-1, 0)

    def test_recv_into_checks_shape(self):
        comm = SimComm(2)
        comm.send(0, 1, np.zeros((2, 3)))
        out = np.empty((3, 2))
        with pytest.raises(RuntimeSimError, match="mismatch"):
            comm.recv_into(1, 0, out)

    def test_recv_into_fills_buffer(self):
        comm = SimComm(2)
        comm.send(0, 1, np.full((2, 2), 7.0))
        out = np.empty((2, 2))
        comm.recv_into(1, 0, out)
        assert (out == 7.0).all()

    def test_events_logged_with_bytes_and_step(self):
        comm = SimComm(2)
        comm.set_step(5)
        comm.send(0, 1, np.zeros(10))
        event = comm.log.events[-1]
        assert event.nbytes == 80
        assert event.step == 5
        assert (event.src, event.dst) == (0, 1)

    def test_pending_count(self):
        comm = SimComm(3)
        comm.send(0, 1, np.zeros(1))
        comm.send(0, 2, np.zeros(1))
        assert comm.pending_messages == 2
        comm.recv(1, 0)
        assert comm.pending_messages == 1

    def test_allreduce_sum(self):
        comm = SimComm(4)
        assert comm.allreduce([1.0, 2.0, 3.0, 4.0]) == 10.0

    def test_allreduce_custom_op(self):
        comm = SimComm(3)
        assert comm.allreduce([3.0, 1.0, 2.0], op=np.max) == 3.0

    def test_allreduce_wrong_arity(self):
        comm = SimComm(3)
        with pytest.raises(RuntimeSimError, match="contributions"):
            comm.allreduce([1.0, 2.0])

    def test_gather(self):
        comm = SimComm(2)
        out = comm.gather([np.array([1.0]), np.array([2.0])])
        assert out[1][0] == 2.0

    def test_barrier_counter(self):
        comm = SimComm(2)
        comm.barrier()
        comm.barrier()
        assert comm.barriers == 2

    def test_zero_ranks_rejected(self):
        with pytest.raises(RuntimeSimError):
            SimComm(0)


class TestEventLog:
    def test_aggregation(self):
        log = EventLog()
        log.record(CommEvent(0, 1, 100))
        log.record(CommEvent(0, 1, 50))
        log.record(CommEvent(1, 0, 25))
        assert log.total_bytes() == 175
        assert log.bytes_by_pair() == {(0, 1): 150, (1, 0): 25}
        assert log.bytes_received(1) == 150
        assert log.bytes_sent(1) == 25

    def test_step_filter(self):
        log = EventLog()
        log.record(CommEvent(0, 1, 8, step=1))
        log.record(CommEvent(0, 1, 8, step=2))
        assert len(list(log.for_step(2))) == 1

    def test_by_step_returns_events_in_record_order(self):
        log = EventLog()
        first = CommEvent(0, 1, 8, step=3)
        second = CommEvent(1, 0, 16, step=3)
        log.record(first)
        log.record(CommEvent(0, 1, 8, step=4))
        log.record(second)
        assert log.by_step(3) == [first, second]
        assert log.by_step(99) == []

    def test_total_bytes_empty_log(self):
        assert EventLog().total_bytes() == 0

    def test_bytes_by_kind(self):
        log = EventLog()
        log.record(CommEvent(0, 1, 100))
        log.record(CommEvent(0, 0, 8, kind="allreduce"))
        log.record(CommEvent(1, 0, 50))
        assert log.bytes_by_kind() == {"p2p": 150, "allreduce": 8}

    def test_subscribe_sees_every_record(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        event = CommEvent(0, 1, 8)
        log.record(event)
        log.unsubscribe(seen.append)
        log.record(CommEvent(1, 0, 8))
        assert seen == [event]

    def test_clear(self):
        log = EventLog()
        log.record(CommEvent(0, 1, 8))
        log.clear()
        assert len(log) == 0


class TestLockstepExecutor:
    def test_phases_run_in_rank_order(self):
        ex = LockstepExecutor(3)
        order = []
        ex.run_phase(order.append)
        assert order == [0, 1, 2]

    def test_run_step_sequences_phases(self):
        ex = LockstepExecutor(2)
        trace = []
        ex.run_step(
            [lambda r: trace.append(("a", r)), lambda r: trace.append(("b", r))],
            [None, None],
        )
        assert trace == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]

    def test_run_step_names_and_ctx_go_through_run_phase(self):
        # run_step is phase-major *through the executor's own run_phase
        # attribute* (the ladder wraps it and drops its return value), so
        # spans and the returned timings survive the wrapper
        from repro.telemetry import Tracer

        tracer = Tracer()
        ex = LockstepExecutor(2, tracer=tracer)
        inner, calls = ex.run_phase, []

        def recording(fn, **kw):
            calls.append(kw)
            inner(fn, **kw)

        ex.run_phase = recording
        timings = ex.run_step(
            [lambda r: None, lambda r: None],
            ["collide", "stream"],
            ctx={"step": 7},
        )
        assert calls == [
            {"name": "collide", "ctx": {"step": 7}},
            {"name": "stream", "ctx": {"step": 7}},
        ]
        assert [(s.name, s.rank) for s in tracer.spans] == [
            ("collide", 0), ("collide", 1), ("stream", 0), ("stream", 1),
        ]
        assert ex.phases_run == 2
        assert [len(acked) for acked in timings] == [2, 2]

    def test_run_step_timings_enclose_each_rank_phase_span(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        ex = LockstepExecutor(3, tracer=tracer)
        names = ["collide", "exchange", "stream"]
        timings = ex.run_step([lambda r: None] * 3, names)
        spans = {(s.name, s.rank): s for s in tracer.spans}
        assert len(timings) == 3
        for rank, acked in enumerate(timings):
            assert len(acked) == len(names)
            for (start, duration), name in zip(acked, names):
                span = spans[(name, rank)]
                assert start <= span.start_s
                assert span.end_s <= start + duration

    def test_run_step_needs_one_name_per_phase(self):
        ex = LockstepExecutor(2)
        with pytest.raises(RuntimeSimError, match="one span name"):
            ex.run_step([lambda r: None, lambda r: None], ["collide"])

    def test_named_phase_emits_one_span_per_rank(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        ex = LockstepExecutor(3, tracer=tracer)
        ex.run_phase(lambda r: None, name="collide")
        spans = [s for s in tracer.spans if s.name == "collide"]
        assert [s.rank for s in spans] == [0, 1, 2]

    def test_unnamed_phase_emits_no_spans(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        ex = LockstepExecutor(2, tracer=tracer)
        ex.run_phase(lambda r: None)
        assert tracer.spans == []

    def test_default_tracer_is_process_global(self):
        from repro.telemetry import NULL_TRACER

        assert LockstepExecutor(1).tracer is NULL_TRACER


class TestMakeExecutor:
    def test_kinds(self):
        from repro.runtime import (
            ProcessExecutor,
            fork_available,
            make_executor,
        )

        assert isinstance(make_executor("lockstep", 2), LockstepExecutor)
        if fork_available():
            forked = make_executor("process", 2)
            assert isinstance(forked, ProcessExecutor)
            forked.close()

    def test_unknown_kind(self):
        from repro.runtime import EXECUTOR_KINDS, make_executor

        assert EXECUTOR_KINDS == ("lockstep", "process")
        # the retired thread-pool kind is as unknown as any other name
        for kind in ("mpi", "parallel"):
            with pytest.raises(RuntimeSimError, match="lockstep, process"):
                make_executor(kind, 2)
