"""Cross-process telemetry: codec, heartbeats, flight recorder, the
ack's record merge, stall watchdog, and postmortem bundles.

Everything here runs single-process: the plane's channels are plain
shared-memory arrays, so a worker agent created in the parent exercises
the exact code paths a forked rank runs.  The one same-process caveat:
the agent snapshots the *global* metrics registry for its deltas, so
tests install a separate parent-side ``MetricsRegistry`` before the
merge to observe it without double counting (in a real fork the
worker's registry is a copy-on-write clone and no such aliasing exists).
"""

import json

import numpy as np
import pytest

from repro.core.errors import StallError, TelemetryError
from repro.runtime.shmem import SegmentRegistry
from repro.telemetry.metrics import (
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.telemetry.plane import (
    DEFAULT_FRAME_ITEMS,
    HB_IN_PHASE,
    FlightRecorder,
    HeartbeatBoard,
    TelemetryPlane,
    WorkerAgent,
    decode_frame,
    encode_records,
    load_postmortem,
    merge_records,
    plane_enabled,
    render_postmortem,
)
from repro.telemetry.spans import Tracer


@pytest.fixture()
def registry():
    with SegmentRegistry() as reg:
        yield reg


@pytest.fixture()
def isolated_metrics():
    """A fresh global registry, restored afterwards."""
    previous = get_registry()
    fresh = MetricsRegistry()
    set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


class TestPlaneEnabled:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
        assert plane_enabled()

    @pytest.mark.parametrize("value", ["off", "0", "false", "NO", " none "])
    def test_disabled_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY_PLANE", value)
        assert not plane_enabled()


class TestFrameCodec:
    def test_round_trip(self):
        records = [
            {"k": "span", "n": f"phase{i}", "t0": i * 0.5, "d": 0.25,
             "r": i % 4, "a": {"step": i}}
            for i in range(100)
        ]
        frames, dropped = encode_records(records)
        assert dropped == 0
        out = []
        for frame in frames:
            out.extend(decode_frame(frame))
        assert out == records

    def test_splits_into_multiple_frames(self):
        # small frames force the greedy packer to spill
        records = [{"name": "x" * 100, "i": i} for i in range(20)]
        frames, dropped = encode_records(records, items=64)
        assert dropped == 0
        assert len(frames) > 1
        out = []
        for frame in frames:
            out.extend(decode_frame(frame))
        assert out == records

    def test_oversized_record_dropped_not_fatal(self):
        records = [
            {"ok": 1},
            {"huge": "y" * (DEFAULT_FRAME_ITEMS * 8)},
            {"ok": 2},
        ]
        frames, dropped = encode_records(records)
        assert dropped == 1
        out = []
        for frame in frames:
            out.extend(decode_frame(frame))
        assert out == [{"ok": 1}, {"ok": 2}]

    def test_decode_rejects_implausible_length(self):
        frame = np.zeros(64, dtype=np.float64)
        frame[:1].view(np.int64)[0] = 10**9
        with pytest.raises(TelemetryError, match="implausible"):
            decode_frame(frame)


class TestHeartbeatBoard:
    def test_publish_read_round_trip(self, registry):
        board = HeartbeatBoard(registry, 2)
        board.publish(1, seq=7, step=3, phase_ordinal=12,
                      state=HB_IN_PHASE, pid=4242, ts=123.5)
        hb = board.read(1)
        assert hb["seq"] == 7
        assert hb["step"] == 3
        assert hb["phase_ordinal"] == 12
        assert hb["ts"] == 123.5
        assert hb["pid"] == 4242
        assert hb["state"] == "in_phase"
        assert not hb["torn"]

    def test_torn_row_detected(self, registry):
        board = HeartbeatBoard(registry, 1)
        board.publish(0, seq=5, step=0, phase_ordinal=1, state=HB_IN_PHASE)
        board._rows[0][0] = 6  # writer died between pre and post
        assert board.read(0)["torn"]


class TestFlightRecorder:
    def test_bounded_eviction_keeps_newest(self, registry):
        rec = FlightRecorder(registry, 1, slots=8)
        for i in range(30):
            rec.record(0, {"ev": "phase_begin", "i": i})
        tail = rec.tail(0)
        assert tail["recorded"] == 30
        assert tail["evicted"] == 22
        assert tail["skipped"] == 0
        assert [e["i"] for e in tail["events"]] == list(range(22, 30))

    def test_oversized_event_truncated_not_lost(self, registry):
        rec = FlightRecorder(registry, 1, slots=4, slot_bytes=128)
        rec.record(0, {"ev": "error", "name": "x" * 500, "detail": "y" * 500})
        events = rec.tail(0)["events"]
        assert len(events) == 1
        assert events[0]["trunc"] is True
        assert events[0]["name"] == "x" * 48

    def test_torn_slot_skipped(self, registry):
        rec = FlightRecorder(registry, 1, slots=4)
        rec.record(0, {"ev": "a"})
        rec.record(0, {"ev": "b"})
        rec._post[0, 0] = 99  # corrupt the first slot's bracket
        tail = rec.tail(0)
        assert tail["skipped"] == 1
        assert [e["ev"] for e in tail["events"]] == ["b"]

    def test_ranks_are_independent(self, registry):
        rec = FlightRecorder(registry, 2, slots=4)
        rec.record(0, {"ev": "only-rank-0"})
        assert rec.tail(1)["events"] == []
        assert rec.tail(1)["recorded"] == 0


class TestMetricMerge:
    def test_counter_gauge_histogram_semantics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.0)
        hist = reg.histogram("h", (1.0, 2.0))
        hist.observe(1.5)
        reg.merge_deltas(
            [
                {"kind": "counter", "name": "c", "delta": 4},
                {"kind": "gauge", "name": "g", "value": 9.5},
                {"kind": "histogram", "name": "h", "edges": [1.0, 2.0],
                 "counts": [1, 0, 2], "count": 3, "total": 10.0},
            ]
        )
        assert reg.counter("c").value == 7  # sum
        assert reg.gauge("g").value == 9.5  # last write
        snap = reg.as_dict()["histograms"]["h"]
        buckets = list(snap["buckets"].values())
        # observe(1.5) landed in le_2; the delta adds [1, 0, 2] bucket-wise
        assert buckets == [1, 1, 2]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(11.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="kind"):
            MetricsRegistry().merge_deltas(
                [{"kind": "summary", "name": "x"}]
            )

    def test_worker_deltas_fold_through_the_ack(self, isolated_metrics):
        agent = WorkerAgent(0)
        # worker-side increments after the agent's base snapshot
        isolated_metrics.counter("lbm.work").inc(5)
        isolated_metrics.gauge("lbm.level").set(2.5)
        first = agent.records()
        # second dispatch: only the new delta crosses
        isolated_metrics.counter("lbm.work").inc(2)
        second = agent.records()
        parent = set_registry(MetricsRegistry())
        merge_records(first, Tracer())
        merge_records(second, Tracer())
        assert parent.counter("lbm.work").value == 7
        assert parent.gauge("lbm.level").value == 2.5


class TestSpanMerge:
    def test_worker_spans_carry_pid_tid_and_origin(self, isolated_metrics):
        tracer = Tracer()
        agent = WorkerAgent(1, trace=True)
        agent.begin_phase("collide", ctx={"step": 4})
        agent.end_phase("collide")
        # the worker loop's end-of-dispatch ack
        merge_records(agent.records(), tracer)
        spans = [s for s in tracer.spans if s.name == "collide"]
        assert len(spans) == 1
        span = spans[0]
        assert span.rank == 1
        assert span.args["origin"] == "worker"
        assert span.args["pid"] == agent.pid
        assert span.args["tid"] == agent.tid

    def test_one_flush_per_dispatch_carries_every_phase(
        self, registry, isolated_metrics
    ):
        # a rank-resident step: N phase brackets, then the worker loop's
        # single end-of-dispatch ack — every phase's span, nothing lost
        tracer = Tracer()
        plane = TelemetryPlane(registry, 1)
        agent = WorkerAgent(0, plane, trace=True)
        names = ["collide", "exchange", "interior", "exchange", "frontier"]
        for name in names:
            agent.begin_phase(name, ctx={"step": 3})
            isolated_metrics.counter("lbm.work").inc(2)
            agent.end_phase(name)
        records = agent.records()
        assert len(records) == len(names) + 1  # the spans + one delta
        assert agent.records() == []  # nothing pending: an empty ack
        parent = set_registry(MetricsRegistry())
        merge_records(records, tracer)
        assert [s.name for s in tracer.spans] == names
        assert all(s.args["origin"] == "worker" for s in tracer.spans)
        assert parent.counter("lbm.work").value == 2 * len(names)

    def test_heartbeat_and_flight_updated_by_phases(
        self, registry, isolated_metrics
    ):
        plane = TelemetryPlane(registry, 1)
        agent = WorkerAgent(0, plane)
        agent.begin_phase("stream", ctx={"step": 2})
        hb = plane.heartbeat(0)
        assert hb["state"] == "in_phase"
        assert hb["step"] == 2
        agent.end_phase("stream")
        hb = plane.heartbeat(0)
        assert hb["state"] == "idle"
        events = plane.flight_tail(0)["events"]
        assert [e["ev"] for e in events] == ["phase_begin", "phase_end"]

    def test_error_recorded_in_flight_and_heartbeat(
        self, registry, isolated_metrics
    ):
        plane = TelemetryPlane(registry, 1)
        agent = WorkerAgent(0, plane)
        agent.begin_phase("boundary", ctx={"step": 0})
        agent.record_error("boundary", ValueError("bad node"))
        assert plane.heartbeat(0)["state"] == "error"
        last = plane.flight_tail(0)["events"][-1]
        assert last["ev"] == "error"
        assert "bad node" in last["exc"]


class TestStallWatchdog:
    def test_stalled_rank_diagnosed(self, registry):
        plane = TelemetryPlane(registry, 2, stall_timeout_s=0.5)
        # a fake stalled worker: entered a phase long ago, never again
        plane.heartbeats.publish(
            1, seq=9, step=3, phase_ordinal=17, state=HB_IN_PHASE,
            pid=777, ts=100.0,
        )
        plane.flight.record(1, {"ev": "phase_begin", "name": "exchange"})
        with pytest.raises(StallError) as err:
            plane.check_stalls([1], since=100.0, now=101.0)
        msg = str(err.value)
        assert "rank 1 stalled" in msg
        assert "seq=9" in msg
        assert "step=3" in msg
        assert "state=in_phase" in msg
        assert "phase_begin:exchange" in msg

    def test_fresh_heartbeat_not_stalled(self, registry):
        plane = TelemetryPlane(registry, 1, stall_timeout_s=0.5)
        plane.heartbeats.publish(
            0, seq=1, step=0, phase_ordinal=1, state=HB_IN_PHASE, ts=100.9
        )
        plane.check_stalls([0], since=100.0, now=101.0)  # must not raise

    def test_dispatch_time_floors_the_age(self, registry):
        # a rank never asked to work has a zero heartbeat; the dispatch
        # timestamp keeps it from counting as stalled
        plane = TelemetryPlane(registry, 1, stall_timeout_s=0.5)
        plane.check_stalls([0], since=100.8, now=101.0)

    def test_dead_rank_exempted_via_alive(self, registry):
        plane = TelemetryPlane(registry, 1, stall_timeout_s=0.5)
        plane.heartbeats.publish(
            0, seq=1, step=0, phase_ordinal=1, state=HB_IN_PHASE, ts=100.0
        )
        plane.check_stalls(
            [0], since=100.0, now=105.0, alive=lambda rank: False
        )


class TestPostmortem:
    def test_bundle_save_load_render(
        self, registry, isolated_metrics, tmp_path
    ):
        plane = TelemetryPlane(registry, 2)
        agent = WorkerAgent(0, plane)
        agent.begin_phase("collide", ctx={"step": 1})
        agent.end_phase("collide")
        bundle = plane.postmortem_bundle(
            "worker death",
            rank_states={
                0: {"state": "alive", "exitcode": None},
                1: {"state": "dead", "exitcode": -9},
            },
            error="rank 1 died",
        )
        path = plane.save_bundle(bundle, path=str(tmp_path / "pm.json"))
        assert path is not None
        loaded = load_postmortem(path)
        assert loaded["kind"] == "repro.postmortem"
        assert loaded["reason"] == "worker death"
        assert loaded["ranks"][1]["state"] == "dead"
        text = render_postmortem(loaded)
        assert "worker death" in text
        assert "rank 1 died" in text
        assert "phase_begin" in text  # rank 0's flight tail survives

    def test_save_without_path_is_noop(self, registry):
        plane = TelemetryPlane(registry, 1)
        assert plane.save_bundle(plane.postmortem_bundle("x")) is None

    def test_load_rejects_non_bundles(self, tmp_path):
        path = tmp_path / "not.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(TelemetryError, match="not a repro postmortem"):
            load_postmortem(path)

    def test_validation(self, registry):
        with pytest.raises(TelemetryError):
            TelemetryPlane(registry, 0)
        with pytest.raises(TelemetryError):
            TelemetryPlane(registry, 1, stall_timeout_s=0.0)
