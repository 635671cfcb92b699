"""Cross-process telemetry: codec, heartbeats, the ack's record merge,
stall watchdog, and postmortem bundles.

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
    POSTMORTEM_SCHEMA_VERSION,
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
        board.publish(1, seq=7, step=3, phase_index=12,
                      state=HB_IN_PHASE, pid=4242, ts=123.5)
        hb = board.read(1)
        assert hb["seq"] == 7
        assert hb["step"] == 3
        assert hb["phase_index"] == 12
        assert hb["ts"] == 123.5
        assert hb["pid"] == 4242
        assert hb["state"] == "in_phase"
        assert not hb["torn"]

    def test_torn_row_detected(self, registry):
        board = HeartbeatBoard(registry, 1)
        board.publish(0, seq=5, step=0, phase_index=1, state=HB_IN_PHASE)
        board._rows[0][0] = 6  # writer died between pre and post
        assert board.read(0)["torn"]


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
        agent.begin_dispatch({"step": 4})
        agent.begin_phase(0, "collide")
        agent.end_phase()
        agent.end_dispatch()
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
        agent.begin_dispatch({"step": 3})
        for index, name in enumerate(names):
            agent.begin_phase(index, name)
            isolated_metrics.counter("lbm.work").inc(2)
            agent.end_phase()
        agent.end_dispatch()
        records = agent.records()
        assert len(records) == len(names) + 1  # the spans + one delta
        assert agent.records() == []  # nothing pending: an empty ack
        parent = set_registry(MetricsRegistry())
        merge_records(records, tracer)
        assert [s.name for s in tracer.spans] == names
        assert all(s.args["origin"] == "worker" for s in tracer.spans)
        assert parent.counter("lbm.work").value == 2 * len(names)

    def test_heartbeat_updated_by_phases(self, registry, isolated_metrics):
        # one beat at each phase entry, one idle beat at the dispatch end;
        # the phase column is the index into the dispatched tuple, which
        # the plane names through the labels the parent sent
        plane = TelemetryPlane(registry, 1)
        plane.phase_names = ("collide", "stream")
        agent = WorkerAgent(0, plane)
        agent.begin_dispatch({"step": 2})
        agent.begin_phase(0, "collide")
        agent.end_phase()
        agent.begin_phase(1, "stream")
        hb = plane.heartbeat(0)
        assert hb["state"] == "in_phase"
        assert hb["step"] == 2
        assert (hb["phase_index"], hb["phase"]) == (1, "stream")
        assert hb["seq"] == 2
        agent.end_phase()
        assert plane.heartbeat(0)["seq"] == 2  # no beat at phase exit
        agent.end_dispatch()
        hb = plane.heartbeat(0)
        assert hb["state"] == "idle"
        assert hb["seq"] == 3

    def test_error_recorded_in_heartbeat(self, registry, isolated_metrics):
        plane = TelemetryPlane(registry, 1)
        plane.phase_names = ("collide", "boundary")
        agent = WorkerAgent(0, plane)
        agent.begin_dispatch({"step": 0})
        agent.begin_phase(1, "boundary")
        agent.record_error()
        hb = plane.heartbeat(0)
        assert hb["state"] == "error"
        assert hb["phase"] == "boundary"


class TestStallWatchdog:
    def test_stalled_rank_diagnosed(self, registry):
        plane = TelemetryPlane(registry, 2, stall_timeout_s=0.5)
        # a fake stalled worker: entered a phase long ago, never again
        plane.phase_names = ("collide", "exchange")
        plane.heartbeats.publish(
            1, seq=9, step=3, phase_index=1, state=HB_IN_PHASE,
            pid=777, ts=100.0,
        )
        with pytest.raises(StallError) as err:
            plane.check_stalls([1], since=100.0, now=101.0)
        msg = str(err.value)
        assert "rank 1 stalled" in msg
        assert "seq=9" in msg
        assert "step=3" in msg
        assert "state=in_phase" in msg
        assert "phase='exchange'" in msg

    def test_fresh_heartbeat_not_stalled(self, registry):
        plane = TelemetryPlane(registry, 1, stall_timeout_s=0.5)
        plane.heartbeats.publish(
            0, seq=1, step=0, phase_index=1, state=HB_IN_PHASE, ts=100.9
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
            0, seq=1, step=0, phase_index=1, state=HB_IN_PHASE, ts=100.0
        )
        plane.check_stalls(
            [0], since=100.0, now=105.0, alive=lambda rank: False
        )


class TestPostmortem:
    def test_bundle_save_load_render(
        self, registry, isolated_metrics, tmp_path
    ):
        plane = TelemetryPlane(registry, 2)
        plane.phase_names = ("collide",)
        agent = WorkerAgent(0, plane)
        agent.begin_dispatch({"step": 1})
        agent.begin_phase(0, "collide")
        agent.end_phase()
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
        assert loaded["schema_version"] == POSTMORTEM_SCHEMA_VERSION == 2
        assert loaded["ranks"][1]["state"] == "dead"
        # rank 0's heartbeat names the phase it entered
        assert loaded["ranks"][0]["heartbeat"]["phase"] == "collide"
        assert "flight" not in loaded["ranks"][0]
        text = render_postmortem(loaded)
        assert "worker death" in text
        assert "rank 1 died" in text
        assert "collide" in text

    def test_renders_a_schema_1_bundle(self):
        # bundles written before the heartbeat named the phase carried a
        # flight-recorder tail per rank; they still render
        bundle = {
            "schema_version": 1,
            "kind": "repro.postmortem",
            "reason": "rank 0 worker process died during phase 'stream'",
            "ranks": [
                {
                    "rank": 0,
                    "state": "dead",
                    "exitcode": 23,
                    "heartbeat": {"seq": 4, "step": 1, "phase_ordinal": 4,
                                  "state": "in_phase", "pid": 11},
                    "flight": {"events": [
                        {"ev": "phase_begin", "name": "stream", "step": 1,
                         "t": 1.5},
                    ], "evicted": 0},
                },
            ],
            "leaked_segments": [],
        }
        text = render_postmortem(bundle)
        assert "died during phase 'stream'" in text
        assert "rank 0 flight tail:" in text
        assert "phase_begin" in text

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
