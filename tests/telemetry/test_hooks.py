"""Hooks: comm-metrics subscription and the summary categorization."""

import pytest

from repro.core.errors import TelemetryError
from repro.runtime import CommEvent, EventLog
from repro.telemetry import (
    MetricsRegistry,
    SpanRecord,
    Telemetry,
    Tracer,
    attach_comm_metrics,
    categorize,
    get_registry,
    phase_stats,
    render_overlap,
    summarize_trace_file,
    write_chrome_trace,
)


class TestCommMetrics:
    def test_counters_follow_recorded_events(self):
        log = EventLog()
        reg = MetricsRegistry()
        attach_comm_metrics(log, reg)
        log.record(CommEvent(0, 1, 100))
        log.record(CommEvent(1, 0, 50))
        log.record(CommEvent(0, 0, 8, kind="allreduce"))
        assert reg.counter("comm.messages").value == 3
        assert reg.counter("comm.bytes_sent").value == 158
        assert reg.counter("comm.bytes.p2p").value == 150
        assert reg.counter("comm.bytes.allreduce").value == 8
        assert reg.get("comm.message_bytes").count == 3

    def test_listener_detaches_cleanly(self):
        log = EventLog()
        reg = MetricsRegistry()
        listener = attach_comm_metrics(log, reg)
        log.record(CommEvent(0, 1, 10))
        log.unsubscribe(listener)
        log.record(CommEvent(0, 1, 10))
        assert reg.counter("comm.messages").value == 1
        assert len(log) == 2  # the log itself still records everything


class TestTelemetryBundle:
    def test_creates_tracer_and_registry(self):
        bundle = Telemetry()
        assert bundle.tracer.enabled
        # no private registry: --metrics-out sees what the solver,
        # sanitizer and worker acks wrote
        assert bundle.metrics is get_registry()

    def test_write_emits_requested_artefacts(self, tmp_path):
        bundle = Telemetry()
        with bundle.tracer.span("collide", rank=0):
            pass
        paths = bundle.write(
            trace_out=str(tmp_path / "t.json"),
            metrics_out=str(tmp_path / "m.csv"),
        )
        assert [p.name for p in paths] == ["t.json", "m.csv"]
        assert all(p.exists() for p in paths)
        assert bundle.write() == []


class TestCategorize:
    @pytest.mark.parametrize(
        "name,category",
        [
            ("collide", "streamcollide"),
            ("stream", "streamcollide"),
            ("exchange", "communication"),
            ("exchange-post", "communication"),
            ("halo", "communication"),
            ("h2d", "h2d"),
            ("d2h", "d2h"),
            ("boundary", "other"),
            ("step", None),
            ("harvey.run", None),
            ("perf.price_run", None),
        ],
    )
    def test_phase_names_map_to_fig7_categories(self, name, category):
        assert categorize(name) == category


def _span(name, dur, rank=None):
    return SpanRecord(name, start_s=0.0, duration_s=dur, depth=0, rank=rank)


def _trace_file(path, spans):
    tracer = Tracer()
    tracer.spans.extend(spans)
    return write_chrome_trace(tracer, path)


class TestPhaseComposition:
    def test_shares_sum_to_one_per_rank(self):
        spans = [
            _span("collide", 60.0, rank=0),
            _span("stream", 20.0, rank=0),
            _span("exchange", 20.0, rank=0),
            _span("collide", 50.0, rank=1),
            _span("exchange", 50.0, rank=1),
            _span("step", 999.0),  # container: excluded
        ]
        comp = phase_stats(spans).shares()
        assert set(comp) == {0, 1, "all"}
        for shares in comp.values():
            total = sum(
                shares[c]
                for c in ("streamcollide", "communication", "h2d", "d2h",
                          "other")
            )
            assert total == pytest.approx(1.0)
        assert comp[0]["streamcollide"] == pytest.approx(0.8)
        assert comp[1]["communication"] == pytest.approx(0.5)
        assert comp["all"]["total_s"] == pytest.approx(200.0)

    def test_rejects_traces_without_phase_spans(self, tmp_path):
        path = _trace_file(tmp_path / "t.json", [_span("step", 1.0)])
        with pytest.raises(TelemetryError):
            summarize_trace_file(path)

    def test_render_contains_fig7_columns(self, tmp_path):
        path = _trace_file(
            tmp_path / "t.json", [_span("collide", 10.0, rank=0)]
        )
        table = summarize_trace_file(path)
        for column in ("Streamcollide", "Communication", "H2D", "D2H"):
            assert column in table


class TestOverlapComposition:
    @pytest.mark.parametrize(
        "name,category",
        [
            ("interior", "streamcollide"),
            ("frontier", "streamcollide"),
            ("overlap_window", None),
        ],
    )
    def test_overlap_span_names_categorize(self, name, category):
        assert categorize(name) == category

    def _overlap_spans(self):
        return [
            _span("overlap_window", 100.0),
            _span("exchange", 30.0, rank=0),
            _span("interior", 50.0, rank=0),
            _span("frontier", 10.0, rank=0),
            _span("exchange", 80.0, rank=1),
            _span("interior", 40.0, rank=1),
            _span("frontier", 5.0, rank=1),
        ]

    def test_hidden_vs_exposed_split(self):
        stats = phase_stats(self._overlap_spans())
        # rank 0: comm fits under the interior window entirely
        assert stats.hidden_s[0] == pytest.approx(30.0)
        assert stats.exposed_s[0] == pytest.approx(0.0)
        # rank 1: 40 s hidden, 40 s still on the critical path
        assert stats.hidden_s[1] == pytest.approx(40.0)
        assert stats.exposed_s[1] == pytest.approx(40.0)

    def test_non_overlap_trace_returns_none(self):
        stats = phase_stats([_span("collide", 10.0, rank=0)])
        assert not stats.overlapped
        assert render_overlap(stats) is None

    def test_render_and_summarize(self):
        table = render_overlap(phase_stats(self._overlap_spans()))
        for column in ("Interior", "Frontier", "Hidden", "Exposed"):
            assert column in table

    def test_summarize_trace_file_appends_overlap_table(self, tmp_path):
        path = _trace_file(tmp_path / "ov.json", self._overlap_spans())
        out = summarize_trace_file(path)
        assert "phase composition" in out
        assert "hidden vs exposed" in out
