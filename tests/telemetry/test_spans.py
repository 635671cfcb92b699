"""Span tracer: nesting, ordering, the disabled fast path, globals."""

import pytest

from repro.core.errors import TelemetryError
from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class FakeClock:
    """Deterministic monotonic clock advancing 1.0 s per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestTracer:
    def test_records_name_duration_and_args(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("collide", rank=3, step=7):
            pass
        (record,) = tracer.spans
        assert record.name == "collide"
        assert record.rank == 3
        assert record.args == {"step": 7}
        assert record.duration_s == pytest.approx(1.0)
        assert record.depth == 0

    def test_nested_spans_complete_children_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("step"):
            with tracer.span("collide"):
                pass
            with tracer.span("stream"):
                pass
        names = [s.name for s in tracer.spans]
        assert names == ["collide", "stream", "step"]

    def test_nesting_depth_and_containment(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert (inner.depth, outer.depth) == (1, 0)
        assert inner.start_s >= outer.start_s
        assert inner.end_s <= outer.end_s

    def test_open_span_count_and_clear_guard(self):
        tracer = Tracer()
        ctx = tracer.span("open")
        ctx.__enter__()
        assert tracer.open_spans == 1
        with pytest.raises(TelemetryError):
            tracer.clear()
        ctx.__exit__(None, None, None)
        tracer.clear()
        assert tracer.spans == []

    def test_empty_name_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer().span("")

    def test_exception_inside_span_still_records(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert [s.name for s in tracer.spans] == ["boom"]
        assert tracer.open_spans == 0


class TestNullTracer:
    def test_disabled_and_records_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("collide", rank=0):
            with tracer.span("inner"):
                pass
        assert list(tracer.spans) == []

    def test_span_context_is_shared(self):
        # the no-op fast path allocates nothing per span
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b", rank=1, step=2)


class TestGlobalTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_resets(self):
        set_tracer(Tracer())
        try:
            set_tracer(None)
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(None)
