"""Trace summaries: the one span reducer, its imbalance table, and its
agreement between a live tracer and the trace file it exports."""

import pytest

from repro.harvey import HarveyApp, HarveyConfig
from repro.runtime.procexec import fork_available
from repro.telemetry.export import chrome_trace, spans_from_chrome
from repro.telemetry.spans import SpanRecord, Tracer
from repro.telemetry.summary import phase_stats, render_imbalance


def phase_span(name, rank, dur_us, origin=None):
    args = {} if origin is None else {"origin": origin}
    return SpanRecord(name, 0.0, dur_us * 1e-6, 0, rank=rank, args=args)


def two_rank_spans():
    # rank 0 busy 3000 us, rank 1 busy 1000 us -> mean 2000, skew 1.5
    return [
        phase_span("collide", 0, 2000.0, origin="worker"),
        phase_span("stream", 0, 1000.0, origin="worker"),
        phase_span("collide", 1, 600.0, origin="worker"),
        phase_span("stream", 1, 400.0),
        # non-phase and unranked spans are ignored
        phase_span("step", None, 9999.0),
        phase_span("overlap_window", 0, 9999.0),
    ]


class TestRankImbalance:
    def test_busy_time_and_skew(self):
        stats = phase_stats(two_rank_spans())
        busy = stats.busy_s
        assert busy == pytest.approx({0: 3000e-6, 1: 1000e-6})
        assert sum(busy.values()) / len(busy) == pytest.approx(2000e-6)
        assert max(busy.values()) == pytest.approx(3000e-6)
        assert stats.imbalance == pytest.approx(1.5)

    def test_worker_origin_spans_counted_per_rank(self):
        stats = phase_stats(two_rank_spans())
        # rank 1's "stream" lacks the worker origin tag
        assert stats.worker_spans == {0: 2, 1: 1}

    def test_needs_two_ranks(self):
        single = [phase_span("collide", 0, 100.0)]
        assert render_imbalance(phase_stats(single)) is None
        assert render_imbalance(phase_stats([])) is None
        # unranked phase spans alone don't make a table either
        unranked = [phase_span("collide", None, 5.0)]
        assert render_imbalance(phase_stats(unranked)) is None


class TestRenderImbalance:
    def test_table_rows_and_skew_line(self):
        table = render_imbalance(phase_stats(two_rank_spans()))
        assert "max/mean skew 1.500" in table
        lines = table.splitlines()
        rank_rows = [ln for ln in lines if ln.lstrip().startswith(("0", "1"))]
        assert "3.00" in rank_rows[0] and "100.0%" in rank_rows[0]
        assert "1.00" in rank_rows[1] and "33.3%" in rank_rows[1]
        # worker-span counts land in the last column
        assert rank_rows[0].rstrip().endswith("2")
        assert rank_rows[1].rstrip().endswith("1")

    def test_returns_none_without_enough_ranks(self):
        assert render_imbalance(phase_stats([])) is None


@pytest.mark.parametrize(
    "executor",
    [
        "lockstep",
        pytest.param(
            "process",
            marks=pytest.mark.skipif(
                not fork_available(),
                reason="needs the POSIX fork start method",
            ),
        ),
    ],
)
def test_tracer_and_its_trace_file_reduce_alike(executor):
    """A live tracer and its exported trace give the same PhaseStats,
    to within the exporter's microsecond rounding."""
    tracer = Tracer()
    config = HarveyConfig(
        workload="proxy", resolution=0.5, num_ranks=2, overlap=True,
        executor=executor,
    )
    with HarveyApp(config, tracer=tracer) as app:
        app.run(4)
    live = phase_stats(tracer.spans)
    loaded = phase_stats(
        spans_from_chrome(chrome_trace(tracer)["traceEvents"])
    )
    # each exported duration is rounded to the nanosecond
    tol = 1e-9 * len(tracer.spans)
    assert live.overlapped and loaded.overlapped
    assert loaded.wall_s == pytest.approx(live.wall_s, abs=tol)
    assert loaded.phase_s.keys() == live.phase_s.keys()
    for rank, phases in live.phase_s.items():
        assert loaded.phase_s[rank] == pytest.approx(phases, abs=tol)
    assert loaded.worker_spans == live.worker_spans
    if executor == "process":
        assert set(live.worker_spans) == {0, 1}
