"""Telemetry integration: instrumented runs produce coherent traces.

The acceptance path of the telemetry subsystem: a 2-rank cylinder run
emits per-rank collide/stream/exchange spans, the Chrome trace round-trips
through ``json.load``, the phase shares sum to ~100%, and the CLI's
``--trace-out`` / ``telemetry summarize`` pipeline works end to end.
"""

import json
import re

import pytest

from repro.cli import main
from repro.harvey import HarveyApp, HarveyConfig
from repro.runtime.procexec import fork_available
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    load_chrome_trace,
    phase_stats,
    set_registry,
    spans_from_chrome,
    write_chrome_trace,
)


PROXY_CONFIG = HarveyConfig(workload="proxy", resolution=0.5, num_ranks=2)


@pytest.fixture
def fresh_registry():
    """A fresh process-wide registry (solvers cache counters at init)."""
    reg = set_registry(MetricsRegistry())
    yield reg
    set_registry(MetricsRegistry())


@pytest.fixture(scope="module")
def traced_run():
    # the bundle writes the process-wide registry: start it empty
    set_registry(MetricsRegistry())
    telemetry = Telemetry()
    app = HarveyApp(PROXY_CONFIG, tracer=telemetry.tracer)
    telemetry.attach_app(app)
    report = app.run(steps=25)
    telemetry.record_report(report)
    return telemetry, app, report


class TestTracedProxyRun:
    def test_emits_per_rank_phase_spans(self, traced_run):
        telemetry, _app, _report = traced_run
        spans = telemetry.tracer.spans
        for phase in ("collide", "stream", "exchange", "boundary"):
            ranks = {s.rank for s in spans if s.name == phase}
            assert ranks == {0, 1}, phase

    def test_span_counts_match_steps(self, traced_run):
        telemetry, _app, _report = traced_run
        spans = telemetry.tracer.spans
        # 25 steps x 2 ranks, exchange split into post+complete halves
        assert sum(s.name == "collide" for s in spans) == 50
        assert sum(s.name == "exchange" for s in spans) == 100
        assert sum(s.name == "step" for s in spans) == 25
        assert sum(s.name == "proxy.run" for s in spans) == 1

    def test_phase_shares_sum_to_100_percent(self, traced_run, tmp_path):
        telemetry, _app, _report = traced_run
        doc_events = load_chrome_trace(
            write_chrome_trace(telemetry.tracer, tmp_path / "trace.json")
        )
        comp = phase_stats(spans_from_chrome(doc_events)).shares()
        assert set(comp) == {0, 1, "all"}
        for shares in comp.values():
            total = sum(
                v for k, v in shares.items() if k != "total_s"
            )
            assert total == pytest.approx(1.0, abs=1e-9)
            assert shares["streamcollide"] > 0
            assert shares["communication"] > 0

    def test_phase_time_is_bounded_by_run_time(self, traced_run):
        telemetry, _app, report = traced_run
        phase_s = sum(
            s.duration_s
            for s in telemetry.tracer.spans
            if s.name in ("collide", "stream", "exchange", "boundary")
        )
        run_s = next(
            s.duration_s
            for s in telemetry.tracer.spans
            if s.name == "proxy.run"
        )
        assert 0 < phase_s <= run_s
        assert run_s <= report.wall_seconds * 1.01

    def test_comm_metrics_match_event_log(self, traced_run):
        telemetry, app, _report = traced_run
        log = app.solver.comm.log
        assert (
            telemetry.metrics.counter("comm.bytes_sent").value
            == log.total_bytes()
        )
        assert telemetry.metrics.counter("comm.messages").value == len(log)

    def test_tracing_does_not_change_physics(self):
        quiet = HarveyApp(PROXY_CONFIG)
        traced = HarveyApp(PROXY_CONFIG, tracer=Tracer())
        quiet.solver.step(10)
        traced.solver.step(10)
        import numpy as np

        assert np.array_equal(quiet.solver.gather_f(), traced.solver.gather_f())


class TestCliTelemetry:
    def test_trace_out_and_summarize_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.csv"
        code = main(
            [
                "proxy", "--scale", "0.5", "--ranks", "2", "--steps", "10",
                "--trace-out", str(trace), "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry written to" in out

        with open(trace) as fh:
            doc = json.load(fh)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {"collide", "stream", "exchange"} <= {
            e["name"] for e in complete
        }
        assert metrics.read_text().startswith("name,kind,value")

        code = main(["telemetry", "summarize", str(trace)])
        assert code == 0
        table = capsys.readouterr().out
        for column in ("Streamcollide", "Communication", "H2D", "D2H"):
            assert column in table

    @pytest.mark.skipif(
        not fork_available(), reason="needs the POSIX fork start method"
    )
    def test_metrics_out_holds_solver_sanitizer_and_worker_counters(
        self, tmp_path, capsys, fresh_registry
    ):
        """--metrics-out writes the process-wide registry: the forked
        ranks' collide and halo counters and the sanitizer's steps."""
        metrics = tmp_path / "m.json"
        code = main(
            [
                "harvey", "--quick", "--executor", "process", "--overlap",
                "--sanitize", "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        fluid = int(re.search(r"fluid=(\d+)", out).group(1))
        steps = int(re.search(r"steps=(\d+)", out).group(1))
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["lbm.collide.flups"] == fluid * steps
        assert counters["lbm.halo.bytes_packed"] > 0
        assert counters["sanitize.steps_checked"] == steps
        assert "lbm.sites_updated" not in counters

    def test_runs_without_telemetry_flags_stay_silent(self, capsys):
        code = main(
            ["proxy", "--scale", "0.5", "--ranks", "2", "--steps", "5"]
        )
        assert code == 0
        assert "telemetry" not in capsys.readouterr().out


class TestCliSummarizeDegenerateTraces:
    """`telemetry summarize` exits cleanly on broken or empty traces."""

    def _summarize(self, path, capsys):
        code = main(["telemetry", "summarize", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code, _out, err = self._summarize(tmp_path / "nope.json", capsys)
        assert code == 1
        assert err.startswith("error: cannot load trace")

    def test_empty_file_is_a_clean_error(self, tmp_path, capsys):
        trace = tmp_path / "empty.json"
        trace.write_text("")
        code, _out, err = self._summarize(trace, capsys)
        assert code == 1
        assert err.startswith("error: cannot load trace")

    def test_span_free_trace_is_a_clean_error(self, tmp_path, capsys):
        trace = tmp_path / "spanfree.json"
        trace.write_text('{"traceEvents": []}')
        code, _out, err = self._summarize(trace, capsys)
        assert code == 1
        assert "no phase spans" in err

    def test_zero_duration_phase_spans_are_a_clean_error(
        self, tmp_path, capsys
    ):
        # regression: this used to escape as a KeyError stack trace
        trace = tmp_path / "zerodur.json"
        trace.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {
                            "name": "collide",
                            "ph": "X",
                            "ts": 0,
                            "dur": 0,
                            "args": {"rank": 0},
                        }
                    ]
                }
            )
        )
        code, _out, err = self._summarize(trace, capsys)
        assert code == 1
        assert "zero-duration" in err
