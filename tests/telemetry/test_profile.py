"""The profiling layer: window stats, live gauges, trace embedding.

Pins the PR's acceptance criteria: a 4-rank cylinder profile reports
per-phase and per-window architectural efficiency in (0, 1], overlapped
runs show a nonzero hidden-communication fraction, and the profile
survives a round trip through the Chrome-trace metadata event into
``repro telemetry summarize``.
"""

import json
import multiprocessing

import pytest

from repro.core.errors import ConfigError, TelemetryError
from repro.runtime.procexec import fork_available
from repro.runtime.shmem import leaked_segments
from repro.telemetry import summarize_trace_file
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.telemetry.profile import (
    PROFILE_EVENT_NAME,
    PROFILE_SCHEMA_VERSION,
    profile_from_events,
    profile_metadata_event,
    render_profile,
    run_profile,
    write_profile_trace,
)
from repro.telemetry.spans import Tracer

#: Fixed bandwidth bound: keeps the tests off the wall-clock STREAM
#: measurement (slow, noisy) and efficiencies deterministic-ish.
BOUND_GBS = 10.0


@pytest.fixture
def registry():
    """A fresh process-wide registry; solvers cache counters at init."""
    reg = set_registry(MetricsRegistry())
    yield reg
    set_registry(MetricsRegistry())


def small_profile(registry, overlap=True, tracer=None, machine=None):
    return run_profile(
        scale=0.5,
        num_ranks=4,
        steps=12,
        window_steps=4,
        overlap=overlap,
        bandwidth_gbs=BOUND_GBS,
        machine=machine,
        tracer=tracer,
    )


class TestRunProfile:
    def test_arch_efficiency_in_unit_interval(self, registry):
        """Acceptance: per-phase and per-window efficiency in (0, 1]."""
        profile = small_profile(registry)
        assert profile["num_ranks"] == 4
        assert len(profile["windows"]) == 3
        for w in profile["windows"]:
            assert 0.0 < w["arch_efficiency"] <= 1.0
        for p in profile["phases"]:
            if p["efficiency"] is not None:
                assert 0.0 < p["efficiency"] <= 1.0
        assert 0.0 < profile["totals"]["arch_efficiency"] <= 1.0

    def test_overlap_hides_communication(self, registry):
        """Acceptance: the pipeline overlaps exchange with interior."""
        profile = small_profile(registry, overlap=True)
        assert profile["totals"]["hidden_fraction"] > 0.0
        for w in profile["windows"]:
            assert w["hidden_seconds"] + w["exposed_seconds"] == pytest.approx(
                w["comm_seconds"]
            )

    def test_barrier_schedule_hides_nothing(self, registry):
        profile = small_profile(registry, overlap=False)
        assert profile["totals"]["hidden_fraction"] == 0.0
        assert all(w["hidden_seconds"] == 0.0 for w in profile["windows"])

    def test_phase_structure_follows_schedule(self, registry):
        overlap = small_profile(registry, overlap=True)
        names = {p["phase"] for p in overlap["phases"]}
        assert {"collide", "interior", "frontier", "exchange"} <= names
        set_registry(MetricsRegistry())
        barrier = small_profile(registry, overlap=False)
        names = {p["phase"] for p in barrier["phases"]}
        assert "stream" in names
        assert "interior" not in names

    def test_counters_join_the_step_work(self, registry):
        profile = small_profile(registry)
        counters = profile["counters"]
        # 12 steps x fluid_nodes collide updates
        assert counters["lbm.collide.flups"] == 12 * profile["fluid_nodes"]
        assert counters["lbm.stream.bytes_gathered"] > 0
        assert counters["lbm.halo.bytes_packed"] > 0
        assert (
            counters["lbm.halo.bytes_unpacked"]
            == counters["lbm.halo.bytes_packed"]
        )

    def test_live_gauges_track_last_window(self, registry):
        profile = small_profile(registry)
        last = profile["windows"][-1]
        assert registry.gauge("profile.window.mflups").value == pytest.approx(
            last["mflups"]
        )
        assert registry.gauge(
            "profile.window.arch_efficiency"
        ).value == pytest.approx(last["arch_efficiency"])
        assert registry.gauge(
            "profile.window.hidden_fraction"
        ).value == pytest.approx(last["hidden_fraction"])
        assert registry.counter("profile.windows").value == 3

    def test_ragged_final_window(self, registry):
        profile = run_profile(
            scale=0.5, num_ranks=2, steps=10, window_steps=4,
            bandwidth_gbs=BOUND_GBS,
        )
        assert [w["steps"] for w in profile["windows"]] == [4, 4, 2]
        assert [w["first_step"] for w in profile["windows"]] == [0, 4, 8]

    def test_imbalance_bounded_below_by_one(self, registry):
        profile = small_profile(registry)
        for w in profile["windows"]:
            assert w["imbalance"] >= 1.0
        assert profile["totals"]["imbalance"] >= 1.0

    def test_machine_reference_block(self, registry):
        profile = small_profile(registry, machine="polaris")
        ref = profile["reference"]
        assert ref["machine"] == "Polaris"
        assert ref["predicted_mflups"] > 0
        assert "predicted_hidden_fraction" in ref

    @pytest.mark.skipif(
        not fork_available(), reason="needs the POSIX fork start method"
    )
    def test_failed_window_releases_the_process_tier(
        self, registry, monkeypatch, hard_time_bound
    ):
        """A profile that raises mid-run closes its shell: no shared
        segment and no worker outlives ``run_profile`` (the parent held
        both until interpreter exit)."""

        def broken_window(*args, **kwargs):
            raise TelemetryError("injected window failure")

        monkeypatch.setattr(
            "repro.telemetry.profile.phase_stats", broken_window
        )
        with pytest.raises(TelemetryError, match="injected"):
            run_profile(
                scale=0.5, num_ranks=2, steps=4, window_steps=2,
                executor="process", bandwidth_gbs=BOUND_GBS,
            )
        assert leaked_segments() == []
        assert multiprocessing.active_children() == []

    def test_bad_config_rejected(self, registry):
        with pytest.raises(ConfigError, match="steps"):
            run_profile(scale=0.5, steps=0, bandwidth_gbs=BOUND_GBS)
        with pytest.raises(ConfigError, match="window_steps"):
            run_profile(
                scale=0.5, steps=4, window_steps=8, bandwidth_gbs=BOUND_GBS
            )
        with pytest.raises(ConfigError, match="bandwidth"):
            run_profile(
                scale=0.5, steps=4, window_steps=4, bandwidth_gbs=-1.0
            )


class TestRenderProfile:
    def test_tables_and_totals(self, registry):
        profile = small_profile(registry, machine="polaris")
        text = render_profile(profile)
        assert "per-phase attribution" in text
        assert "per-window efficiency" in text
        assert "model reference (Polaris)" in text
        assert "hidden comm" in text
        for phase in ("collide", "interior", "frontier", "exchange"):
            assert phase in text


class TestTraceEmbedding:
    def test_metadata_event_shape(self):
        ev = profile_metadata_event({"schema_version": 1})
        assert ev["ph"] == "M"
        assert ev["name"] == PROFILE_EVENT_NAME
        assert ev["args"]["profile"]["schema_version"] == 1

    def test_profile_from_events_round_trip(self):
        profile = {"schema_version": PROFILE_SCHEMA_VERSION, "x": 1}
        events = [
            {"ph": "X", "name": "step"},
            profile_metadata_event(profile),
        ]
        assert profile_from_events(events) == profile

    def test_traces_without_profile_return_none(self):
        assert profile_from_events([{"ph": "X", "name": "step"}]) is None

    def test_malformed_payload_rejected(self):
        bad = {"ph": "M", "name": PROFILE_EVENT_NAME, "args": {}}
        with pytest.raises(TelemetryError, match="payload"):
            profile_from_events([bad])

    def test_write_then_summarize_re_renders(self, registry, tmp_path):
        """Acceptance: summarize recovers the efficiency tables from
        the trace file alone."""
        tracer = Tracer()
        profile = small_profile(registry, tracer=tracer)
        path = tmp_path / "trace.json"
        write_profile_trace(tracer, profile, path)
        doc = json.loads(path.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert PROFILE_EVENT_NAME in names
        assert "step" in names
        text = summarize_trace_file(path)
        assert "per-phase attribution" in text
        assert "per-window efficiency" in text
