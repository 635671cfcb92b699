"""Telemetry: span tracing, a metrics registry, and trace exporters.

The instrumentation substrate behind every performance claim the repo
makes: the runtime's phase loop, the apps' step loops, the simulated MPI
layer, and the perf simulator all emit spans/metrics through this package
(disabled by default, zero-overhead no-op when off).  See
``repro telemetry summarize`` for the Fig.-7-style composition view of a
captured trace.
"""

from .export import (
    chrome_trace,
    load_chrome_trace,
    metrics_csv,
    spans_from_chrome,
    write_chrome_trace,
    write_metrics,
)
from .hooks import Telemetry, attach_comm_metrics
from .metrics import (
    Counter,
    DEFAULT_BYTE_EDGES,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .spans import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
# summary's re-exports are lazy: it pulls in the analysis/perf/models
# stack, which imports the solvers, which import the runtime — whose
# executor imports this package.  Deferring keeps `import repro.runtime`
# (or any other package in that cycle) valid as an entry module.
_SUMMARY_EXPORTS = (
    "CATEGORIES",
    "PhaseStats",
    "categorize",
    "phase_stats",
    "render_composition",
    "render_imbalance",
    "render_overlap",
    "summarize_trace_file",
)

# profile's exports are lazy for the same reason: it joins the solver,
# hardware, and perfmodel stacks.
_PROFILE_EXPORTS = (
    "PROFILE_EVENT_NAME",
    "PROFILE_SCHEMA_VERSION",
    "profile_from_events",
    "profile_metadata_event",
    "render_profile",
    "run_profile",
    "write_profile_trace",
)

# plane's exports are lazy too: it sits on repro.runtime.shmem, and the
# runtime's executors import this package.
_PLANE_EXPORTS = (
    "HeartbeatBoard",
    "TelemetryPlane",
    "WorkerAgent",
    "load_postmortem",
    "plane_enabled",
    "render_postmortem",
)


def __getattr__(name):
    if name in _SUMMARY_EXPORTS:
        from . import summary

        return getattr(summary, name)
    if name in _PROFILE_EXPORTS:
        from . import profile

        return getattr(profile, name)
    if name in _PLANE_EXPORTS:
        from . import plane

        return getattr(plane, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_EDGES",
    "get_registry",
    "set_registry",
    "chrome_trace",
    "write_chrome_trace",
    "spans_from_chrome",
    "load_chrome_trace",
    "metrics_csv",
    "write_metrics",
    "Telemetry",
    "attach_comm_metrics",
    "CATEGORIES",
    "categorize",
    "PhaseStats",
    "phase_stats",
    "render_composition",
    "render_overlap",
    "render_imbalance",
    "summarize_trace_file",
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_EVENT_NAME",
    "run_profile",
    "render_profile",
    "profile_metadata_event",
    "profile_from_events",
    "write_profile_trace",
    "TelemetryPlane",
    "WorkerAgent",
    "HeartbeatBoard",
    "plane_enabled",
    "load_postmortem",
    "render_postmortem",
]
