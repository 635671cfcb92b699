"""Instrumentation adapters wiring telemetry into the stack.

Three integration points:

* the lockstep executor and distributed solver accept a tracer directly
  (per-phase, per-rank spans);
* :func:`attach_comm_metrics` subscribes to an :class:`EventLog` so every
  simulated MPI message updates comm-volume counters and a message-size
  histogram;
* :class:`Telemetry` bundles one tracer with the process-wide registry,
  attaches both to an app (HARVEY or the proxy), folds run reports into
  metrics, and writes the ``--trace-out`` / ``--metrics-out`` artefacts.
"""

from __future__ import annotations

import pathlib
from typing import Callable, List, Optional

from ..runtime.events import CommEvent, EventLog
from .export import write_chrome_trace, write_metrics
from .metrics import DEFAULT_BYTE_EDGES, MetricsRegistry, get_registry
from .spans import Tracer

__all__ = ["attach_comm_metrics", "Telemetry"]


def attach_comm_metrics(
    log: EventLog, registry: MetricsRegistry
) -> Callable[[CommEvent], None]:
    """Subscribe comm-volume instruments to an event log.

    Every recorded :class:`CommEvent` increments ``comm.messages`` and
    ``comm.bytes_sent``, the per-kind ``comm.bytes.<kind>`` counter, and
    observes the payload in the ``comm.message_bytes`` histogram.
    Returns the listener so callers can ``log.unsubscribe`` it.
    """
    messages = registry.counter("comm.messages")
    total_bytes = registry.counter("comm.bytes_sent")
    sizes = registry.histogram("comm.message_bytes", DEFAULT_BYTE_EDGES)

    def _on_event(event: CommEvent) -> None:
        messages.inc()
        total_bytes.inc(event.nbytes)
        registry.counter(f"comm.bytes.{event.kind}").inc(event.nbytes)
        sizes.observe(event.nbytes)

    log.subscribe(_on_event)
    return _on_event


class Telemetry:
    """One tracer plus the process-wide registry, wired into a run and
    written out once.

    The registry is the one the solver, the sanitizer and the process
    executor's worker acks already write, so ``--metrics-out`` holds
    their counters next to the comm volume and the run aggregates.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = get_registry()
        self._listeners: List[Callable[[CommEvent], None]] = []

    def attach_app(self, app) -> None:
        """Subscribe comm metrics to the communicator log of a
        :class:`~repro.harvey.app.HarveyApp`."""
        self._listeners.append(
            attach_comm_metrics(app.solver.comm.log, self.metrics)
        )

    def record_report(self, report) -> None:
        """Fold a run report's aggregates into the registry."""
        self.metrics.counter("lbm.steps").inc(report.steps)
        self.metrics.gauge("run.wall_seconds").set(report.wall_seconds)
        self.metrics.gauge("run.mflups").set(report.mflups)
        self.metrics.gauge("run.mass_drift").set(report.mass_drift)

    def write(
        self,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> List[pathlib.Path]:
        """Write the requested artefacts; returns the paths written."""
        written: List[pathlib.Path] = []
        if trace_out:
            written.append(write_chrome_trace(self.tracer, trace_out))
        if metrics_out:
            written.append(write_metrics(self.metrics, metrics_out))
        return written
