"""Exporters: Chrome ``trace_event`` JSON and flat metrics dumps.

The trace exporter emits the Trace Event Format's *complete* events
(``"ph": "X"`` with microsecond ``ts``/``dur``), loadable directly in
``chrome://tracing`` or Perfetto.  Spans recorded with a ``rank`` are
placed on per-rank tracks (``tid = rank + 1``, named via thread-name
metadata); unranked spans — step markers, app-level run spans — live on
track 0.

Worker-origin spans (sent back on the process executor's acks) carry
the worker's real ``pid``/``tid`` in their args; those events are
emitted under that actual pid (with per-pid process-name metadata), so
a process-executor trace renders as a true multi-process timeline — one
track per forked rank — instead of folding every rank into the
simulated process.  :func:`spans_from_chrome` reads the events back as
spans, so a trace file and a live tracer reduce through the same
:func:`~repro.telemetry.summary.phase_stats`.

Metrics export as JSON (the registry's :meth:`as_dict` snapshot) or as a
flat ``name,kind,value`` CSV, chosen by file extension.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import Any, Dict, Iterable, List, Union

from ..core.errors import TelemetryError
from .metrics import MetricsRegistry
from .spans import SpanRecord

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "spans_from_chrome",
    "load_chrome_trace",
    "metrics_csv",
    "write_metrics",
]

_PathLike = Union[str, pathlib.Path]

#: pid used for all emitted events (one simulated process).
TRACE_PID = 0


def _tid(rank) -> int:
    return 0 if rank is None else int(rank) + 1


def chrome_trace(tracer, process_name: str = "repro") -> Dict[str, Any]:
    """Render a tracer's completed spans as a Chrome trace document."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "control"},
        },
    ]
    ranks = sorted(
        {
            s.rank
            for s in tracer.spans
            if s.rank is not None and "pid" not in s.args
        }
    )
    for r in ranks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": _tid(r),
                "args": {"name": f"rank {r}"},
            }
        )
    # worker-origin spans (merged from the executor's acks) carry the real
    # worker pid/tid: name each worker process once so the trace renders
    # a true multi-process timeline
    worker_tracks: Dict[int, Dict[int, Any]] = {}
    for s in tracer.spans:
        pid = s.args.get("pid")
        if pid is None:
            continue
        tids = worker_tracks.setdefault(int(pid), {})
        tid = int(s.args.get("tid", 0))
        if tid not in tids:
            tids[tid] = s.rank
    for pid in sorted(worker_tracks):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{process_name} worker (pid {pid})"},
            }
        )
        for tid, rank in sorted(worker_tracks[pid].items()):
            label = f"rank {rank}" if rank is not None else f"tid {tid}"
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
    for s in sorted(tracer.spans, key=lambda s: (s.start_s, -s.duration_s)):
        args = dict(s.args)
        if s.rank is not None:
            args["rank"] = s.rank
        pid = args.get("pid")
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": round(s.start_s * 1e6, 3),
                "dur": round(s.duration_s * 1e6, 3),
                "pid": TRACE_PID if pid is None else int(pid),
                "tid": (
                    _tid(s.rank)
                    if pid is None
                    else int(args.get("tid", 0))
                ),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracer, path: _PathLike, process_name: str = "repro"
) -> pathlib.Path:
    """Write the Chrome trace JSON for ``tracer`` to ``path``."""
    out = pathlib.Path(path)
    out.write_text(json.dumps(chrome_trace(tracer, process_name), indent=1))
    return out


def spans_from_chrome(events: Iterable[Dict[str, Any]]) -> List[SpanRecord]:
    """The spans behind a trace's complete events: the inverse of
    :func:`chrome_trace` up to its microsecond rounding.  Nesting depth
    is not exported, so every span comes back at depth 0."""
    spans = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        rank = args.pop("rank", None)
        spans.append(
            SpanRecord(
                name=ev["name"],
                start_s=float(ev["ts"]) / 1e6,
                duration_s=float(ev["dur"]) / 1e6,
                depth=0,
                rank=rank,
                args=args,
            )
        )
    return spans


def load_chrome_trace(path: _PathLike) -> List[Dict[str, Any]]:
    """Load and validate a Chrome trace file, returning its event list.

    Accepts both the object form (``{"traceEvents": [...]}``) and the
    bare-array form of the Trace Event Format.
    """
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"cannot load trace {path}: {exc}") from exc
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise TelemetryError(
            f"{path} is not a Chrome trace (no traceEvents array)"
        )
    for ev in events:
        if not isinstance(ev, dict) or "ph" not in ev or "name" not in ev:
            raise TelemetryError(f"malformed trace event in {path}: {ev!r}")
        if ev["ph"] == "X" and ("ts" not in ev or "dur" not in ev):
            raise TelemetryError(
                f"complete event without ts/dur in {path}: {ev!r}"
            )
    return events


def metrics_csv(registry: MetricsRegistry) -> str:
    """Flat ``name,kind,value`` CSV; histograms expand to one row per
    bucket plus count/sum rows."""
    snapshot = registry.as_dict()
    buf = io.StringIO()
    buf.write("name,kind,value\n")
    for name, value in snapshot["counters"].items():
        buf.write(f"{name},counter,{value}\n")
    for name, value in snapshot["gauges"].items():
        buf.write(f"{name},gauge,{value}\n")
    for name, hist in snapshot["histograms"].items():
        for label, count in hist["buckets"].items():
            buf.write(f"{name}.{label},histogram_bucket,{count}\n")
        buf.write(f"{name}.count,histogram_count,{hist['count']}\n")
        buf.write(f"{name}.sum,histogram_sum,{hist['sum']}\n")
    return buf.getvalue()


def write_metrics(registry: MetricsRegistry, path: _PathLike) -> pathlib.Path:
    """Dump the registry to ``path`` (``.csv`` → CSV, otherwise JSON)."""
    out = pathlib.Path(path)
    if out.suffix.lower() == ".csv":
        out.write_text(metrics_csv(registry))
    else:
        out.write_text(json.dumps(registry.as_dict(), indent=1))
    return out
