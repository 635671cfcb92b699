"""Cross-process telemetry plane for the process-executor tier.

The process executor (PR 9) made ranks real forked processes — and made
the in-process observability stack blind to them: spans a worker records
and counters it increments live in the worker's copy-on-write memory and
die with the fork.  This module carries telemetry *back* across the
process boundary so a process-executor run is observationally identical
to an in-process one.

Four shared-memory channels per solver, all allocated from the solver's
own :class:`~repro.runtime.shmem.SegmentRegistry` before the fork so
workers inherit the mappings:

* **Telemetry rings** — one epoch-bracketed
  :class:`~repro.runtime.shmem.RingBuffer` per rank.  The worker-side
  :class:`WorkerAgent` batches completed span records and metric
  *deltas* into JSON frames (length-prefixed inside a fixed float64
  slab) and pushes them once per dispatch, before the ack (one registry
  diff and one encode per iteration when the executor runs a whole step
  rank-resident); the parent drains while it waits for the acks and on
  shutdown, appending spans to
  the controlling tracer (tagged with the worker's real ``pid``/``tid``)
  and folding metric deltas into the parent registry — **sum** for
  counters, **last write** for gauges, **bucket-wise add** for
  histograms.
* **Heartbeat board** — a per-rank row of epoch-bracketed scalars
  (monotonic sequence, step, phase ordinal, timestamp, pid, state)
  published by workers at phase entry/exit.  The parent's
  :meth:`TelemetryPlane.check_stalls` watchdog turns a silent hang into
  a rank-attributed :class:`~repro.core.errors.StallError`.
* **Flight recorder** — an always-on, bounded, overwrite-on-full ring
  of the last N phase/span/error events per rank.  It never blocks and
  never fills, so it survives worker death and records right up to the
  crash.
* **Postmortem bundles** — :meth:`TelemetryPlane.postmortem_bundle`
  snapshots rank states, last heartbeats, flight-recorder tails, ring
  high-water marks, and a ``leaked_segments()`` audit into a JSON
  document; ``repro telemetry postmortem`` renders it.

Timestamps are comparable across the plane because ``perf_counter`` is
the system-wide ``CLOCK_MONOTONIC`` on Linux — the same property the
process executor already relies on for its phase timings.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import StallError, TelemetryError
from ..runtime.shmem import RingBuffer, SegmentRegistry, leaked_segments
from .metrics import MetricsRegistry, get_registry
from .spans import SpanRecord, Tracer

__all__ = [
    "PLANE_ENV",
    "plane_enabled",
    "encode_records",
    "decode_frame",
    "HeartbeatBoard",
    "FlightRecorder",
    "WorkerAgent",
    "TelemetryPlane",
    "POSTMORTEM_SCHEMA_VERSION",
    "load_postmortem",
    "render_postmortem",
]

#: Environment switch: set to ``off``/``0``/``false`` to run the process
#: executor without the plane (the dormant-overhead baseline).
PLANE_ENV = "REPRO_TELEMETRY_PLANE"

#: float64 items per telemetry-ring slot (first item is the byte length).
DEFAULT_FRAME_ITEMS = 2048

#: slots per telemetry ring before producer backpressure.
DEFAULT_RING_CAPACITY = 8

#: flight-recorder events retained per rank.
DEFAULT_FLIGHT_SLOTS = 64

#: bytes per flight-recorder event slot.
DEFAULT_FLIGHT_SLOT_BYTES = 256

#: heartbeat age (seconds) past which a pending rank counts as stalled.
DEFAULT_STALL_TIMEOUT_S = 60.0

POSTMORTEM_SCHEMA_VERSION = 1


def plane_enabled() -> bool:
    """True unless ``REPRO_TELEMETRY_PLANE`` disables the plane."""
    return os.environ.get(PLANE_ENV, "").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
        "none",
    )


# -- frame codec ---------------------------------------------------------
#
# A frame is one ring slot: a float64 slab whose first 8 bytes alias an
# int64 payload length, followed by that many bytes of UTF-8 JSON (an
# array of record objects).  Same-dtype numpy copies are memcpy, so the
# byte patterns survive the RingBuffer's float64 slots untouched.


def encode_records(
    records: Iterable[Dict[str, Any]], items: int = DEFAULT_FRAME_ITEMS
) -> Tuple[List[np.ndarray], int]:
    """Greedily pack ``records`` into frames.

    Returns ``(frames, dropped)`` — records too large for an empty frame
    are dropped (telemetry must never kill the run), counted in
    ``dropped``.
    """
    limit = (items - 1) * 8
    frames: List[np.ndarray] = []
    batch: List[bytes] = []
    size = 2  # the surrounding "[]"
    dropped = 0
    for rec in records:
        blob = json.dumps(rec, separators=(",", ":"), default=str).encode(
            "utf-8"
        )
        extra = len(blob) + (1 if batch else 0)
        if batch and size + extra > limit:
            frames.append(_pack_frame(batch, items))
            batch, size = [], 2
            extra = len(blob)
        if size + extra > limit:
            dropped += 1
            continue
        batch.append(blob)
        size += extra
    if batch:
        frames.append(_pack_frame(batch, items))
    return frames, dropped


def _pack_frame(batch: List[bytes], items: int) -> np.ndarray:
    payload = b"[" + b",".join(batch) + b"]"
    arr = np.zeros(items, dtype=np.float64)
    arr[:1].view(np.int64)[0] = len(payload)
    raw = arr.view(np.uint8)
    raw[8 : 8 + len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return arr


def decode_frame(frame: np.ndarray) -> List[Dict[str, Any]]:
    """Decode one frame back into its record list."""
    arr = np.ascontiguousarray(frame, dtype=np.float64).reshape(-1)
    n = int(arr[:1].view(np.int64)[0])
    if n < 2 or n > (arr.size - 1) * 8:
        raise TelemetryError(
            f"telemetry frame has implausible payload length {n}"
        )
    raw = arr.view(np.uint8)[8 : 8 + n]
    try:
        records = json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"corrupt telemetry frame: {exc}") from exc
    if not isinstance(records, list):
        raise TelemetryError("telemetry frame payload is not a record list")
    return records


# -- heartbeat board -----------------------------------------------------

# heartbeat row columns (float64; small integers are exact)
_HB_PRE = 0
_HB_SEQ = 1
_HB_STEP = 2
_HB_PHASE = 3
_HB_TS = 4
_HB_PID = 5
_HB_STATE = 6
_HB_POST = 7
_HB_COLS = 8

#: heartbeat ``state`` values.
HB_IDLE = 0.0
HB_IN_PHASE = 1.0
HB_ERROR = 2.0

_HB_STATE_NAMES = {0: "idle", 1: "in_phase", 2: "error"}


class HeartbeatBoard:
    """Per-rank epoch-bracketed progress rows over one shared segment.

    Workers publish (seq, step, phase ordinal, timestamp, pid, state)
    with the sequence written before and after the payload, so the
    parent detects a torn row instead of consuming half an update.
    """

    def __init__(self, registry: SegmentRegistry, num_ranks: int) -> None:
        self.num_ranks = num_ranks
        self._rows = registry.ndarray(
            "plane.heartbeat", (num_ranks, _HB_COLS)
        )

    def publish(
        self,
        rank: int,
        seq: int,
        step: int,
        phase_ordinal: int,
        state: float,
        pid: Optional[int] = None,
        ts: Optional[float] = None,
    ) -> None:
        row = self._rows[rank]
        row[_HB_PRE] = seq
        row[_HB_SEQ] = seq
        row[_HB_STEP] = step
        row[_HB_PHASE] = phase_ordinal
        row[_HB_TS] = time.perf_counter() if ts is None else ts
        row[_HB_PID] = os.getpid() if pid is None else pid
        row[_HB_STATE] = state
        row[_HB_POST] = seq

    def read(self, rank: int) -> Dict[str, Any]:
        row = self._rows[rank]
        pre, post = int(row[_HB_PRE]), int(row[_HB_POST])
        state = int(row[_HB_STATE])
        return {
            "seq": int(row[_HB_SEQ]),
            "step": int(row[_HB_STEP]),
            "phase_ordinal": int(row[_HB_PHASE]),
            "ts": float(row[_HB_TS]),
            "pid": int(row[_HB_PID]),
            "state": _HB_STATE_NAMES.get(state, str(state)),
            "torn": pre != post,
        }


# -- flight recorder -----------------------------------------------------


class FlightRecorder:
    """Always-on bounded event ring per rank; overwrites, never blocks.

    Each slot holds one JSON event bracketed by pre/post sequence words.
    The writer never waits — when the ring is full the oldest event is
    overwritten — so the recorder keeps working right through a crash
    and the parent can read the tail of a dead worker's last moments.
    """

    def __init__(
        self,
        registry: SegmentRegistry,
        num_ranks: int,
        slots: int = DEFAULT_FLIGHT_SLOTS,
        slot_bytes: int = DEFAULT_FLIGHT_SLOT_BYTES,
    ) -> None:
        if slots < 1 or slot_bytes < 32:
            raise TelemetryError(
                "flight recorder needs >=1 slot of >=32 bytes"
            )
        self.num_ranks = num_ranks
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._count = registry.ndarray(
            "plane.flight.count", (num_ranks,), np.int64
        )
        self._pre = registry.ndarray(
            "plane.flight.pre", (num_ranks, slots), np.int64
        )
        self._post = registry.ndarray(
            "plane.flight.post", (num_ranks, slots), np.int64
        )
        self._len = registry.ndarray(
            "plane.flight.len", (num_ranks, slots), np.int64
        )
        self._data = registry.ndarray(
            "plane.flight.data", (num_ranks, slots, slot_bytes), np.uint8
        )

    def record(self, rank: int, event: Dict[str, Any]) -> None:
        blob = json.dumps(event, separators=(",", ":"), default=str).encode(
            "utf-8"
        )
        if len(blob) > self.slot_bytes:
            fallback = {
                "ev": event.get("ev", "event"),
                "name": str(event.get("name", ""))[:48],
                "trunc": True,
            }
            blob = json.dumps(fallback, separators=(",", ":")).encode()
            blob = blob[: self.slot_bytes]
        count = int(self._count[rank])
        seq = count + 1
        pos = count % self.slots
        self._pre[rank, pos] = seq
        self._len[rank, pos] = len(blob)
        self._data[rank, pos, : len(blob)] = np.frombuffer(
            blob, dtype=np.uint8
        )
        self._post[rank, pos] = seq
        self._count[rank] = seq

    def tail(self, rank: int) -> Dict[str, Any]:
        """Readable events for ``rank`` (oldest first) plus eviction info.

        Slots that are torn (a writer died mid-record, or was overwriting
        while we read) are skipped, not errors — this path runs during
        postmortems.
        """
        count = int(self._count[rank])
        start = max(0, count - self.slots)
        events: List[Dict[str, Any]] = []
        skipped = 0
        for seq0 in range(start, count):
            pos = seq0 % self.slots
            seq = seq0 + 1
            n = int(self._len[rank, pos])
            if (
                int(self._pre[rank, pos]) != seq
                or int(self._post[rank, pos]) != seq
                or not 0 < n <= self.slot_bytes
            ):
                skipped += 1
                continue
            try:
                events.append(
                    json.loads(self._data[rank, pos, :n].tobytes().decode())
                )
            except (UnicodeDecodeError, json.JSONDecodeError):
                skipped += 1
        return {
            "events": events,
            "recorded": count,
            "evicted": start,
            "skipped": skipped,
        }


# -- worker side ---------------------------------------------------------


class WorkerAgent:
    """Worker-resident telemetry capture for one forked rank.

    Created *inside* the worker (the plane object itself is inherited
    through the fork).  Owns a private :class:`Tracer` when the parent
    traces, snapshots the worker's inherited metrics registry to compute
    deltas, publishes heartbeats and feeds the flight recorder at every
    phase bracket, and — when the worker loop calls :meth:`flush` at the
    end of a dispatch, before the ack — pushes the span/metric records
    accumulated since the last flush into the rank's telemetry ring.
    """

    #: producer-side push timeout; a parent that stopped draining makes
    #: the worker drop telemetry, never deadlock the simulation.
    PUSH_TIMEOUT_S = 5.0

    def __init__(self, plane: "TelemetryPlane", rank: int) -> None:
        self.plane = plane
        self.rank = rank
        self.pid = os.getpid()
        try:
            self.tid = threading.get_native_id()
        except AttributeError:  # pragma: no cover - py<3.8 fallback
            self.tid = self.pid
        self.tracer: Optional[Tracer] = (
            Tracer() if plane.trace_enabled else None
        )
        self.registry: MetricsRegistry = get_registry()
        self._base = self.registry.as_dict()
        self._seq = 0
        self._phase_ordinal = 0
        self._step = -1
        self._open_span: Optional[Any] = None
        self.dropped_records = 0

    # -- phase brackets --------------------------------------------------
    def begin_phase(
        self, name: str, ctx: Optional[Dict[str, Any]] = None
    ) -> None:
        if ctx is not None and "step" in ctx:
            try:
                self._step = int(ctx["step"])
            except (TypeError, ValueError):
                pass
        self._seq += 1
        self._phase_ordinal += 1
        self.plane.heartbeats.publish(
            self.rank,
            self._seq,
            self._step,
            self._phase_ordinal,
            HB_IN_PHASE,
            pid=self.pid,
        )
        self.plane.flight.record(
            self.rank,
            {
                "ev": "phase_begin",
                "name": name,
                "step": self._step,
                "t": time.perf_counter(),
            },
        )
        if self.tracer is not None:
            self._open_span = self.tracer.span(name, rank=self.rank)
            self._open_span.__enter__()

    def end_phase(self, name: str) -> None:
        if self._open_span is not None:
            self._open_span.__exit__(None, None, None)
            self._open_span = None
        self.plane.flight.record(
            self.rank,
            {
                "ev": "phase_end",
                "name": name,
                "step": self._step,
                "t": time.perf_counter(),
            },
        )
        self._seq += 1
        self.plane.heartbeats.publish(
            self.rank,
            self._seq,
            self._step,
            self._phase_ordinal,
            HB_IDLE,
            pid=self.pid,
        )

    def record_error(self, name: str, exc: BaseException) -> None:
        """Mark a phase failure: flight event, error heartbeat, flush."""
        if self._open_span is not None:
            try:
                self._open_span.__exit__(None, None, None)
            except Exception:
                pass
            self._open_span = None
        self.plane.flight.record(
            self.rank,
            {
                "ev": "error",
                "name": name,
                "step": self._step,
                "exc": f"{type(exc).__name__}: {exc}"[:160],
                "t": time.perf_counter(),
            },
        )
        try:
            self.flush()
        except Exception:
            pass
        self._seq += 1
        self.plane.heartbeats.publish(
            self.rank,
            self._seq,
            self._step,
            self._phase_ordinal,
            HB_ERROR,
            pid=self.pid,
        )

    # -- flush -----------------------------------------------------------
    def _span_records(self) -> List[Dict[str, Any]]:
        if self.tracer is None or not self.tracer.spans:
            return []
        records = []
        for s in self.tracer.spans:
            args = {}
            for key, value in s.args.items():
                if isinstance(value, (str, int, float, bool)) or value is None:
                    args[key] = value
                else:
                    args[key] = repr(value)
            records.append(
                {
                    "k": "span",
                    "n": s.name,
                    "t0": s.start_s,
                    "d": s.duration_s,
                    "de": s.depth,
                    "r": s.rank if s.rank is not None else self.rank,
                    "pid": self.pid,
                    "tid": self.tid,
                    "a": args,
                }
            )
        del self.tracer.spans[:]
        return records

    def _metric_records(self) -> List[Dict[str, Any]]:
        cur = self.registry.as_dict()
        base = self._base
        records: List[Dict[str, Any]] = []
        for name, value in cur["counters"].items():
            delta = value - base["counters"].get(name, 0)
            if delta:
                records.append(
                    {"k": "metric", "kind": "counter", "name": name,
                     "delta": delta}
                )
        for name, value in cur["gauges"].items():
            if name not in base["gauges"] or base["gauges"][name] != value:
                records.append(
                    {"k": "metric", "kind": "gauge", "name": name,
                     "value": value}
                )
        for name, hist in cur["histograms"].items():
            prev = base["histograms"].get(name)
            if prev is not None and prev["buckets"] == hist["buckets"]:
                continue
            prev_buckets = (
                prev["buckets"] if prev is not None else {}
            )
            counts = [
                count - prev_buckets.get(label, 0)
                for label, count in hist["buckets"].items()
            ]
            records.append(
                {
                    "k": "metric",
                    "kind": "histogram",
                    "name": name,
                    "edges": hist["edges"],
                    "counts": counts,
                    "count": hist["count"]
                    - (prev["count"] if prev is not None else 0),
                    "total": hist["sum"]
                    - (prev["sum"] if prev is not None else 0.0),
                }
            )
        self._base = cur
        return records

    def flush(self) -> int:
        """Push pending span/metric records into this rank's ring."""
        records = self._span_records() + self._metric_records()
        if not records:
            return 0
        frames, dropped = encode_records(records, self.plane.frame_items)
        self.dropped_records += dropped
        ring = self.plane.ring(self.rank)
        pushed = 0
        for frame in frames:
            try:
                ring.push(frame, timeout=self.PUSH_TIMEOUT_S)
                pushed += 1
            except Exception:
                # a parent that stopped draining costs telemetry, not
                # the simulation
                self.dropped_records += 1
        return pushed


# -- parent side ---------------------------------------------------------


class TelemetryPlane:
    """Parent-side owner of the cross-process telemetry channels.

    Built by the distributed solver (or a test harness) *before* the
    process executor forks, from the same :class:`SegmentRegistry` that
    owns the solver's field segments — workers inherit every mapping and
    the registry's creator-pid guard keeps cleanup in the parent.
    """

    def __init__(
        self,
        registry: SegmentRegistry,
        num_ranks: int,
        tracer: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
        frame_items: int = DEFAULT_FRAME_ITEMS,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        flight_slots: int = DEFAULT_FLIGHT_SLOTS,
        flight_slot_bytes: int = DEFAULT_FLIGHT_SLOT_BYTES,
        postmortem_out: Optional[str] = None,
    ) -> None:
        if num_ranks < 1:
            raise TelemetryError("telemetry plane needs at least one rank")
        if stall_timeout_s <= 0:
            raise TelemetryError("stall timeout must be positive")
        self.num_ranks = num_ranks
        self.tracer = tracer
        self.trace_enabled = bool(getattr(tracer, "enabled", False))
        self._metrics = metrics
        self.stall_timeout_s = float(stall_timeout_s)
        self.frame_items = int(frame_items)
        self.postmortem_out = postmortem_out
        self.heartbeats = HeartbeatBoard(registry, num_ranks)
        self.flight = FlightRecorder(
            registry, num_ranks, flight_slots, flight_slot_bytes
        )
        self._rings = [
            RingBuffer(
                registry,
                f"plane.ring.{rank}",
                items=frame_items,
                capacity=ring_capacity,
            )
            for rank in range(num_ranks)
        ]
        self._scratch = np.empty(frame_items, dtype=np.float64)
        self.ring_high_water = [0] * num_ranks
        self.merged_spans = 0
        self.merged_metrics = 0
        self._created_ts = time.perf_counter()

    # -- accessors -------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else get_registry()

    def ring(self, rank: int) -> RingBuffer:
        return self._rings[rank]

    def worker_agent(self, rank: int) -> WorkerAgent:
        """Build the worker-resident capture agent (call *in* the worker)."""
        return WorkerAgent(self, rank)

    def heartbeat(self, rank: int) -> Dict[str, Any]:
        return self.heartbeats.read(rank)

    def flight_tail(self, rank: int) -> Dict[str, Any]:
        return self.flight.tail(rank)

    # -- drain / merge ---------------------------------------------------
    def drain(self) -> int:
        """Consume every published frame from every rank ring.

        Spans land on the controlling tracer with the worker's real
        ``pid``/``tid`` (and ``origin: worker``) in their args; metric
        deltas fold into the parent registry.  Returns the number of
        records merged.  Parent-side only (the rings are SPSC).
        """
        merged = 0
        for rank, ring in enumerate(self._rings):
            backlog = len(ring)
            if backlog > self.ring_high_water[rank]:
                self.ring_high_water[rank] = backlog
            while len(ring):
                ring.pop_into(self._scratch, timeout=1.0)
                merged += self._merge_records(decode_frame(self._scratch))
        return merged

    def _merge_records(self, records: List[Dict[str, Any]]) -> int:
        metric_deltas = []
        merged = 0
        for rec in records:
            kind = rec.get("k")
            if kind == "span":
                self._merge_span(rec)
                merged += 1
            elif kind == "metric":
                metric_deltas.append(rec)
                merged += 1
        if metric_deltas:
            self.metrics.merge_deltas(metric_deltas)
            self.merged_metrics += len(metric_deltas)
        return merged

    def _merge_span(self, rec: Dict[str, Any]) -> None:
        if not self.trace_enabled or self.tracer is None:
            return
        args = dict(rec.get("a") or {})
        args["pid"] = int(rec["pid"])
        args["tid"] = int(rec["tid"])
        args["origin"] = "worker"
        self.tracer.spans.append(
            SpanRecord(
                name=str(rec["n"]),
                start_s=float(rec["t0"]),
                duration_s=float(rec["d"]),
                # worker depths nest under the parent's step span
                depth=int(rec.get("de", 0)) + 1,
                rank=rec.get("r"),
                args=args,
            )
        )
        self.merged_spans += 1

    # -- stall watchdog --------------------------------------------------
    def check_stalls(
        self,
        pending: Iterable[int],
        since: Optional[float] = None,
        alive: Optional[Callable[[int], bool]] = None,
        now: Optional[float] = None,
    ) -> None:
        """Raise :class:`StallError` for a pending rank gone quiet.

        ``since`` (dispatch time) floors the age so a rank that simply
        has not been asked to work yet never counts as stalled; ``alive``
        lets the caller exempt ranks whose death is already being
        handled on the EOF path.
        """
        now = time.perf_counter() if now is None else now
        floor = self._created_ts if since is None else since
        for rank in pending:
            hb = self.heartbeats.read(rank)
            if hb["torn"]:
                continue  # actively being written — not stalled
            last = max(hb["ts"], floor)
            age = now - last
            if age <= self.stall_timeout_s:
                continue
            if alive is not None and not alive(rank):
                continue
            tail = self.flight.tail(rank)["events"][-3:]
            recent = (
                ", ".join(
                    f"{e.get('ev')}:{e.get('name')}" for e in tail
                )
                or "none"
            )
            raise StallError(
                f"rank {rank} stalled: no heartbeat for {age:.1f}s "
                f"(timeout {self.stall_timeout_s:g}s); last heartbeat "
                f"seq={hb['seq']} step={hb['step']} state={hb['state']} "
                f"pid={hb['pid']}; last flight events: {recent}"
            )

    # -- postmortem ------------------------------------------------------
    def postmortem_bundle(
        self,
        reason: str,
        rank_states: Optional[Dict[int, Dict[str, Any]]] = None,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Snapshot the plane into a JSON-ready crash/diagnostic bundle."""
        ranks = []
        for rank in range(self.num_ranks):
            ring = self._rings[rank]
            entry: Dict[str, Any] = {
                "rank": rank,
                "heartbeat": self.heartbeats.read(rank),
                "flight": self.flight.tail(rank),
                "ring_high_water": self.ring_high_water[rank],
                "ring_backlog": len(ring),
            }
            entry.update((rank_states or {}).get(rank, {}))
            ranks.append(entry)
        return {
            "schema_version": POSTMORTEM_SCHEMA_VERSION,
            "kind": "repro.postmortem",
            "reason": reason,
            "error": error,
            "created_unix_s": time.time(),
            "num_ranks": self.num_ranks,
            "stall_timeout_s": self.stall_timeout_s,
            "merged_spans": self.merged_spans,
            "merged_metrics": self.merged_metrics,
            "ranks": ranks,
            "metrics": self.metrics.as_dict(),
            "leaked_segments": leaked_segments(os.getpid()),
        }

    def save_bundle(
        self, bundle: Dict[str, Any], path: Optional[str] = None
    ) -> Optional[str]:
        """Write ``bundle`` to ``path`` (default: ``postmortem_out``).

        Best effort: a postmortem write failure never masks the original
        failure.  Returns the path written, or None.
        """
        out = self.postmortem_out if path is None else path
        if not out:
            return None
        try:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(bundle, fh, indent=1)
        except OSError:
            return None
        return str(out)


# -- bundle rendering ----------------------------------------------------


def load_postmortem(path) -> Dict[str, Any]:
    """Load and validate a postmortem bundle written by the plane."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(
            f"cannot load postmortem bundle {path}: {exc}"
        ) from exc
    if (
        not isinstance(bundle, dict)
        or bundle.get("kind") != "repro.postmortem"
    ):
        raise TelemetryError(
            f"{path} is not a repro postmortem bundle"
        )
    return bundle


def render_postmortem(bundle: Dict[str, Any]) -> str:
    """Human-readable crash timeline for ``repro telemetry postmortem``."""
    from ..analysis.tables import render_table

    lines = [
        f"postmortem: {bundle.get('reason', 'unknown reason')}",
    ]
    if bundle.get("error"):
        lines.append(f"error: {bundle['error']}")
    headers = [
        "Rank", "State", "Pid", "Exit", "Hb seq", "Step", "Hb state",
        "Flight", "Evicted", "Ring hw",
    ]
    rows = []
    for entry in bundle.get("ranks", []):
        hb = entry.get("heartbeat", {})
        flight = entry.get("flight", {})
        rows.append(
            [
                str(entry.get("rank")),
                str(entry.get("state", "?")),
                str(hb.get("pid", "?")),
                str(entry.get("exitcode", "")),
                str(hb.get("seq", 0)),
                str(hb.get("step", -1)),
                str(hb.get("state", "?")),
                str(len(flight.get("events", []))),
                str(flight.get("evicted", 0)),
                str(entry.get("ring_high_water", 0)),
            ]
        )
    lines.append(render_table(headers, rows, "rank states at capture"))
    for entry in bundle.get("ranks", []):
        events = entry.get("flight", {}).get("events", [])
        if not events:
            continue
        lines.append(f"rank {entry.get('rank')} flight tail:")
        for ev in events[-10:]:
            step = ev.get("step", -1)
            t = ev.get("t")
            ts = f" t={t:.6f}" if isinstance(t, (int, float)) else ""
            extra = f" {ev['exc']}" if "exc" in ev else ""
            lines.append(
                f"  step {step:>4} {ev.get('ev', '?'):<12}"
                f"{ev.get('name', '')}{ts}{extra}"
            )
    leaks = bundle.get("leaked_segments", [])
    # segments still registered when the bundle was captured: expected
    # live state for an end-of-run dump, real leaks only after close()
    lines.append(
        "shared segments live at capture: "
        f"{len(leaks)}" + (f" ({', '.join(leaks)})" if leaks else "")
    )
    return "\n".join(lines)
