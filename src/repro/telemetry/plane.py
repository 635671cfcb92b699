"""Cross-process telemetry for the process-executor tier.

Under ``executor="process"`` ranks are forked workers, which makes the
in-process observability stack blind to them: spans a worker records and
counters it increments live in the worker's copy-on-write memory and die
with the fork.  This module carries telemetry *back* across the process
boundary so a process-executor run is observationally identical to an
in-process one.  Three channels:

* **The ack** — each worker runs a :class:`WorkerAgent` that captures
  its phase spans (when the parent traces) and its metric *deltas*
  against the fork-time registry snapshot.  :meth:`WorkerAgent.records`
  rides the one ack per dispatch the worker sends anyway, and the parent
  folds it in with :func:`merge_records`: spans land on the controlling
  tracer tagged with the worker's real ``pid``/``tid``; deltas merge into
  the parent registry — **sum** for counters, **last write** for gauges,
  **bucket-wise add** for histograms.  The ack needs no shared memory,
  so it works whether or not the plane below is on.
* **Heartbeat board** — a per-rank row of epoch-bracketed scalars
  (monotonic sequence, step, phase ordinal, timestamp, pid, state)
  published by workers at phase entry/exit.  The parent's
  :meth:`TelemetryPlane.check_stalls` watchdog turns a silent hang into
  a rank-attributed :class:`~repro.core.errors.StallError`.
* **Flight recorder** — an always-on, bounded, overwrite-on-full ring
  of the last N phase/error events per rank, one JSON frame
  (:func:`encode_records` / :func:`decode_frame`) per slot.  It never
  blocks and never fills, so it survives worker death and records right
  up to the crash.

The last two are the :class:`TelemetryPlane`: what must stay readable
when no ack comes because a worker died or hangs.  Both are allocated
from the solver's own :class:`~repro.runtime.shmem.SegmentRegistry`
before the fork so workers inherit the mappings, and
:meth:`TelemetryPlane.postmortem_bundle` snapshots them (rank states,
last heartbeats, flight-recorder tails and a ``leaked_segments()``
audit) into a JSON document that ``repro telemetry postmortem`` renders.

Timestamps are comparable across processes because ``perf_counter`` is
the system-wide ``CLOCK_MONOTONIC`` on Linux — the same property the
process executor already relies on for its phase timings.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import StallError, TelemetryError
from ..runtime.shmem import SegmentRegistry, leaked_segments
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
    "merge_records",
    "TelemetryPlane",
    "POSTMORTEM_SCHEMA_VERSION",
    "load_postmortem",
    "render_postmortem",
]

#: Environment switch: set to ``off``/``0``/``false`` to run the process
#: executor without the plane (no heartbeats, watchdog or flight
#: recorder; spans and metrics still ride the acks).
PLANE_ENV = "REPRO_TELEMETRY_PLANE"

#: default float64 items per frame (first item is the byte length).
DEFAULT_FRAME_ITEMS = 2048

#: flight-recorder events retained per rank.
DEFAULT_FLIGHT_SLOTS = 64

#: payload bytes per flight-recorder event slot.
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
# A frame is a float64 slab whose first 8 bytes alias an int64 payload
# length, followed by that many bytes of UTF-8 JSON (an array of record
# objects).  Same-dtype numpy copies are memcpy, so the byte patterns
# survive a float64 shared-memory slot untouched.

#: compact JSON, one shared encoder (``json.dumps`` with non-default
#: options builds a new encoder on every call)
_to_json = json.JSONEncoder(separators=(",", ":"), default=str).encode


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
        blob = _to_json(rec).encode("utf-8")
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
    buf = bytearray(items * 8)
    buf[:8] = len(payload).to_bytes(8, sys.byteorder)
    buf[8 : 8 + len(payload)] = payload
    return np.frombuffer(buf, dtype=np.float64)


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

    Each slot holds one event as a one-record frame of the codec above,
    bracketed by pre/post sequence words.  The writer never waits — when
    the ring is full the oldest event is overwritten — so the recorder
    keeps working right through a crash and the parent can read the tail
    of a dead worker's last moments.
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
        #: float64 items per slot: the length word, then the payload
        self.items = slot_bytes // 8 + 1
        self._count = registry.ndarray(
            "plane.flight.count", (num_ranks,), np.int64
        )
        self._pre = registry.ndarray(
            "plane.flight.pre", (num_ranks, slots), np.int64
        )
        self._post = registry.ndarray(
            "plane.flight.post", (num_ranks, slots), np.int64
        )
        self._data = registry.ndarray(
            "plane.flight.data", (num_ranks, slots, self.items)
        )

    def record(self, rank: int, event: Dict[str, Any]) -> None:
        frames, _ = encode_records([event], self.items)
        if not frames:  # too large for a slot: keep kind and name
            short = {
                "ev": event.get("ev", "event"),
                "name": str(event.get("name", ""))[:48],
                "trunc": True,
            }
            frames, _ = encode_records([short], self.items)
        if not frames:  # even that is too large: mark the slot only
            frames, _ = encode_records([{"trunc": True}], self.items)
        count = int(self._count[rank])
        seq = count + 1
        pos = count % self.slots
        self._pre[rank, pos] = seq
        self._data[rank, pos] = frames[0]
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
            if (
                int(self._pre[rank, pos]) != seq
                or int(self._post[rank, pos]) != seq
            ):
                skipped += 1
                continue
            try:
                events.extend(decode_frame(self._data[rank, pos]))
            except TelemetryError:
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

    Created *inside* the worker.  Owns a private :class:`Tracer` when
    ``trace`` (the parent traces), snapshots the worker's inherited
    metrics registry to compute deltas, and — with a ``plane`` attached
    — publishes heartbeats and feeds the flight recorder at every phase
    bracket.  The worker loop sends :meth:`records` on its ack at the
    end of each dispatch.
    """

    def __init__(
        self,
        rank: int,
        plane: Optional["TelemetryPlane"] = None,
        trace: bool = False,
    ) -> None:
        self.plane = plane
        self.rank = rank
        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.registry: MetricsRegistry = get_registry()
        self._base = self.registry.as_dict()
        self._seq = 0
        self._phase_ordinal = 0
        self._step = -1
        self._open_span: Optional[Any] = None

    # -- phase brackets --------------------------------------------------
    def _beat(self, state: float) -> None:
        self._seq += 1
        self.plane.heartbeats.publish(
            self.rank,
            self._seq,
            self._step,
            self._phase_ordinal,
            state,
            pid=self.pid,
        )

    def _event(self, ev: str, name: str, **extra: Any) -> None:
        self.plane.flight.record(
            self.rank,
            {
                "ev": ev,
                "name": name,
                "step": self._step,
                **extra,
                "t": time.perf_counter(),
            },
        )

    def begin_phase(
        self, name: str, ctx: Optional[Dict[str, Any]] = None
    ) -> None:
        if ctx is not None and "step" in ctx:
            try:
                self._step = int(ctx["step"])
            except (TypeError, ValueError):
                pass
        self._phase_ordinal += 1
        if self.plane is not None:
            self._beat(HB_IN_PHASE)
            self._event("phase_begin", name)
        if self.tracer is not None:
            self._open_span = self.tracer.span(name, rank=self.rank)
            self._open_span.__enter__()

    def end_phase(self, name: str) -> None:
        if self._open_span is not None:
            self._open_span.__exit__(None, None, None)
            self._open_span = None
        if self.plane is not None:
            self._event("phase_end", name)
            self._beat(HB_IDLE)

    def record_error(self, name: str, exc: BaseException) -> None:
        """Mark a phase failure: close its span; with a plane, a flight
        event and an error heartbeat."""
        if self._open_span is not None:
            try:
                self._open_span.__exit__(None, None, None)
            except Exception:
                pass
            self._open_span = None
        if self.plane is not None:
            self._event(
                "error", name, exc=f"{type(exc).__name__}: {exc}"[:160]
            )
            self._beat(HB_ERROR)

    # -- ack payload -----------------------------------------------------
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

    def records(self) -> List[Dict[str, Any]]:
        """Span and metric records accumulated since the last call: the
        telemetry payload of the worker's next ack."""
        return self._span_records() + self._metric_records()


# -- parent side ---------------------------------------------------------


def merge_records(records: Iterable[Dict[str, Any]], tracer: Any) -> None:
    """Fold one ack's worker records into the parent process.

    Spans land on ``tracer`` (when it is enabled) with the worker's real
    ``pid``/``tid`` and ``origin: worker`` in their args; metric deltas
    merge into the process-wide registry.
    """
    deltas = []
    for rec in records:
        kind = rec.get("k")
        if kind == "metric":
            deltas.append(rec)
        elif kind == "span" and tracer.enabled:
            args = dict(rec.get("a") or {})
            args["pid"] = int(rec["pid"])
            args["tid"] = int(rec["tid"])
            args["origin"] = "worker"
            tracer.spans.append(
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
    if deltas:
        get_registry().merge_deltas(deltas)


class TelemetryPlane:
    """Parent-side owner of the shared-memory telemetry channels: the
    heartbeat board and the flight recorder, plus the stall watchdog and
    the postmortem bundle that read them.

    Built by the distributed solver (or a test harness) *before* the
    process executor forks, from the same :class:`SegmentRegistry` that
    owns the solver's field segments — workers inherit every mapping and
    the registry's creator-pid guard keeps cleanup in the parent.
    """

    def __init__(
        self,
        registry: SegmentRegistry,
        num_ranks: int,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
        postmortem_out: Optional[str] = None,
    ) -> None:
        if num_ranks < 1:
            raise TelemetryError("telemetry plane needs at least one rank")
        if stall_timeout_s <= 0:
            raise TelemetryError("stall timeout must be positive")
        self.num_ranks = num_ranks
        self.stall_timeout_s = float(stall_timeout_s)
        self.postmortem_out = postmortem_out
        self.heartbeats = HeartbeatBoard(registry, num_ranks)
        self.flight = FlightRecorder(registry, num_ranks)
        self._created_ts = time.perf_counter()

    # -- accessors -------------------------------------------------------
    def heartbeat(self, rank: int) -> Dict[str, Any]:
        return self.heartbeats.read(rank)

    def flight_tail(self, rank: int) -> Dict[str, Any]:
        return self.flight.tail(rank)

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
            entry: Dict[str, Any] = {
                "rank": rank,
                "heartbeat": self.heartbeats.read(rank),
                "flight": self.flight.tail(rank),
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
            "ranks": ranks,
            "metrics": get_registry().as_dict(),
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
        "Flight", "Evicted",
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
