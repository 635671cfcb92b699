"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of metrics addressed by
dotted names (``comm.bytes_sent``, ``lbm.collide.flups``,
``perf.runs_priced``).  Instruments are created lazily on first access —
``registry.counter("comm.messages").inc()`` — so instrumentation code
never has to pre-declare what it measures.

Histograms use fixed, ascending bucket edges (Prometheus-style upper
bounds): a value ``v`` lands in the first bucket whose edge satisfies
``v <= edge``, with one overflow bucket past the last edge.

All mutation is thread-safe under the same lock discipline as
:class:`~repro.runtime.simmpi.SimComm`: each instrument serialises its
own updates and the registry serialises instrument creation, so
concurrent callers can increment shared counters without torn updates.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_EDGES",
    "get_registry",
    "set_registry",
]

#: Default histogram edges for message/payload sizes in bytes
#: (64 B .. 16 MiB, roughly one decade per bucket).
DEFAULT_BYTE_EDGES = (
    64.0,
    512.0,
    4096.0,
    32768.0,
    262144.0,
    2097152.0,
    16777216.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with ascending upper-bound edges."""

    __slots__ = ("name", "edges", "counts", "count", "total", "_lock")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise TelemetryError(f"histogram {name!r} needs bucket edges")
        edge_list = [float(e) for e in edges]
        if any(b <= a for a, b in zip(edge_list, edge_list[1:])):
            raise TelemetryError(
                f"histogram {name!r} edges must be strictly ascending"
            )
        self.name = name
        self.edges: Tuple[float, ...] = tuple(edge_list)
        #: counts[i] observes v <= edges[i]; counts[-1] is the overflow.
        self.counts: List[int] = [0] * (len(edge_list) + 1)
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        bucket = bisect_left(self.edges, value)
        with self._lock:
            self.counts[bucket] += 1
            self.count += 1
            self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """Bucket label → count, labels being the upper edges (+inf last)."""
        labels = [f"le_{e:g}" for e in self.edges] + ["le_inf"]
        return dict(zip(labels, self.counts))

    def add_counts(
        self, counts: Sequence[int], count: int, total: float
    ) -> None:
        """Bucket-wise merge of another histogram's (delta) counts.

        Used by the process executor's ack merge to fold a worker's
        histogram deltas into the parent's instrument; the edges must
        already match (enforced by the registry lookup).
        """
        if len(counts) != len(self.counts):
            raise TelemetryError(
                f"histogram {self.name!r}: cannot merge {len(counts)} "
                f"bucket(s) into {len(self.counts)}"
            )
        if count < 0 or any(c < 0 for c in counts):
            raise TelemetryError(
                f"histogram {self.name!r}: merge deltas cannot be negative"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += int(c)
            self.count += int(count)
            self.total += float(total)


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat, typed namespace of lazily created metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, *args) -> _Metric:
        if not name:
            raise TelemetryError("metric name must be non-empty")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TelemetryError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {cls.__name__}"
                    )
                return existing
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        existing = self._metrics.get(name)
        if isinstance(existing, Histogram) and edges is not None:
            if existing.edges != tuple(float(e) for e in edges):
                raise TelemetryError(
                    f"histogram {name!r} already exists with different edges"
                )
        return self._get_or_create(
            name, Histogram, DEFAULT_BYTE_EDGES if edges is None else edges
        )

    def get(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise TelemetryError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Export-ready snapshot, grouped by instrument kind."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                out["counters"][name] = m.value
            elif isinstance(m, Gauge):
                out["gauges"][name] = m.value
            else:
                out["histograms"][name] = {
                    "edges": list(m.edges),
                    "buckets": m.bucket_counts(),
                    "count": m.count,
                    "sum": m.total,
                    "mean": m.mean,
                }
        return out

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def merge_deltas(self, deltas: Sequence[Dict[str, object]]) -> None:
        """Fold worker-side metric deltas into this registry.

        ``deltas`` is the metric records a process-executor worker's
        ack carries: counters merge by **sum**, gauges by **last
        write**, histograms **bucket-wise** (edges must agree with any
        existing instrument of the same name).
        """
        for rec in deltas:
            kind = rec.get("kind")
            name = str(rec["name"])
            if kind == "counter":
                self.counter(name).inc(rec["delta"])  # type: ignore[arg-type]
            elif kind == "gauge":
                self.gauge(name).set(rec["value"])  # type: ignore[arg-type]
            elif kind == "histogram":
                hist = self.histogram(name, edges=rec["edges"])  # type: ignore[arg-type]
                hist.add_counts(
                    rec["counts"],  # type: ignore[arg-type]
                    rec["count"],  # type: ignore[arg-type]
                    rec["total"],  # type: ignore[arg-type]
                )
            else:
                raise TelemetryError(
                    f"unknown metric delta kind {kind!r} for {name!r}"
                )


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (always a real, writable registry)."""
    return _global_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install a process-wide registry (None installs a fresh one)."""
    global _global_registry
    _global_registry = (
        MetricsRegistry() if registry is None else registry
    )
    return _global_registry
