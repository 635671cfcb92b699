"""Nested, timestamped span tracing.

A :class:`Tracer` records *spans* — named wall-clock intervals opened with
``with tracer.span("collide", rank=r):`` — preserving nesting depth so a
trace can be rendered as a flame graph (the Chrome ``trace_event``
exporter in :mod:`repro.telemetry.export` does exactly that).

Tracing is opt-in.  The process-wide default is a :class:`NullTracer`
whose ``span`` returns a shared, do-nothing context manager, so
instrumented hot paths (the distributed solver's phase loop, the perf
simulator's pricing passes) pay only an attribute check when telemetry is
disabled.  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..core.errors import TelemetryError

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.  Spans are appended in *completion* order, so
    children always precede their parents in :attr:`Tracer.spans`."""

    name: str
    start_s: float
    duration_s: float
    depth: int
    rank: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class _SpanContext:
    """An open span; completes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "rank", "args", "_start", "_depth")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        rank: Optional[int],
        args: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.rank = rank
        self.args = args
        self._start = -1.0
        self._depth = -1

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        self._depth = len(tracer._stack)
        tracer._stack.append(self)
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        if not tracer._stack or tracer._stack[-1] is not self:
            raise TelemetryError(
                f"span {self.name!r} exited out of nesting order"
            )
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                name=self.name,
                start_s=self._start,
                duration_s=end - self._start,
                depth=self._depth,
                rank=self.rank,
                args=self.args,
            )
        )
        return False


class _NullSpanContext:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Collects nested spans against an injectable monotonic clock."""

    enabled = True

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._clock = clock
        self._stack: List[_SpanContext] = []
        self.spans: List[SpanRecord] = []

    def span(
        self, name: str, rank: Optional[int] = None, **args: Any
    ) -> _SpanContext:
        """Open a span: ``with tracer.span("collide", rank=0): ...``."""
        if not name:
            raise TelemetryError("span name must be non-empty")
        return _SpanContext(self, name, rank, args)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def depth(self) -> int:
        """Current nesting depth — where a span opened *now* would sit.

        Public accessor for executors that append externally-timed spans
        (the process executor's per-rank phase intervals) so they never
        reach into :attr:`_stack`.
        """
        return len(self._stack)

    def clear(self) -> None:
        if self._stack:
            raise TelemetryError("cannot clear a tracer with open spans")
        self.spans.clear()


class NullTracer:
    """Disabled tracer: ``span`` hands back one shared no-op context."""

    enabled = False
    spans: List[SpanRecord] = []  # always empty; never written

    def span(
        self, name: str, rank: Optional[int] = None, **args: Any
    ) -> _NullSpanContext:
        return _NULL_SPAN

    @property
    def open_spans(self) -> int:
        return 0

    def depth(self) -> int:
        return 0

    def clear(self) -> None:
        pass


#: Shared disabled tracer; the process-wide default.
NULL_TRACER = NullTracer()

_global_tracer = NULL_TRACER


def get_tracer():
    """The process-wide tracer (a :class:`NullTracer` unless one was set)."""
    return _global_tracer


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the process-wide default (None resets)."""
    global _global_tracer
    _global_tracer = NULL_TRACER if tracer is None else tracer


@contextmanager
def use_tracer(tracer) -> Iterator[Any]:
    """Temporarily install a process-wide tracer."""
    previous = _global_tracer
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
