"""Shared-memory substrate for the process executor tier.

Three pieces, layered:

* :class:`SegmentRegistry` — the one sanctioned allocator of
  ``multiprocessing.shared_memory`` segments.  Every segment name is
  canonical (``repro-<pid>-<token>-<label>``), every segment is tracked,
  and cleanup (``close()`` plus an atexit hook) unlinks them all from
  the *creating* process only — a forked worker inheriting the registry
  can never unlink the parent's segments, and a worker crash cannot leak
  ``/dev/shm`` entries because the parent owns them.  The W505 lint rule
  freezes this statically: nothing outside this module may construct a
  ``SharedMemory`` directly.
* :class:`RingBuffer` — a bounded single-producer/single-consumer ring
  over one segment, carrying fixed-size float64 payload slots.  Each
  slot is framed by two sequence numbers written before and after the
  payload; the consumer checks both equal the sequence it expects, so a
  torn (in-progress) write or a skipped epoch is detected rather than
  silently consumed — the transport-level analogue of the sanitizer's
  payload-freshness epochs.  A full ring blocks the producer
  (backpressure) and an empty ring blocks the consumer, both with a
  timeout that converts a lost peer into a loud error instead of a hang;
  a forked waiter whose creating (parent) process has died fails within
  about a millisecond.
* :class:`RingTransport` — per-ordered-pair rings wired from the halo
  schedule, exposing the ``send(src, dst, buf)`` / ``recv_into(dst,
  src, out)`` subset of the :class:`~repro.runtime.simmpi.SimComm`
  surface that the distributed solver's exchange phases use, so the
  process-tier phase bodies read like the in-process ones.

The process executor forks workers *after* the solver (and this
registry) is built, so workers share the segment mappings by
inheritance — no pickling, no reattach-by-name races.
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import RuntimeSimError, SanitizeError

__all__ = [
    "SegmentRegistry",
    "RingBuffer",
    "RingTransport",
    "leaked_segments",
    "SEGMENT_PREFIX",
]

#: Leading component of every canonical segment name.
SEGMENT_PREFIX = "repro"

#: Where POSIX shared memory surfaces as files (the leak check).
_SHM_DIR = "/dev/shm"


def leaked_segments(pid: Optional[int] = None) -> List[str]:
    """Names of live ``/dev/shm`` entries this package created.

    With ``pid`` the scan narrows to segments created by that process.
    Returns an empty list on platforms without ``/dev/shm``.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    needle = (
        f"{SEGMENT_PREFIX}-{pid}-" if pid is not None else f"{SEGMENT_PREFIX}-"
    )
    return sorted(e for e in entries if e.startswith(needle))


class SegmentRegistry:
    """Owns every shared-memory segment of one solver/executor instance.

    Segments are created eagerly in the controlling process; forked
    workers inherit the mappings.  ``close()`` is idempotent, runs only
    in the creating process (a pid guard — forked children share the
    registry object), and unlinks every segment so a clean exit leaves
    no ``/dev/shm`` entry.  An atexit hook makes crash paths converge on
    the same cleanup.
    """

    def __init__(self) -> None:
        self._creator_pid = os.getpid()
        self._token = secrets.token_hex(4)
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._closed = False
        atexit.register(self.close)

    # -- naming ----------------------------------------------------------
    def segment_name(self, label: str) -> str:
        """The canonical ``/dev/shm`` name for ``label``."""
        safe = "".join(
            c if c.isalnum() or c in "._" else "_" for c in str(label)
        )
        return f"{SEGMENT_PREFIX}-{self._creator_pid}-{self._token}-{safe}"

    # -- allocation ------------------------------------------------------
    def ndarray(
        self,
        label: str,
        shape: Tuple[int, ...],
        dtype: "np.typing.DTypeLike" = np.float64,
    ) -> np.ndarray:
        """Allocate a zero-filled array backed by a new shared segment."""
        if self._closed:
            raise RuntimeSimError(
                "segment registry is closed; cannot allocate"
            )
        if label in self._segments:
            raise RuntimeSimError(
                f"segment label {label!r} already allocated"
            )
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        shm = shared_memory.SharedMemory(
            create=True, name=self.segment_name(label), size=nbytes
        )
        arr: np.ndarray = np.ndarray(shape, dtype=dt, buffer=shm.buf)
        arr.fill(0)
        self._segments[label] = shm
        self._arrays[label] = arr
        return arr

    @property
    def labels(self) -> List[str]:
        return sorted(self._segments)

    @property
    def nbytes(self) -> int:
        return sum(seg.size for seg in self._segments.values())

    # -- cleanup ---------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment (creator process only; idempotent).

        NumPy views handed out by :meth:`ndarray` keep the mapping
        alive, so ``SharedMemory.close`` may refuse while exports exist;
        unlinking alone is what removes the ``/dev/shm`` entry — the
        pages themselves are reclaimed when the last mapping (parent or
        forked worker) goes away.
        """
        if self._closed or os.getpid() != self._creator_pid:
            return
        self._closed = True
        atexit.unregister(self.close)
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:
                pass  # live numpy views still export the buffer
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ring header slots (int64 each)
_H_CAPACITY = 0
_H_ITEMS = 1
_H_HEAD = 2  # next sequence number the producer will publish
_H_TAIL = 3  # next sequence number the consumer expects

#: Default wait bound; a lost peer fails loudly instead of hanging.
DEFAULT_TIMEOUT_S = 60.0

#: How often a waiting forked process checks its parent is alive.
_PARENT_CHECK_S = 1e-3


class RingBuffer:
    """Bounded SPSC ring of fixed-size float64 slabs over one segment.

    Layout: a 4-int64 header (capacity, items-per-slot, head sequence,
    tail sequence), then per-slot pre/post epoch words, then the payload
    slab.  The producer writes ``seq`` before and after the payload and
    only then publishes ``head = seq``; the consumer validates both
    epoch words against the sequence it expects, so a torn write (crash
    mid-copy, or a buggy second producer) raises
    :class:`~repro.core.errors.SanitizeError` instead of yielding a
    half-written slab.
    """

    def __init__(
        self,
        registry: SegmentRegistry,
        label: str,
        items: int,
        capacity: int = 2,
    ) -> None:
        if items < 1:
            raise RuntimeSimError("ring slots need at least one item")
        if capacity < 1:
            raise RuntimeSimError("ring capacity must be positive")
        self.label = label
        self.items = int(items)
        self.capacity = int(capacity)
        self._creator_pid = os.getpid()
        total = 4 + 2 * capacity + capacity * items
        self._mem = registry.ndarray(label, (total,), np.float64)
        # int64 aliases over the header/epoch region (same 8-byte cells)
        meta = self._mem[: 4 + 2 * capacity].view(np.int64)
        self._header = meta[:4]
        self._pre = meta[4 : 4 + capacity]
        self._post = meta[4 + capacity : 4 + 2 * capacity]
        self._slots = self._mem[4 + 2 * capacity :].reshape(
            capacity, items
        )
        self._header[_H_CAPACITY] = capacity
        self._header[_H_ITEMS] = items

    def _wait(self, ready, what: str, timeout: float) -> None:
        """Spin until ``ready()``.  In a forked process the creator is
        the parent; about once a millisecond the wait checks it is still
        alive, so a worker orphaned mid-exchange fails at once instead
        of at the timeout."""
        if ready():
            return
        forked = os.getpid() != self._creator_pid
        now = time.monotonic()
        deadline = now + timeout
        next_check = now
        while not ready():
            now = time.monotonic()
            if now > deadline:
                raise RuntimeSimError(
                    f"ring {self.label!r}: timed out after {timeout:g}s "
                    f"waiting for {what}"
                )
            if forked and now >= next_check:
                if os.getppid() != self._creator_pid:
                    raise RuntimeSimError(
                        f"ring {self.label!r}: the creating process "
                        f"{self._creator_pid} exited while waiting for "
                        f"{what}"
                    )
                next_check = now + _PARENT_CHECK_S
            time.sleep(0)

    def __len__(self) -> int:
        return int(self._header[_H_HEAD] - self._header[_H_TAIL])

    def push(
        self, data: np.ndarray, timeout: float = DEFAULT_TIMEOUT_S
    ) -> None:
        """Publish one slab; blocks while the ring is full (backpressure)."""
        flat = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        if flat.size != self.items:
            raise RuntimeSimError(
                f"ring {self.label!r}: payload has {flat.size} item(s), "
                f"slots carry {self.items}"
            )
        head = int(self._header[_H_HEAD])
        self._wait(
            lambda: head - int(self._header[_H_TAIL]) < self.capacity,
            "a free slot (consumer backpressure)",
            timeout,
        )
        pos = head % self.capacity
        seq = head + 1
        self._pre[pos] = seq
        self._slots[pos, :] = flat
        self._post[pos] = seq
        self._header[_H_HEAD] = seq

    def pop_into(
        self, out: np.ndarray, timeout: float = DEFAULT_TIMEOUT_S
    ) -> None:
        """Consume the next slab into ``out`` (same item count)."""
        view = out.reshape(-1)
        if view.size != self.items:
            raise RuntimeSimError(
                f"ring {self.label!r}: output has {view.size} item(s), "
                f"slots carry {self.items}"
            )
        tail = int(self._header[_H_TAIL])
        self._wait(
            lambda: int(self._header[_H_HEAD]) > tail,
            "a published slot",
            timeout,
        )
        pos = tail % self.capacity
        seq = tail + 1
        pre, post = int(self._pre[pos]), int(self._post[pos])
        if pre != seq or post != seq:
            raise SanitizeError(
                f"ring {self.label!r}: torn or out-of-epoch slot at "
                f"sequence {seq} (pre={pre}, post={post}); the producer "
                "crashed mid-write or the ring has a second writer"
            )
        np.copyto(view, self._slots[pos])
        self._header[_H_TAIL] = seq


class RingTransport:
    """Per-ordered-pair SPSC rings wired from the halo schedule.

    Offers the ``send``/``recv_into`` calls of
    :class:`~repro.runtime.simmpi.SimComm`, the whole surface the
    distributed solver's exchange phases use, so the same phase bodies
    run over either.  A ring carries one message stream per ordered pair,
    so ``tag`` is accepted for signature parity and not matched on.  The
    wiring (which pairs exist and their payload sizes) comes from the
    same send lists the S301-S305 schedule pre-flight verifies, so a
    message on an unwired pair is a programming error, not a dynamic
    allocation.
    """

    def __init__(
        self,
        registry: SegmentRegistry,
        pairs: Iterable[Tuple[int, int, int]],
        capacity: int = 2,
    ) -> None:
        self._rings: Dict[Tuple[int, int], RingBuffer] = {}
        for src, dst, items in pairs:
            key = (int(src), int(dst))
            if key in self._rings:
                raise RuntimeSimError(
                    f"duplicate ring wiring for pair {key}"
                )
            self._rings[key] = RingBuffer(
                registry,
                f"ring.{key[0]}.{key[1]}",
                items=items,
                capacity=capacity,
            )

    def _ring(self, src: int, dst: int) -> RingBuffer:
        try:
            return self._rings[(src, dst)]
        except KeyError:
            raise RuntimeSimError(
                f"no ring wired for pair ({src} -> {dst}); the halo "
                "schedule does not exchange on it"
            ) from None

    def send(self, src: int, dst: int, buf: np.ndarray, tag: int = 0) -> None:
        self._ring(src, dst).push(buf)

    def recv_into(
        self, dst: int, src: int, out: np.ndarray, tag: int = 0
    ) -> None:
        self._ring(src, dst).pop_into(out)

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        return sorted(self._rings)

    def payload_items(self, src: int, dst: int) -> int:
        return self._ring(src, dst).items
