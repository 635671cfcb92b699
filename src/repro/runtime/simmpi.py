"""An in-process simulated MPI communicator.

Real HARVEY binds one MPI rank per logical GPU.  The reproduction runs all
ranks inside one Python process but keeps message-passing semantics: data
moves between ranks only through :class:`SimComm`'s tagged send/recv
queues (copied on send, so no aliasing), and every message is logged for
the performance layer.

The communicator is deliberately strict — receiving a message that was
never sent, mismatched buffer shapes, or out-of-range ranks raise
:class:`RuntimeSimError` — because silent decomposition bugs are exactly
what the validation ladder must catch.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import RuntimeSimError
from .events import CommEvent, EventLog

__all__ = ["SimComm"]

_Key = Tuple[int, int, int]  # (src, dst, tag)


class SimComm:
    """A simulated communicator over ``num_ranks`` in-process ranks."""

    def __init__(self, num_ranks: int, debug: bool = False) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("communicator needs at least one rank")
        self.num_ranks = num_ranks
        #: when True, sends assert the static-schedule tag rule (one
        #: message per (src, dst, tag) per step) the comm checker
        #: verifies pre-flight — see :mod:`repro.lint.commcheck`
        self.debug = debug
        self._queues: Dict[_Key, Deque[np.ndarray]] = {}
        self._sent_this_step: set = set()
        self.log = EventLog()
        self.step = -1
        self._barriers = 0
        # serializes queue/log mutation against concurrent callers
        self._lock = threading.Lock()

    # -- helpers -----------------------------------------------------------
    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self.num_ranks:
            raise RuntimeSimError(
                f"{role} rank {rank} out of range [0, {self.num_ranks})"
            )

    def set_step(self, step: int) -> None:
        """Tag subsequent events with an iteration number."""
        self.step = step
        self._sent_this_step.clear()

    # -- point to point ------------------------------------------------------
    def send(self, src: int, dst: int, buf: np.ndarray, tag: int = 0) -> None:
        """Enqueue a copy of ``buf`` from ``src`` to ``dst``."""
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        if src == dst:
            raise RuntimeSimError("rank cannot send to itself")
        data = np.array(buf, copy=True)
        with self._lock:
            if self.debug:
                key = (src, dst, tag)
                if key in self._sent_this_step:
                    raise RuntimeSimError(
                        f"tag collision: rank {src} -> rank {dst} tag {tag} "
                        f"already carried a message in step {self.step}; "
                        "message identity is ambiguous (S303)"
                    )
                self._sent_this_step.add(key)
            self._queues.setdefault((src, dst, tag), deque()).append(data)
            self.log.record(
                CommEvent(src, dst, int(data.nbytes), tag, self.step)
            )

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        """Dequeue the next message from ``src`` to ``dst``."""
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        with self._lock:
            queue = self._queues.get((src, dst, tag))
            if not queue:
                raise RuntimeSimError(
                    f"recv on rank {dst} from {src} tag {tag}: "
                    "no message pending"
                )
            return queue.popleft()

    def recv_into(
        self, dst: int, src: int, out: np.ndarray, tag: int = 0
    ) -> None:
        """Receive into a preallocated buffer (shape/dtype must match)."""
        data = self.recv(dst, src, tag)
        if data.shape != out.shape or data.dtype != out.dtype:
            raise RuntimeSimError(
                f"recv_into mismatch: got {data.shape}/{data.dtype}, "
                f"expected {out.shape}/{out.dtype}"
            )
        np.copyto(out, data)

    @property
    def pending_messages(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # -- collectives --------------------------------------------------------
    def barrier(self) -> None:
        """Lockstep execution makes this a counter; kept for API fidelity."""
        self._barriers += 1

    @property
    def barriers(self) -> int:
        return self._barriers

    def allreduce(
        self,
        values: "List[float] | np.ndarray",
        op: Optional[Callable[[np.ndarray], float]] = None,
    ) -> float:
        """Reduce one contribution per rank to a single value.

        ``values`` must have exactly one entry per rank.  Default op is sum.
        """
        if len(values) != self.num_ranks:
            raise RuntimeSimError(
                f"allreduce needs {self.num_ranks} contributions, "
                f"got {len(values)}"
            )
        arr = np.asarray(values, dtype=np.float64)
        result = float(arr.sum() if op is None else op(arr))
        # n-1 messages in a naive reduce + broadcast costs 2(n-1); we log a
        # tree-style 2*log2(n) pattern which is what real MPI does.
        levels = int(np.ceil(np.log2(max(self.num_ranks, 2))))
        for lvl in range(levels):
            self.log.record(
                CommEvent(0, 0, 8 * self.num_ranks, tag=-1,
                          step=self.step, kind="allreduce")
            )
        return result

    def gather(self, contributions: List[np.ndarray], root: int = 0) -> List[np.ndarray]:
        """Gather one array per rank at the root (returned as a list)."""
        self._check_rank(root, "root")
        if len(contributions) != self.num_ranks:
            raise RuntimeSimError(
                f"gather needs {self.num_ranks} contributions"
            )
        for r, c in enumerate(contributions):
            if r != root:
                self.log.record(
                    CommEvent(r, root, int(np.asarray(c).nbytes),
                              tag=-2, step=self.step, kind="gather")
                )
        return [np.array(c, copy=True) for c in contributions]
