"""Real-MPI communicator adapter behind the SimComm surface.

:class:`MPIComm` binds the :class:`~repro.runtime.simmpi.SimComm`
surface to ``mpi4py``'s ``COMM_WORLD``: the halo-transport pair the
distributed solver's exchange phase bodies use
(``send(src, dst, buf, tag)`` / ``recv_into(dst, src, out, tag)`` — the
only two calls they make, shared with the shared-memory
:class:`~repro.runtime.shmem.RingTransport`) plus the step-loop and
observable calls (``set_step``/``allreduce``/``gather``/``barrier``/
``recv``), so the same phase code can run one-rank-per-MPI-process under
``mpiexec``.
The adapter is probed exactly like the compiled-tier providers: the
optional dependency is declared as the ``mpi`` extra (``pip install
.[mpi]``), :func:`mpi_available` answers cheaply, and constructing the
adapter without the package degrades to a clean
:class:`~repro.core.errors.BackendUnavailableError` carrying the
install hint — never an ImportError traceback.

Semantics differences from the simulated communicator, by design:

* SimComm simulates *all* ranks in one process, so its methods take
  explicit ``src``/``dst`` pairs; under MPI each process *is* one rank,
  so the adapter checks the caller-side rank argument matches
  ``COMM_WORLD.rank`` and maps the peer argument to the MPI peer.
* ``allreduce`` takes this rank's scalar contribution (SimComm's takes
  the full per-rank vector) and sums across the communicator.
* The event log records only this rank's traffic — per-rank logs are
  merged offline, the way real MPI tracing works.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..core.errors import BackendUnavailableError, RuntimeSimError
from .events import CommEvent, EventLog

__all__ = ["MPIComm", "mpi_available", "availability_report"]

_INSTALL_HINT = (
    "mpi4py is not installed; install the MPI extra with "
    "`pip install .[mpi]` (and an MPI runtime such as MPICH or "
    "Open MPI) to run ranks under mpiexec"
)


def mpi_available() -> bool:
    """True when ``mpi4py`` can be imported."""
    try:
        import mpi4py  # noqa: F401
    except ImportError:
        return False
    return True


def availability_report() -> Dict[str, Any]:
    """Probe result in the compiled-tier ``availability_report`` shape."""
    if not mpi_available():
        return {
            "available": False,
            "provider": None,
            "detail": _INSTALL_HINT,
        }
    from mpi4py import MPI

    return {
        "available": True,
        "provider": "mpi4py",
        "detail": (
            f"mpi4py over {MPI.Get_library_version().splitlines()[0]}"
        ),
    }


class MPIComm:
    """``SimComm``-surface adapter over ``mpi4py.MPI.COMM_WORLD``."""

    def __init__(self, comm: Optional[object] = None) -> None:
        try:
            from mpi4py import MPI
        except ImportError:
            raise BackendUnavailableError(_INSTALL_HINT) from None
        self._mpi = MPI
        self._comm = comm if comm is not None else MPI.COMM_WORLD
        self.num_ranks = int(self._comm.Get_size())
        self.rank = int(self._comm.Get_rank())
        self.log = EventLog()
        self._step = -1

    def _check_self(self, rank: int, role: str) -> None:
        if int(rank) != self.rank:
            raise RuntimeSimError(
                f"MPIComm on rank {self.rank} asked to {role} as rank "
                f"{rank}; under MPI each process owns exactly one rank"
            )

    # -- SimComm surface -------------------------------------------------
    def set_step(self, step: int) -> None:
        self._step = int(step)

    def send(self, src: int, dst: int, buf: np.ndarray, tag: int = 0) -> None:
        self._check_self(src, "send")
        payload = np.ascontiguousarray(buf)
        self._comm.Send(payload, dest=int(dst), tag=int(tag))
        self.log.record(
            CommEvent(
                src=self.rank,
                dst=int(dst),
                nbytes=int(payload.nbytes),
                tag=int(tag),
                step=self._step,
            )
        )

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        self._check_self(dst, "receive")
        status = self._mpi.Status()
        self._comm.Probe(source=int(src), tag=int(tag), status=status)
        count = status.Get_count(self._mpi.DOUBLE)
        out = np.empty(count, dtype=np.float64)
        self._comm.Recv(out, source=int(src), tag=int(tag))
        return out

    def recv_into(
        self, dst: int, src: int, out: np.ndarray, tag: int = 0
    ) -> np.ndarray:
        self._check_self(dst, "receive")
        self._comm.Recv(out, source=int(src), tag=int(tag))
        return out

    def allreduce(self, contribution: float) -> float:
        """Sum one scalar contribution across all ranks."""
        value = np.asarray(contribution, dtype=np.float64).sum()
        return float(self._comm.allreduce(float(value), op=self._mpi.SUM))

    def gather(self, value: object, root: int = 0) -> Optional[list]:
        return self._comm.gather(value, root=int(root))

    def barrier(self) -> None:
        self._comm.Barrier()
