"""Simulated MPI runtime: communicator, event log, and the lockstep /
process-parallel executors (plus the shared-memory transport and
real-MPI adapter the process and MPI tiers use)."""

from .events import CommEvent, EventLog
from .executor import EXECUTOR_KINDS, LockstepExecutor, make_executor
from .mpicomm import MPIComm, mpi_available
from .procexec import ProcessExecutor, fork_available
from .shmem import RingBuffer, RingTransport, SegmentRegistry
from .simmpi import SimComm

__all__ = [
    "CommEvent",
    "EventLog",
    "SimComm",
    "MPIComm",
    "mpi_available",
    "EXECUTOR_KINDS",
    "LockstepExecutor",
    "ProcessExecutor",
    "fork_available",
    "SegmentRegistry",
    "RingBuffer",
    "RingTransport",
    "make_executor",
]
