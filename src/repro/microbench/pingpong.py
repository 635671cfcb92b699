"""A PingPong-equivalent message-timing benchmark.

The paper adapts the Intel MPI PingPong benchmark (ref. [13]) to time
GPU-GPU and GPU-CPU transfers for all message sizes, feeding the
communication term of the performance model (Eq. 2).  We reproduce it
against the simulated machines: a message of ``n`` bytes over a link is
priced ``latency + n / bandwidth``; when a path is not GPU-aware the
message is staged through the host, adding a device-to-host and a
host-to-device leg over the CPU-GPU link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.errors import HardwareError
from ..hardware.interconnect import LinkTier
from ..hardware.machine import Machine

__all__ = ["PingPongSample", "PingPongResult", "run_pingpong", "message_time"]


@dataclass(frozen=True)
class PingPongSample:
    """One (message size, one-way time) sample."""

    nbytes: int
    time_s: float

    @property
    def bandwidth_gbs(self) -> float:
        if self.time_s == 0:
            return float("inf")
        return self.nbytes / self.time_s / 1e9


@dataclass(frozen=True)
class PingPongResult:
    """A sweep over message sizes between two ranks of a machine."""

    machine: str
    rank_a: int
    rank_b: int
    tier: str
    samples: List[PingPongSample]

    @property
    def zero_size_latency_s(self) -> float:
        """The latency floor (smallest-message time)."""
        return min(s.time_s for s in self.samples)

    @property
    def asymptotic_bandwidth_gbs(self) -> float:
        """Bandwidth at the largest message in the sweep."""
        largest = max(self.samples, key=lambda s: s.nbytes)
        return largest.bandwidth_gbs


def message_time(
    machine: Machine,
    rank_a: int,
    rank_b: int,
    num_ranks: int,
    nbytes: int,
    gpu_aware: Optional[bool] = None,
) -> float:
    """One-way time for ``nbytes`` between two ranks.

    ``gpu_aware`` overrides the machine's MPI capability (the paper had to
    disable GPU-aware MPI for HIP on Summit, staging through the host).
    Host staging adds a D2H leg at the sender and an H2D leg at the
    receiver, both over the CPU-GPU link.
    """
    if nbytes < 0:
        raise HardwareError("message size must be non-negative")
    tier, link = machine.link_between(rank_a, rank_b, num_ranks)
    t = link.message_time(nbytes)
    aware = machine.gpu_aware_mpi if gpu_aware is None else gpu_aware
    if not aware:
        cpu_gpu = machine.node.link(LinkTier.CPU_GPU)
        t += 2.0 * cpu_gpu.message_time(nbytes)
    return t


def run_pingpong(
    machine: Machine,
    rank_a: int = 0,
    rank_b: int = 1,
    num_ranks: int = 2,
    max_exponent: int = 24,
    gpu_aware: Optional[bool] = None,
) -> PingPongResult:
    """Sweep message sizes 1 B .. 2^max_exponent B between two ranks.

    Mirrors the Intel benchmark's size schedule (powers of two, plus the
    zero-byte latency probe folded into the 1-byte point).
    """
    if max_exponent < 0:
        raise HardwareError("max_exponent must be >= 0")
    tier = machine.classify_pair(rank_a, rank_b, num_ranks)
    sizes = [int(2**e) for e in range(max_exponent + 1)]
    samples = [
        PingPongSample(
            n, message_time(machine, rank_a, rank_b, num_ranks, n, gpu_aware)
        )
        for n in sizes
    ]
    return PingPongResult(machine.name, rank_a, rank_b, tier.value, samples)

