"""Microbenchmarks feeding the performance model: simulated BabelStream and
PingPong (the paper's two model inputs, Section 6) plus a real host
STREAM for the profiler's Eq. 1 bound."""

from .babelstream import (
    DEFAULT_ELEMENTS,
    KERNEL_BYTES_PER_ELEMENT,
    BabelStreamResult,
    StreamKernelResult,
    run_babelstream,
)
from .hoststream import HostStreamResult, run_host_stream
from .pingpong import (
    PingPongResult,
    PingPongSample,
    message_time,
    run_pingpong,
)

__all__ = [
    "BabelStreamResult",
    "StreamKernelResult",
    "run_babelstream",
    "KERNEL_BYTES_PER_ELEMENT",
    "DEFAULT_ELEMENTS",
    "PingPongResult",
    "PingPongSample",
    "run_pingpong",
    "message_time",
    "HostStreamResult",
    "run_host_stream",
]
