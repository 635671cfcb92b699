"""Microbenchmarks feeding the performance model: simulated BabelStream and
PingPong (the paper's two model inputs) plus a real host STREAM."""

from .babelstream import (
    DEFAULT_ELEMENTS,
    KERNEL_BYTES_PER_ELEMENT,
    BabelStreamResult,
    StreamKernelResult,
    run_babelstream,
)
from .collectives import AllreduceEstimate, allreduce_time
from .hoststream import HostStreamResult, run_host_stream
from .pingpong import (
    PingPongResult,
    PingPongSample,
    latency_matrix,
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
    "latency_matrix",
    "AllreduceEstimate",
    "allreduce_time",
    "HostStreamResult",
    "run_host_stream",
]
