"""The machine the functional runtime actually executes on.

The simulated :class:`~repro.hardware.machine.Machine` catalogue prices
runs on the paper's four systems; this module describes the *host* those
functional runs really use — a stable fingerprint for the ``meta``
provenance block of ladder results and campaign cells (so a reader can
tell which host a number was taken on) and a measured memory-bandwidth
bound for the profiler's architectural-efficiency denominator (the
host-side analogue of the paper's BabelStream-measured ``B_mem`` in
Eq. 1).
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional

from ..core.errors import HardwareError

__all__ = ["host_fingerprint", "host_bandwidth_gbs"]


def host_fingerprint() -> Dict[str, object]:
    """A stable identity for the executing host.

    Intentionally excludes anything volatile (load, frequency scaling,
    container id) so records from repeated runs on the same machine
    compare equal.
    """
    import numpy as np

    return {
        "hostname": platform.node() or "unknown",
        "machine": platform.machine() or "unknown",
        "system": platform.system() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def host_bandwidth_gbs(
    elements: Optional[int] = None, ntimes: int = 5
) -> float:
    """Best measured host memory bandwidth in GB/s.

    Runs the wall-clock host STREAM (:mod:`repro.microbench.hoststream`)
    and returns the fastest kernel — the most generous bound, so
    efficiencies computed against it are conservative.  ``elements``
    sizes the arrays; pass a value near the working set of the code
    being profiled so cache behaviour is comparable.
    """
    from ..microbench.hoststream import run_host_stream

    if elements is not None and elements <= 0:
        raise HardwareError("elements must be positive")
    result = run_host_stream(
        elements=elements if elements is not None else 1 << 22,
        ntimes=ntimes,
    )
    return max(result.bandwidth_gbs.values())
