"""Runtime-composition analysis (Fig. 7).

For the GPU with the greatest runtime, break the iteration into the
paper's four categories — stream-collide time (memory accesses),
communication events, CPU-to-GPU memcopy and GPU-to-CPU memcopy — across
the aorta piecewise scaling on each vendor's hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.errors import PerfModelError
from ..hardware.machine import Machine
from ..perf.simulate import price_run
from ..perf.trace import trace_for
from .sweep import workload_schedule

__all__ = ["CompositionPoint", "composition_series", "COMPOSITION_KEYS"]

COMPOSITION_KEYS = ("streamcollide", "communication", "h2d", "d2h")


@dataclass(frozen=True)
class CompositionPoint:
    """Runtime fractions of the slowest rank at one GPU count."""

    n_gpus: int
    fractions: Dict[str, float]

    def __post_init__(self) -> None:
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise PerfModelError(f"fractions sum to {total}, not 1")

    @property
    def comm_fraction(self) -> float:
        return self.fractions["communication"]

    @property
    def memcpy_fraction(self) -> float:
        return self.fractions["h2d"] + self.fractions["d2h"]


def composition_series(
    machine: Machine,
    workload: str = "aorta",
    app: str = "harvey",
    model: str = "",
) -> List[CompositionPoint]:
    """Per-GPU-count runtime composition for a system's native model.

    Fig. 7 uses the aorta piecewise strong scaling with each vendor's
    native programming model; pass ``model`` to override.
    """
    model_name = model or machine.native_model
    sched = workload_schedule(workload, machine)
    out: List[CompositionPoint] = []
    for point in sched.points:
        tr = trace_for(workload, app, point.size, point.n_gpus)
        rc = price_run(tr, machine, model_name, app)
        out.append(CompositionPoint(point.n_gpus, rc.composition()))
    return out
