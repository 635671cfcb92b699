"""Ablation studies over the design choices DESIGN.md calls out.

Each ablation reprices the same trace with one knob flipped, isolating
that choice's contribution:

* **halo payload** — packed 5-population face exchange (production, and
  what our functional runtime ships) vs the naive all-19 exchange;
* **GPU-aware MPI** — direct device buffers vs host staging (the paper's
  forced configuration for HIP on Summit);
* **communication overlap** — the paper's serialised Eq. 2 assumption vs
  perfect compute/communication overlap;
* **occupancy model** — with vs without the latency-hiding factor (the
  ingredient behind the Sunspot section-end dips);
* **decomposition** — HARVEY's bisection balancer vs the oblivious block
  grid on the sparse aorta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.errors import PerfModelError
from ..hardware.machine import Machine
from ..perf.simulate import PricingOverrides, price_run
from ..perf.trace import RunTrace, aorta_trace

__all__ = [
    "AblationResult",
    "run_ablation",
    "decomposition_ablation",
    "ablation_study",
]


@dataclass(frozen=True)
class AblationResult:
    """MFLUPS with a knob at its baseline vs flipped setting."""

    name: str
    baseline_mflups: float
    ablated_mflups: float

    @property
    def impact(self) -> float:
        """Relative change: (ablated - baseline) / baseline."""
        return (self.ablated_mflups - self.baseline_mflups) / (
            self.baseline_mflups
        )


_ABLATIONS: Dict[str, PricingOverrides] = {
    "halo_payload_all19": PricingOverrides(halo_bytes_per_site=19 * 8),
    "host_staged_mpi": PricingOverrides(gpu_aware=False),
    "perfect_comm_overlap": PricingOverrides(comm_overlap=1.0),
    "no_occupancy_model": PricingOverrides(occupancy_enabled=False),
}


def run_ablation(
    trace: RunTrace,
    machine: Machine,
    model_name: str,
    app: str,
    which: List[str] = None,
) -> List[AblationResult]:
    """Price a scaling point under each ablation."""
    names = list(_ABLATIONS) if which is None else which
    baseline = price_run(trace, machine, model_name, app).mflups
    out: List[AblationResult] = []
    for name in names:
        if name not in _ABLATIONS:
            raise PerfModelError(
                f"unknown ablation {name!r}; available: {sorted(_ABLATIONS)}"
            )
        ablated = price_run(
            trace, machine, model_name, app, overrides=_ABLATIONS[name]
        ).mflups
        out.append(AblationResult(name, baseline, ablated))
    return out


def decomposition_ablation(
    machine: Machine,
    spacing_mm: float,
    n_gpus: int,
    model_name: str = "",
) -> AblationResult:
    """Bisection balancer vs oblivious block grid on the aorta.

    The block scheme's load imbalance inflates the slowest rank directly
    (bulk-synchronous iteration time), quantifying what HARVEY's
    balancer buys.
    """
    model = model_name or machine.native_model
    balanced = aorta_trace(spacing_mm, n_gpus, scheme="bisection")
    oblivious = aorta_trace(spacing_mm, n_gpus, scheme="grid")
    return AblationResult(
        name="block_decomposition",
        baseline_mflups=price_run(balanced, machine, model, "harvey").mflups,
        ablated_mflups=price_run(oblivious, machine, model, "harvey").mflups,
    )


def ablation_study(
    machine: Machine, spacing_mm: float, n_gpus: int
) -> List[AblationResult]:
    """Every pricing ablation of the aorta at one point on the machine's
    native model, then the decomposition ablation at ``min(n_gpus, 64)``
    GPUs."""
    trace = aorta_trace(spacing_mm, n_gpus)
    return run_ablation(trace, machine, machine.native_model, "harvey") + [
        decomposition_ablation(machine, spacing_mm, min(n_gpus, 64))
    ]
