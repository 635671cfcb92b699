"""Roofline characterisation of the LBM kernels on the paper's devices.

The roofline model bounds a kernel's throughput by
``min(peak_flops, intensity * memory_bandwidth)``.  The D3Q19
stream-collide kernel performs a few hundred flops per site while moving
~hundreds of bytes, putting its arithmetic intensity well left of every
modern GPU's ridge point — the quantitative backing for the paper's
"LBM is memory-bandwidth-bound" premise (Section 6), here made explicit
per device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.errors import PerfModelError
from ..core.lattice import D3Q19
from ..hardware.gpu import GPUSpec

__all__ = [
    "KernelCharacter",
    "RooflinePoint",
    "roofline_analysis",
    "STREAMCOLLIDE_CHARACTER",
]

#: FP64 peak throughput per logical GPU (GCD/tile granularity, matching
#: Table 1; vendor datasheets), in TFLOP/s.  Used only for roofline ridge
#: points — the performance simulator never needs flops because LBM sits
#: on the memory roof.
_PER_LOGICAL_FP64_TFLOPS: Dict[str, float] = {
    "V100": 7.8,
    "A100": 9.7,
    "MI250X": 11.975,
    "PVC": 26.0,
}


@dataclass(frozen=True)
class KernelCharacter:
    """Work and traffic per fluid-site update."""

    name: str
    flops_per_site: float
    bytes_per_site: float

    def __post_init__(self) -> None:
        if self.flops_per_site <= 0 or self.bytes_per_site <= 0:
            raise PerfModelError("kernel character must be positive")

    @property
    def arithmetic_intensity(self) -> float:
        """FLOP per byte."""
        return self.flops_per_site / self.bytes_per_site


#: The fused D3Q19 BGK stream-collide kernel: ~10 flops per population
#: for moments + ~13 per population for the equilibrium/relaxation,
#: against the 2x19 doubles of traffic.
STREAMCOLLIDE_CHARACTER = KernelCharacter(
    name="streamcollide-d3q19",
    flops_per_site=19 * 23.0,
    bytes_per_site=float(D3Q19.bytes_per_update()),
)


@dataclass(frozen=True)
class RooflinePoint:
    """Where a kernel lands on a device's roofline."""

    device: str
    kernel: str
    arithmetic_intensity: float
    ridge_intensity: float
    bound: str  # "memory" | "compute"
    attainable_gflops: float
    peak_fraction: float

    @property
    def memory_bound(self) -> bool:
        return self.bound == "memory"


def roofline_analysis(
    gpu: GPUSpec,
    kernel: KernelCharacter = STREAMCOLLIDE_CHARACTER,
) -> RooflinePoint:
    """Place a kernel on one device's roofline."""
    peak_tflops = _PER_LOGICAL_FP64_TFLOPS.get(gpu.name)
    if peak_tflops is None:
        raise PerfModelError(
            f"no FP64 peak known for {gpu.name!r}; "
            f"available: {sorted(_PER_LOGICAL_FP64_TFLOPS)}"
        )
    peak_flops = peak_tflops * 1e12
    bw = gpu.mem_bandwidth_bytes_s
    ridge = peak_flops / bw
    intensity = kernel.arithmetic_intensity
    attainable = min(peak_flops, intensity * bw)
    return RooflinePoint(
        device=gpu.name,
        kernel=kernel.name,
        arithmetic_intensity=intensity,
        ridge_intensity=ridge,
        bound="memory" if intensity < ridge else "compute",
        attainable_gflops=attainable / 1e9,
        peak_fraction=attainable / peak_flops,
    )
