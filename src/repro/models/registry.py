"""Programming-model registry and per-system availability.

Encodes which implementation runs where (the legends of Figs. 5 and 6 and
Sections 5, 7): each system supports its native model plus the portable
ports that the authors could build there.  The one platform fact the
simulator reads beyond the calibration table is :func:`gpu_aware_mpi`:
HIP on Summit runs with GPU-aware MPI disabled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.errors import ModelError
from ..hardware.machine import Machine
from .base import ProgrammingModel
from .cuda import CUDAModel
from .device import SimulatedDevice
from .hip import HIPModel
from .kokkos import KokkosModel
from .sycl import SYCLModel

__all__ = [
    "MODEL_NAMES",
    "AVAILABILITY",
    "create_model",
    "gpu_aware_mpi",
    "models_for_machine",
    "is_available",
]

MODEL_NAMES: Tuple[str, ...] = (
    "cuda",
    "hip",
    "sycl",
    "kokkos-cuda",
    "kokkos-hip",
    "kokkos-sycl",
    "kokkos-openacc",
)

#: Which model runs on which system (paper Figs. 5-6 legends).
AVAILABILITY: Dict[str, Tuple[str, ...]] = {
    "Summit": ("cuda", "hip", "kokkos-cuda", "kokkos-openacc"),
    "Polaris": ("cuda", "sycl", "kokkos-cuda", "kokkos-sycl", "kokkos-openacc"),
    "Crusher": ("hip", "sycl", "kokkos-hip"),
    "Sunspot": ("sycl", "hip", "kokkos-sycl"),
}


def is_available(model_name: str, machine: Machine) -> bool:
    avail = AVAILABILITY.get(machine.name)
    if avail is None:
        # custom machines: everything runs
        return model_name in MODEL_NAMES
    return model_name in avail


def models_for_machine(machine: Machine) -> List[str]:
    """Model names runnable on a machine, native first."""
    avail = AVAILABILITY.get(machine.name, MODEL_NAMES)
    native = machine.native_model
    ordered = [native] + [m for m in avail if m != native]
    return ordered


def gpu_aware_mpi(model_name: str, machine: Machine) -> bool:
    """Whether halo messages leave the device directly; False where MPI
    stages them through the host (HIP on Summit, Section 7.2.2)."""
    if model_name not in MODEL_NAMES:
        raise ModelError(
            f"unknown model {model_name!r}; available: {MODEL_NAMES}"
        )
    return not (model_name == "hip" and machine.name == "Summit")


def create_model(
    name: str, device: Optional[SimulatedDevice] = None
) -> ProgrammingModel:
    """Instantiate a programming-model backend by name."""
    if name == "cuda":
        return CUDAModel(device)
    if name == "hip":
        return HIPModel(device)
    if name == "sycl":
        return SYCLModel(device)
    if name.startswith("kokkos-"):
        backend = name.split("-", 1)[1]
        return KokkosModel(backend, device)
    raise ModelError(f"unknown model {name!r}; available: {MODEL_NAMES}")
