"""Programming-model registry and per-system availability.

Encodes which implementation runs where (the legends of Figs. 5 and 6 and
Sections 5, 7): each system supports its native model plus the portable
ports that the authors could build there.  HIP on Sunspot runs through the
chipStar compiler; HIP on Summit runs with GPU-aware MPI disabled — both
flags that the calibration layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "ModelVariant",
    "create_model",
    "models_for_machine",
    "native_model_name",
    "is_available",
    "variant_for",
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


@dataclass(frozen=True)
class ModelVariant:
    """How a model is realised on a specific system."""

    model: str
    system: str
    is_native: bool
    via_chipstar: bool = False
    gpu_aware_mpi: bool = True

    @property
    def label(self) -> str:
        suffix = " (chipStar)" if self.via_chipstar else ""
        return f"{self.model}{suffix}"


def native_model_name(machine: Machine) -> str:
    """The system's native programming model (CUDA/HIP/SYCL)."""
    return machine.native_model


def is_available(model_name: str, machine: Machine) -> bool:
    avail = AVAILABILITY.get(machine.name)
    if avail is None:
        # custom machines: everything runs
        return model_name in MODEL_NAMES
    return model_name in avail


def models_for_machine(machine: Machine) -> List[str]:
    """Model names runnable on a machine, native first."""
    avail = AVAILABILITY.get(machine.name, MODEL_NAMES)
    native = native_model_name(machine)
    ordered = [native] + [m for m in avail if m != native]
    return ordered


def variant_for(model_name: str, machine: Machine) -> ModelVariant:
    """The platform-specific realisation of a model on a machine."""
    if model_name not in MODEL_NAMES:
        raise ModelError(
            f"unknown model {model_name!r}; available: {MODEL_NAMES}"
        )
    if not is_available(model_name, machine):
        raise ModelError(
            f"{model_name} was not ported to {machine.name} in the study"
        )
    via_chipstar = model_name == "hip" and machine.name == "Sunspot"
    gpu_aware = not (model_name == "hip" and machine.name == "Summit")
    return ModelVariant(
        model=model_name,
        system=machine.name,
        is_native=(model_name == native_model_name(machine)),
        via_chipstar=via_chipstar,
        gpu_aware_mpi=gpu_aware,
    )


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
