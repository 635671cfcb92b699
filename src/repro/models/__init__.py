"""Programming-model backends: five functional implementations of the
same LBM kernels behind CUDA, HIP, SYCL, Kokkos (with sub-backends) and
OpenACC programming surfaces."""

from .base import DistributedModelEngine, ModelEngine, ProgrammingModel
from .cuda import CUDAModel
from .device import GENERIC_GPU, SimulatedDevice
from .hip import HIP_FROM_CUDA, HIPModel
from .kokkos import KOKKOS_BACKENDS, KOKKOS_MEMORY_SPACES, KokkosModel
from .openacc import OpenACCRuntime
from .registry import (
    AVAILABILITY,
    MODEL_NAMES,
    ModelVariant,
    create_model,
    is_available,
    models_for_machine,
    native_model_name,
    variant_for,
)
from .sycl import Queue, SYCLModel

__all__ = [
    "ProgrammingModel",
    "ModelEngine",
    "DistributedModelEngine",
    "SimulatedDevice",
    "GENERIC_GPU",
    "CUDAModel",
    "HIPModel",
    "HIP_FROM_CUDA",
    "SYCLModel",
    "Queue",
    "KokkosModel",
    "KOKKOS_BACKENDS",
    "KOKKOS_MEMORY_SPACES",
    "OpenACCRuntime",
    "MODEL_NAMES",
    "AVAILABILITY",
    "ModelVariant",
    "create_model",
    "models_for_machine",
    "native_model_name",
    "is_available",
    "variant_for",
]
