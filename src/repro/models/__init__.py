"""Programming-model backends: five functional implementations of the
same LBM kernels behind CUDA, HIP, SYCL, Kokkos (with sub-backends) and
OpenACC programming surfaces.  A model is a solver argument —
``Solver(grid, config, model=create_model("hip"))``, or one model per
rank through ``DistributedSolver(partition, config, models=[...],
gpu_aware=...)`` — not a solver class."""

from .base import ProgrammingModel
from .cuda import CUDAModel
from .device import GENERIC_GPU, SimulatedDevice
from .hip import HIP_FROM_CUDA, HIPModel
from .kokkos import KOKKOS_BACKENDS, KOKKOS_MEMORY_SPACES, KokkosModel
from .openacc import OpenACCRuntime
from .registry import (
    AVAILABILITY,
    MODEL_NAMES,
    create_model,
    is_available,
    models_for_machine,
)
from .sycl import Queue, SYCLModel

__all__ = [
    "ProgrammingModel",
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
    "create_model",
    "models_for_machine",
    "is_available",
]
