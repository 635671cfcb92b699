"""Compiled backend tier: the StepPlan IR executed by real machine code.

A kernel provider of the solvers, reached through
``SolverConfig.backend`` (:func:`repro.lbm.solver.make_kernels`), not a
programming model of the study.  Where the paper's backends
(:mod:`repro.models.cuda` and friends) simulate launch/memory idioms over
NumPy, this tier lowers the same kernel bodies to host machine code —
generated C built by the host compiler — and consumes the fused
:class:`~repro.lbm.stream.StepPlan` flat gather table directly as its
kernel IR.  See DESIGN.md ("StepPlan as kernel IR") for how this maps to
the paper's model comparison and the PyKokkos translation pipeline.

Degrades gracefully: without a host C compiler, everything here
imports fine, availability queries answer ``False``, and requesting a
compiled backend raises
:class:`~repro.core.errors.BackendUnavailableError` with an install hint.
"""

from __future__ import annotations

from .availability import (
    COMPILED_BACKENDS,
    PROVIDER_ENV,
    availability_report,
    compiled_available,
    compiled_provider,
    normalize_backend,
    parallel_supported,
    require_compiled,
    reset_detection_cache,
)
from .engine import CompiledKernels, collision_op_code

__all__ = [
    "COMPILED_BACKENDS",
    "PROVIDER_ENV",
    "availability_report",
    "compiled_available",
    "compiled_provider",
    "normalize_backend",
    "parallel_supported",
    "require_compiled",
    "reset_detection_cache",
    "CompiledKernels",
    "collision_op_code",
]
