"""The compiled tier's :class:`~repro.models.base.ProgrammingModel` face.

The five paper backends are NumPy underneath and differ only in launch
and memory idiom; :class:`CompiledModel` is the sixth entry — the PyKokkos
idea from SNIPPETS: annotated Python lowered to genuinely compiled
kernels behind the same View layer.  The generic surface (alloc /
to_device / to_host / launch / synchronize) behaves like a host-resident
model so the conformance lints treat it like any other backend, while
:meth:`make_kernels` hands the solvers the real compiled engine instead
of NumPy bodies run through :meth:`launch` — so a model engine over this
model executes compiled code.

Constructing the model on a host with no provider raises
:class:`~repro.core.errors.BackendUnavailableError` — the registry
reports it unavailable instead of listing a backend that cannot run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...core.dispatch import ExecutionSpace
from ...core.views import TransferRecord, View
from ..base import KernelBody, ProgrammingModel
from ..device import SimulatedDevice
from .availability import normalize_backend, require_compiled
from .engine import CompiledKernels

__all__ = ["CompiledModel"]

#: Work-chunk the generic (NumPy-body) launch surface uses; the real
#: compiled kernels ignore it and parallelise internally.
DEFAULT_CHUNK = 65536


class CompiledModel(ProgrammingModel):
    """Host-compiled backend: numba-JIT or generated-C kernels."""

    name = "compiled"
    display_name = "Compiled (Numba/C)"
    tool_assisted = False

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        backend: str = "compiled",
        fastmath: bool = True,
    ) -> None:
        self.provider = require_compiled(backend)
        super().__init__(device)
        self.backend = normalize_backend(backend)
        self.fastmath = bool(fastmath)
        self.space = ExecutionSpace(f"{self.name}-exec", DEFAULT_CHUNK)

    # -- compiled kernels ---------------------------------------------------
    def make_kernels(self, lattice, collision) -> CompiledKernels:
        """The compiled engine for one lattice + collision operator."""
        return CompiledKernels(
            lattice,
            collision,
            backend=self.backend,
            fastmath=self.fastmath,
            provider=self.provider,
        )

    # -- generic surface ----------------------------------------------------
    def alloc(self, label: str, shape: Tuple[int, ...], dtype=np.float64) -> View:
        return View(label, shape, np.dtype(dtype), self.device.space)

    def to_device(self, dst: View, host: np.ndarray) -> None:
        dst.data()[...] = np.asarray(host, dtype=dst.dtype)
        self.device.ledger.record(
            TransferRecord("Host", self.device.space.name, dst.nbytes, dst.label)
        )

    def to_host(self, host: np.ndarray, src: View) -> None:
        np.copyto(host, src.data())
        self.device.ledger.record(
            TransferRecord(self.device.space.name, "Host", src.nbytes, src.label)
        )

    def launch(self, label: str, n: int, body: KernelBody) -> None:
        if n == 0:
            return
        self.space.launch(body, n, min(n, DEFAULT_CHUNK))
        self._count_launch()

    def synchronize(self) -> None:
        self.space.fence()
