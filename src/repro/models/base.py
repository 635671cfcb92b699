"""The programming-model interface and the kernels it launches.

Every backend (CUDA, HIP, SYCL, Kokkos, Kokkos-OpenACC) implements the
narrow :class:`ProgrammingModel` surface — allocate device storage, copy
between host and device, launch a data-parallel kernel — using its own
idioms.  A model is a **kernel provider** of the solver, chosen by an
argument and not by a subclass: ``Solver(grid, config, model=m)`` or
``DistributedSolver(partition, config, models=[...], gpu_aware=...)``
with one model per rank.  :func:`~repro.lbm.solver.make_kernels` wraps
it in the :class:`LaunchedKernels` the solver steps with, so the one
declared schedule runs the *same* kernel bodies (from
:mod:`repro.core.kernels`) through any backend — precisely the porting
structure the paper evaluates: one algorithm, five programming surfaces,
identical physics (same floating-point operations in the same order per
node as the plain solver).

Two exchange paths, matching Section 7.2.2: **GPU-aware** — halo buffers
leave the device directly, nothing on the transfer ledger — and
**host-staged** (:class:`HostStagedHalo`, the configuration HIP-on-Summit
was forced into) — every message costs a device-to-host download at the
sender and a host-to-device upload at the receiver, which makes the
staging cost *observable* on the per-device ledgers
(``model.device.d2h_bytes()`` / ``h2d_bytes()``) rather than merely
priced.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.kernels import fused_stream_body_kernel
from ..core.lattice import Lattice
from ..core.views import View
from ..lbm.solver import NumpyKernels
from ..lbm.stream import StepPlan
from .device import SimulatedDevice

__all__ = [
    "ProgrammingModel",
    "LaunchedKernels",
    "HostStagedHalo",
]

KernelBody = Callable[[np.ndarray], None]


class ProgrammingModel(abc.ABC):
    """Abstract programming model over a simulated device."""

    #: short identifier, e.g. ``"cuda"`` or ``"kokkos-sycl"``
    name: str = "abstract"
    #: name shown in reports, e.g. ``"Kokkos OpenACC"``
    display_name: str = "abstract"
    #: True when a porting tool (DPCT/HIPify) produced the port
    tool_assisted: bool = False

    def __init__(self, device: Optional[SimulatedDevice] = None) -> None:
        self.device = device if device is not None else SimulatedDevice()

    # -- backend surface ----------------------------------------------------
    @abc.abstractmethod
    def alloc(self, label: str, shape: Tuple[int, ...], dtype=np.float64) -> View:
        """Allocate device storage."""

    @abc.abstractmethod
    def to_device(self, dst: View, host: np.ndarray) -> None:
        """Copy host data into a device allocation."""

    @abc.abstractmethod
    def to_host(self, host: np.ndarray, src: View) -> None:
        """Copy a device allocation back to host memory."""

    @abc.abstractmethod
    def launch(self, label: str, n: int, body: KernelBody) -> None:
        """Execute ``body`` data-parallel over ``range(n)``."""

    @abc.abstractmethod
    def synchronize(self) -> None:
        """Wait for outstanding device work."""

    # -- conveniences ----------------------------------------------------------
    def upload(self, label: str, host: np.ndarray) -> View:
        """Allocate-and-copy in one call."""
        view = self.alloc(label, tuple(host.shape), host.dtype)
        self.to_device(view, host)
        return view

    def download(self, src: View) -> np.ndarray:
        host = np.empty(src.shape, dtype=src.dtype)
        self.to_host(host, src)
        return host

    @property
    def launch_count(self) -> int:
        """Number of kernel launches issued (backend-specific counter)."""
        return getattr(self, "_launches", 0)

    def _count_launch(self) -> None:
        self._launches = getattr(self, "_launches", 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} on {self.device.name}>"


class LaunchedKernels(NumpyKernels):
    """Kernel provider running the NumPy bodies through ``model.launch``.

    ``collide`` and ``stream`` are one launch each, ``stream`` over the
    device-resident tables ``tables(step_plan)`` returned; the outlet and
    the collide workspace are :class:`~repro.lbm.solver.NumpyKernels`'.
    """

    def __init__(self, model: ProgrammingModel, lattice: Lattice, collision) -> None:
        super().__init__(lattice, collision)
        self.model = model

    def tables(  # type: ignore[override]
        self, plan: StepPlan
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The plan's flat link tables, resident on the device."""
        up = self.model.upload
        return (
            up("stream_flat_src", plan.flat_src.reshape(-1)).data(),
            up("stream_flat_dst", plan.flat_dst().reshape(-1)).data(),
        )

    def collide(self, f: np.ndarray, n_nodes: int) -> None:
        lat, collision, ws = self.lattice, self.collision, self.workspace

        def body(idx: np.ndarray) -> None:
            collision.apply(lat, f, idx, workspace=ws)

        self.model.launch("collide", n_nodes, body)

    def stream(  # type: ignore[override]
        self,
        f_src: np.ndarray,
        f_dst: np.ndarray,
        src_flat: np.ndarray,
        dst_flat: np.ndarray,
    ) -> None:
        # fused streaming + bounce-back: one launch over all links
        fsrc = f_src.reshape(-1)
        fdst = f_dst.reshape(-1)

        def body(idx: np.ndarray) -> None:
            fused_stream_body_kernel(fsrc, fdst, src_flat, idx, dst_flat)

        self.model.launch("stream_fused", src_flat.size, body)


class HostStagedHalo:
    """Halo transport for ranks without GPU-aware MPI.

    Wraps the solver's transport with the same ``send`` / ``recv_into``
    pair; every message stages through the host, recorded on the rank's
    device ledger: one D2H at the sender, one H2D at the receiver.
    """

    def __init__(self, halo, models: Sequence[ProgrammingModel]) -> None:
        self._halo = halo
        self._models = models

    def send(self, src: int, dst: int, buf: np.ndarray, tag: int) -> None:
        # explicit download before handing the buffer to MPI; the
        # per-message host copy is the cost this path makes visible
        model = self._models[src]
        staging = View.from_array(
            f"stage_out_{src}_{dst}", buf, model.device.space
        )
        host = model.download(staging)
        staging.free()
        self._halo.send(src, dst, host, tag=tag)

    def recv_into(self, dst: int, src: int, out: np.ndarray, tag: int) -> None:
        # the payload lands in host memory and is uploaded from there
        host = np.empty_like(out)
        self._halo.recv_into(dst, src, host, tag=tag)
        staging = self._models[dst].upload(f"stage_in_{dst}_{src}", host)
        out[...] = staging.data()
        staging.free()
