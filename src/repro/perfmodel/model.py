"""The paper's GPU performance model (Section 6, Eqs. 1-4).

The model predicts an *upper bound* on iteration time for a
memory-bandwidth-bound LBM run:

* Eq. 1 — stream-collide time: ``t_sc = n_bytes / B_mem`` where ``B_mem``
  is the BabelStream-measured device bandwidth;
* Eq. 2 — total time: ``t = t_sc + sum_j t_comm_j`` over all halo
  communication events;
* Eq. 3 — communication surface per processor, from the idealised
  cubic-subdomain assumption: ``SA_comm ~ w * V^(2/3)`` with ``V`` the
  per-processor fluid volume (in lattice sites);
* Eq. 4 — the face-count correction for low GPU counts:
  ``w = 2 * min(log2(n_gpus), 6)``.

Each of the ``w`` surface events is priced with the PingPong link model of
the machine; by default events cross the inter-node fabric once more than
one node is in use (the bound the paper's "ideal prediction" curves show).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.errors import PerfModelError
from ..hardware.interconnect import LinkTier
from ..hardware.machine import Machine
from ..perf.calibrate import BYTES_PER_UPDATE
from ..perf.efficiency import mflups
from ..perf.simulate import HALO_BYTES_PER_SITE

__all__ = [
    "streamcollide_time",
    "face_count",
    "comm_surface_sites",
    "PredictedIteration",
    "predict_iteration",
    "OverlapPrediction",
    "predict_iteration_overlap",
    "BYTES_PER_UPDATE_D3Q19",
]

#: Read + write of all 19 double-precision populations per fluid update —
#: the direct-addressing figure the simulator prices the proxy app at
#: (:meth:`repro.core.lattice.Lattice.bytes_per_update` of D3Q19).
BYTES_PER_UPDATE_D3Q19 = BYTES_PER_UPDATE["proxy"]


def streamcollide_time(n_bytes: float, bandwidth_bytes_s: float) -> float:
    """Eq. 1: bytes over bandwidth."""
    if n_bytes < 0:
        raise PerfModelError("byte count must be non-negative")
    if bandwidth_bytes_s <= 0:
        raise PerfModelError("bandwidth must be positive")
    return n_bytes / bandwidth_bytes_s


def face_count(n_gpus: int) -> float:
    """Eq. 4: ``w = 2 * min(log2(n_gpus), 6)``.

    Caps at the 6 faces of a cube (each sent and received once).
    """
    if n_gpus < 1:
        raise PerfModelError("n_gpus must be >= 1")
    if n_gpus == 1:
        return 0.0
    return 2.0 * min(float(np.log2(n_gpus)), 6.0)


def comm_surface_sites(fluid_per_gpu: float) -> float:
    """Eq. 3's ``V^(2/3)`` term: the maximum halo face of the idealised
    cubic subdomain, in lattice sites."""
    if fluid_per_gpu < 0:
        raise PerfModelError("fluid volume must be non-negative")
    return float(fluid_per_gpu) ** (2.0 / 3.0)


@dataclass(frozen=True)
class PredictedIteration:
    """One performance-model prediction."""

    total_fluid: float
    n_gpus: int
    t_streamcollide: float
    t_comm: float
    num_events: float
    event_bytes: float

    @property
    def t_iteration(self) -> float:
        return self.t_streamcollide + self.t_comm

    @property
    def mflups(self) -> float:
        """Predicted performance in millions of fluid lattice updates/s."""
        return mflups(self.total_fluid, self.t_iteration)


def predict_iteration(
    machine: Machine,
    total_fluid: float,
    n_gpus: int,
    bytes_per_update: float = BYTES_PER_UPDATE_D3Q19,
    halo_bytes_per_site: float = HALO_BYTES_PER_SITE,
    bandwidth_bytes_s: Optional[float] = None,
) -> PredictedIteration:
    """The full Section-6 prediction for one scaling point.

    Fluid is split evenly over ``n_gpus`` (the model's assumption); each
    of the ``w`` events moves one ``V^(2/3)`` face and is priced on the
    slowest link the placement touches (inter-node once more than one
    node is used, otherwise the intra-node link).
    """
    if not (math.isfinite(total_fluid) and total_fluid > 0):
        raise PerfModelError(
            f"total fluid must be finite and positive, got {total_fluid}"
        )
    if n_gpus < 1:
        raise PerfModelError("n_gpus must be >= 1")
    bw = (
        bandwidth_bytes_s
        if bandwidth_bytes_s is not None
        else machine.node.gpu.mem_bandwidth_bytes_s
    )
    fluid_per_gpu = total_fluid / n_gpus
    t_sc = streamcollide_time(fluid_per_gpu * bytes_per_update, bw)
    w = face_count(n_gpus)
    face_sites = comm_surface_sites(fluid_per_gpu)
    event_bytes = face_sites * halo_bytes_per_site
    if machine.nodes_used(n_gpus) > 1:
        link = machine.node.link(LinkTier.INTER_NODE)
    elif n_gpus > machine.node.gpu.subdevices:
        link = machine.node.link(LinkTier.INTRA_NODE)
    else:
        link = machine.node.link(LinkTier.SAME_PACKAGE)
    t_comm = w * link.message_time(int(event_bytes)) if w else 0.0
    return PredictedIteration(
        total_fluid=float(total_fluid),
        n_gpus=n_gpus,
        t_streamcollide=t_sc,
        t_comm=t_comm,
        num_events=w,
        event_bytes=float(event_bytes),
    )


@dataclass(frozen=True)
class OverlapPrediction:
    """The additive prediction restructured for an overlapped pipeline.

    The interior/frontier split hides halo exchange behind the interior
    fraction of the stream-collide pass, so the iteration bound becomes
    ``max(T_comm, T_interior) + T_frontier`` instead of Eq. 2's additive
    ``T_sc + T_comm``.  ``t_hidden``/``t_exposed`` quantify how much of
    the communication the window absorbs — the paper's overlap argument
    in closed form.
    """

    base: PredictedIteration
    frontier_fraction: float

    @property
    def t_interior(self) -> float:
        return self.base.t_streamcollide * (1.0 - self.frontier_fraction)

    @property
    def t_frontier(self) -> float:
        return self.base.t_streamcollide * self.frontier_fraction

    @property
    def t_hidden(self) -> float:
        """Communication time absorbed by the interior window."""
        return min(self.base.t_comm, self.t_interior)

    @property
    def t_exposed(self) -> float:
        """Communication time still on the critical path."""
        return max(0.0, self.base.t_comm - self.t_interior)

    @property
    def t_iteration(self) -> float:
        return max(self.base.t_comm, self.t_interior) + self.t_frontier

    @property
    def mflups(self) -> float:
        return mflups(self.base.total_fluid, self.t_iteration)

    @property
    def speedup(self) -> float:
        """Predicted gain over the additive (non-overlapped) schedule."""
        if self.t_iteration == 0:
            raise PerfModelError("zero iteration time")
        return self.base.t_iteration / self.t_iteration


def predict_iteration_overlap(
    machine: Machine,
    total_fluid: float,
    n_gpus: int,
    bytes_per_update: float = BYTES_PER_UPDATE_D3Q19,
    halo_bytes_per_site: float = HALO_BYTES_PER_SITE,
    bandwidth_bytes_s: Optional[float] = None,
    frontier_fraction: Optional[float] = None,
) -> OverlapPrediction:
    """Overlap-aware prediction: ``max(T_comm, T_interior) + T_frontier``.

    ``frontier_fraction`` is the share of fluid sites whose streaming
    reads a halo value.  When omitted it is estimated from the idealised
    cubic subdomain: one ``V^(2/3)`` layer per receiving face (``w / 2``
    faces), clipped to the subdomain volume.
    """
    base = predict_iteration(
        machine,
        total_fluid,
        n_gpus,
        bytes_per_update=bytes_per_update,
        halo_bytes_per_site=halo_bytes_per_site,
        bandwidth_bytes_s=bandwidth_bytes_s,
    )
    if frontier_fraction is None:
        fluid_per_gpu = total_fluid / n_gpus
        frontier_sites = (base.num_events / 2.0) * comm_surface_sites(
            fluid_per_gpu
        )
        frontier_fraction = min(1.0, frontier_sites / fluid_per_gpu)
    if not 0.0 <= frontier_fraction <= 1.0:
        raise PerfModelError(
            f"frontier_fraction must lie in [0, 1], got {frontier_fraction}"
        )
    return OverlapPrediction(
        base=base, frontier_fraction=float(frontier_fraction)
    )
